"""Truncated Laurent expansions at infinity.

``InfSeries`` holds c_0..c_{n-1} with the meaning sum_j c_j z^{-j-1}; the
truncation order n is explicit and reads past it raise instead of silently
returning zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .unipoly import UniPoly


@dataclass(frozen=True)
class InfSeries:
    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coeff(self, j: int) -> Fraction:
        if not 0 <= j < len(self.coeffs):
            raise IndexError(
                f"series coefficient c_{j} beyond truncation order {self.order}"
            )
        return self.coeffs[j]


def series_expand(R: UniPoly, Q: UniPoly, n: int) -> InfSeries:
    """First n coefficients of R/Q = c_0/z + c_1/z^2 + ..., as
    c_j = e_j / (R.den L^(j+1)) from ``series_numerators``."""
    es = series_numerators(R, Q, n)
    lead = Q.nums[-1]
    return InfSeries(tuple(Fraction(e, R.den * lead ** (j + 1)) for j, e in enumerate(es)))


def series_numerators(R: UniPoly, Q: UniPoly, n: int) -> list[int]:
    """The integers e_0..e_{n-1} with c_j = e_j / (R.den L^(j+1)), L the
    leading numerator of Q (Q.den when Q is monic).

    Requires deg R < deg Q.  The recurrence
    c_j = (r_{a-1-j} - sum_{k<j} q_{a+k-j} c_k) / q_a, read off from
    R = Q * (c_0/z + c_1/z^2 + ...), runs on the numerators as
    e_j = r_{a-1-j} Q.den L^j - sum_{k<j} q_{a+k-j} e_k L^(j-k-1).
    """
    if Q.is_zero:
        raise ZeroDivisionError("expansion denominator is zero")
    a = Q.degree
    assert a is not None
    if not R.is_zero and R.degree >= a:
        raise ValueError("numerator degree must be below denominator degree")
    q, r = Q.nums, R.nums
    lead = q[a]
    powers = [1]  # L^0 .. L^j
    es: list[int] = []
    for j in range(n):
        acc = r[a - 1 - j] * Q.den * powers[j] if 0 <= a - 1 - j < len(r) else 0
        for k in range(max(0, j - a), j):
            acc -= q[a + k - j] * es[k] * powers[j - k - 1]
        es.append(acc)
        powers.append(powers[-1] * lead)
    return es


def series_coefficients(ws: Sequence, ys: Sequence, n: int) -> list:
    """c_0..c_{n-1} of R/Q for Q with distinct roots ws and R(ws) = ys, in
    closed form: c_j = sum_r y_r w_r^j / prod_{s != r}(w_r - w_s).  Generic
    over the number type: Fractions, jets, or ring variables (MultiRat)."""
    terms = [
        y / math.prod((w - v for s, v in enumerate(ws) if s != r), start=1)
        for r, (w, y) in enumerate(zip(ws, ys))
    ]
    cs = []
    for _ in range(n):
        cs.append(sum(terms[1:], terms[0]))
        terms = [t * w for t, w in zip(terms, ws)]
    return cs

"""Exact evaluation of the superpotential restricted to a coordinate point.

The value splits into an exact rational part sum y*K(w)/Q'(w), a boundary
factor entering through its logarithm, and pairwise logarithmic terms of a
colored point configuration.  Logarithms are never evaluated in the core;
a separate renderer produces floats on demand.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .points import ZastavaPoint, boundary_equation_sl2, from_coords
from .rootdata import datum
from .series import series_numerators
from .unipoly import UniPoly, _horner


@dataclass(frozen=True)
class SuperData:
    """Inputs: one monic K_i per color; optional marked points z_n with
    coweight coefficient vectors lambda_n."""

    K: tuple[UniPoly, ...]
    points: tuple[Fraction, ...] = ()
    coweights: tuple[tuple[Fraction, ...], ...] = ()

    def __post_init__(self):
        for k in self.K:
            if not k.is_monic:
                raise ValueError("each K_i must be monic")
        if len(self.points) != len(self.coweights):
            raise ValueError("one coweight vector per marked point")


@dataclass(frozen=True)
class SuperValue:
    """Structured value: no floating point until rendered."""

    exact_part: Fraction
    boundary: Optional[Fraction]
    log_terms: tuple[tuple[Fraction, Fraction], ...]  # (coefficient, argument)

    def render(self) -> float:
        """exact_part - log|boundary| + sum coeff*log|argument|."""
        out = float(self.exact_part)
        if self.boundary is not None:
            out -= math.log(abs(self.boundary))
        for coeff, arg in self.log_terms:
            out += float(coeff) * math.log(abs(arg))
        return out


def exact_part(point: ZastavaPoint, K: Sequence[UniPoly]) -> Fraction:
    """sum over colors and roots of y_{i,r} K_i(w_{i,r}) / Q_i'(w_{i,r}),
    per color by homogeneous integer Horner at each w = p/q, over the lcm
    of the terms' denominators."""
    if not point.has_coords:
        raise ValueError("coordinate form with distinct roots required")
    total = Fraction(0)
    for i, (ws, ys) in enumerate(zip(point.w, point.y)):
        dq, k = point.Q[i].derivative(), K[i]
        nums, dens = [], []
        for w, y in zip(ws, ys):
            p, q = w.numerator, w.denominator
            nums.append(y.numerator * q ** (len(dq.nums) - 1) * _horner(k.nums, p, q))
            dens.append(y.denominator * q ** max(len(k.nums) - 1, 0) * _horner(dq.nums, p, q))
        den = math.lcm(*dens)
        total += Fraction(dq.den * sum(n * (den // d) for n, d in zip(nums, dens)), k.den * den)
    return total


def eval_gw(point: ZastavaPoint, data: SuperData) -> SuperValue:
    """The structured superpotential value at a coordinate point.

    The boundary factor is computed for rank-one points; for other data it
    is omitted (the exact part and log terms are color-agnostic).
    """
    if len(data.K) != point.datum.rank:
        raise ValueError("one K_i per color required")
    zs = data.points
    if len(set(zs)) != len(zs):
        raise ValueError("coincident marked points")
    ex = exact_part(point, data.K)
    boundary = boundary_equation_sl2(point) if point.is_sl2 else None
    P = point.datum.pairing
    terms = []
    for m in range(len(zs)):
        for n in range(m + 1, len(zs)):
            lm, ln = data.coweights[m], data.coweights[n]
            coeff = sum(
                lm[i] * P[i][j] * ln[j] for i in range(len(lm)) for j in range(len(ln))
            )
            terms.append((Fraction(coeff), zs[m] - zs[n]))
    return SuperValue(ex, boundary, tuple(terms))


def verify_gw_w(point: ZastavaPoint, data: SuperData) -> dict:
    """Check that the exact part equals sum_p kappa_{i,p} h_{i,p}, where
    h_{i,p} is the p-th series coefficient of R_i/Q_i and kappa the
    coefficients of K_i (top coefficient 1)."""
    lhs = exact_part(point, data.K)
    rhs = Fraction(0)
    for i, k in enumerate(data.K):
        # sum_p kappa_p e_p / (R.den L^(p+1)) over K.den R.den L^(l+1), Horner in L
        R, lead = point.R[i], point.Q[i].nums[-1]
        acc = 0
        for c, e in zip(k.nums, series_numerators(R, point.Q[i], len(k.nums))):
            acc = acc * lead + c * e
        rhs += Fraction(acc, k.den * R.den * lead ** len(k.nums))
    return {"ok": lhs == rhs, "lhs": lhs, "rhs": rhs}


# every distinct p/q with 1 <= p <= 40, 1 <= q <= 4; sorted, so draws ignore the hash seed
_POSITIVE_VALUES = tuple(sorted({Fraction(p, q) for p in range(1, 41) for q in range(1, 5)}))


def positivity_sample(a: int, trials: int, rng: Optional[random.Random] = None) -> dict:
    """Evidence collection for rank-one degree a: sample points with all
    initial cluster variables positive and kappa coefficients in 0..4, and record
    the signs of the exact part and the boundary factor.

    Distinct positive w_r and y_r with the sign of Q'(w_r) give weights
    mu_r = y_r / Q'(w_r) > 0, so c_j = sum_r mu_r w_r^j is a moment sequence
    of a positive measure on positive support (Akhiezer, *The Classical
    Moment Problem*, 1965): C_m = det V^T diag(mu) V and D_m =
    det V^T diag(mu w) V are positive for m <= a, with no check needed.
    The w are drawn at once from ``_POSITIVE_VALUES`` without replacement,
    so a above its 107 values raises ValueError before any draw.
    No theorem is asserted about the signs recorded; the report carries raw
    counts.
    """
    if a > len(_POSITIVE_VALUES):
        raise ValueError(f"degree {a} needs {a} distinct w, above the "
                         f"{len(_POSITIVE_VALUES)} positive values the sampler draws")
    if rng is None:
        rng = random.Random(0)
    dat = datum("A1")
    records = []
    for _ in range(trials):
        ws = sorted(rng.sample(_POSITIVE_VALUES, a))
        # plain positive y cannot reach the positive region for a >= 2 (the
        # top minor equals -y_1*y_2 at a=2)
        ys = [
            Fraction(rng.randint(1, 40), rng.randint(1, 4)) * (-1) ** (a - r)
            for r in range(1, a + 1)
        ]
        pt = from_coords(dat, [ws], [ys], require_trigonometric=True)
        K = UniPoly(
            [Fraction(rng.randint(0, 4)) for _ in range(rng.randint(0, 2 * a))]
            + [Fraction(1)]
        )
        val = eval_gw(pt, SuperData((K,)))
        records.append(
            {
                "exact_part": val.exact_part,
                "exact_positive": val.exact_part > 0,
                "boundary": val.boundary,
                "boundary_positive": val.boundary > 0,
            }
        )
    return {
        "trials": trials,
        "exact_positive": sum(r["exact_positive"] for r in records),
        "boundary_positive": sum(r["boundary_positive"] for r in records),
        "records": records,
    }

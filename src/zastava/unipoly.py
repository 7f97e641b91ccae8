"""Exact univariate polynomials in z over the rationals.

Coefficients are stored lowest degree first with trailing zeros trimmed.
The degree of the zero polynomial is ``None`` (an explicit sentinel), never
an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .rational import format_scalar, parse_scalar


@dataclass(frozen=True)
class UniPoly:
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def const(c: Fraction | int) -> "UniPoly":
        return UniPoly((Fraction(c),))

    @staticmethod
    def z() -> "UniPoly":
        return UniPoly((0, 1))

    @staticmethod
    def monomial(k: int, c: Fraction | int = 1) -> "UniPoly":
        return UniPoly((0,) * k + (Fraction(c),))

    @staticmethod
    def from_roots(roots: Sequence[Fraction]) -> "UniPoly":
        p = UniPoly.const(1)
        for w in roots:
            p = p * UniPoly((-Fraction(w), Fraction(1)))
        return p

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of z^k; zero outside the stored range (including k<0)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __call__(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.coeff(k) + other.coeff(k) for k in range(n))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.coeff(k) - other.coeff(k) for k in range(n))

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __mul__(self, other: "UniPoly | Fraction | int") -> "UniPoly":
        if isinstance(other, (Fraction, int)):
            return UniPoly(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "UniPoly":
        """Multiply by z^k (k >= 0)."""
        if self.is_zero:
            return self
        return UniPoly((0,) * k + tuple(self.coeffs))

    def derivative(self) -> "UniPoly":
        return UniPoly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> list[str]:
        """Coefficient strings "p/q", lowest degree first."""
        return [format_scalar(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence[str | int]) -> "UniPoly":
        return UniPoly(parse_scalar(c) for c in data)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(format_scalar(c))
            else:
                zk = "z" if k == 1 else f"z^{k}"
                parts.append(zk if c == 1 else f"{format_scalar(c)}*{zk}")
        return " + ".join(parts)


def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Exact division with remainder: a = q*b + r with deg r < deg b."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a.coeffs)
    db = b.degree
    assert db is not None
    lead = b.coeffs[-1]
    if len(rem) - 1 < db:
        return UniPoly.zero(), a
    quot = [Fraction(0)] * (len(rem) - db)
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        f = c / lead
        quot[k - db] = f
        for j in range(db + 1):
            rem[k - db + j] -= f * b.coeffs[j]
    return UniPoly(quot), UniPoly(rem)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd (Euclid); gcd(0,0) = 0."""
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    if a.is_zero:
        return a
    return a * (1 / a.coeffs[-1])


def lagrange_interpolate(nodes: Sequence[tuple[Fraction, Fraction]]) -> UniPoly:
    """The unique polynomial of degree < len(nodes) through the given points.

    Node abscissae must be pairwise distinct.
    """
    ws = [Fraction(w) for w, _ in nodes]
    if len(set(ws)) != len(ws):
        raise ValueError("repeated abscissa in interpolation nodes")
    result = UniPoly.zero()
    for r, (w, v) in enumerate(nodes):
        if v == 0:
            continue
        basis = UniPoly.const(1)
        denom = Fraction(1)
        for s, (ws_, _) in enumerate(nodes):
            if s == r:
                continue
            basis = basis * UniPoly((-Fraction(ws_), Fraction(1)))
            denom *= Fraction(w) - Fraction(ws_)
        result = result + basis * (Fraction(v) / denom)
    return result


# Largest constant or leading coefficient rational_roots searches the
# divisors of; the trial-division search grows as its square root.
RATIONAL_ROOT_BOUND = 2**40


def rational_roots(p: UniPoly) -> list[Fraction]:
    """All rational roots of p, with multiplicity, found by exact search.

    Clears denominators and runs the rational-root test on the resulting
    integer polynomial; raises ValueError when its constant or leading
    coefficient (after pulling out z = 0) exceeds RATIONAL_ROOT_BOUND.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no well-defined root set")
    roots: list[Fraction] = []
    work = p
    # pull out z = 0 first
    while not work.is_zero and work.coeff(0) == 0:
        roots.append(Fraction(0))
        work = poly_divmod(work, UniPoly.z())[0]
    if work.degree in (None, 0):
        return roots
    scale = _den_lcm(work)
    a0 = abs(int(work.coeff(0) * scale))
    an = abs(int(work.coeffs[-1] * scale))
    if max(a0, an) > RATIONAL_ROOT_BOUND:
        raise ValueError(
            "rational_roots: constant or leading coefficient, with denominators "
            "cleared, exceeds the divisor-search limit 2^40"
        )
    cands = set()
    for pnum in _divisors(a0):
        for qden in _divisors(an):
            cands.add(Fraction(pnum, qden))
            cands.add(Fraction(-pnum, qden))
    for cand in sorted(cands):
        while not work.is_zero and work(cand) == 0:
            roots.append(cand)
            work = poly_divmod(work, UniPoly((-cand, Fraction(1))))[0]
    return roots


def _den_lcm(p: UniPoly) -> int:
    from math import gcd

    out = 1
    for c in p.coeffs:
        out = out * c.denominator // gcd(out, c.denominator)
    return out


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))

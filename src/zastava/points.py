"""Points of trigonometric zastava in polynomial and coordinate form.

A point carries, per color i, a monic Q_i of degree a_i and an R_i of lower
degree; when the Q_i split over the rationals it also carries the
coordinate chart (w_{i,r}, y_{i,r}) with w the roots of Q and y = R(w).
All mutating operations return new points and re-derive the dependent
chart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import ExactMatrix, hankel_minor_C, solve_linear
from .multirat import Ring
from .rational import format_scalar, parse_scalar
from .rootdata import RootDatum, datum
from .series import InfSeries, series_expand
from .unipoly import UniPoly, _horner, _interpolate, _ratio, poly_gcd, rational_roots


class Tier(Enum):
    ZASTAVA = "zastava"
    MONOPOLE = "monopole"
    TRIGONOMETRIC = "trigonometric"


def _classify(Q: UniPoly, R: UniPoly) -> Tier:
    if poly_gcd(Q, R).degree not in (None, 0):
        return Tier.ZASTAVA
    if Q.coeff(0) == 0:
        return Tier.MONOPOLE
    return Tier.TRIGONOMETRIC


def _on_chart(Q: UniPoly, R: UniPoly, ws: Sequence[tuple[int, int]], ys: Sequence[Fraction]) -> bool:
    """Q(w) = 0 and R(w) = y at each w = p/q, given as (p, q), by integer
    Horner with the value of R cross-multiplied against y."""
    n = max(len(R.nums) - 1, 0)
    return not any(_horner(Q.nums, p, q) or _horner(R.nums, p, q) * y.denominator
                   != y.numerator * R.den * q**n for (p, q), y in zip(ws, ys))


def _checked(pt: "ZastavaPoint") -> list[list[tuple[int, int]]]:
    """Every check of a point but that its chart lies on (Q, R); returns the
    w of each color as (numerator, denominator) pairs (none without a chart)."""
    rank = pt.datum.rank
    if len(pt.Q) != rank or len(pt.R) != rank:
        raise ValueError("one (Q_i, R_i) pair per color required")
    for q, r in zip(pt.Q, pt.R):
        if not q.is_monic:  # the zero polynomial is not monic
            raise ValueError("each Q_i must be monic of degree >= 0")
        if len(r.nums) >= len(q.nums):
            raise ValueError("deg R_i must be < deg Q_i")
    if (pt.w is None) != (pt.y is None):
        raise ValueError("coordinate form requires both w and y")
    if pt.w is None:
        return []
    if len(pt.w) != rank or len(pt.y) != rank:
        raise ValueError("coordinate lists must match the degrees")
    pairs = []
    for q, ws, ys in zip(pt.Q, pt.w, pt.y):
        if not len(ws) == len(ys) == len(q.nums) - 1:
            raise ValueError("coordinate lists must match the degrees")
        pairs.append([(v.numerator, v.denominator) for v in ws])
        if len(set(pairs[-1])) < len(ws):
            raise ValueError("repeated roots within a color")
    return pairs


@dataclass(frozen=True)
class ZastavaPoint:
    datum: RootDatum
    Q: tuple[UniPoly, ...]
    R: tuple[UniPoly, ...]
    w: Optional[tuple[tuple[Fraction, ...], ...]] = None
    y: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def __post_init__(self):
        for q, r, ws, ys in zip(self.Q, self.R, _checked(self), self.y or ()):
            if not _on_chart(q, r, ws, ys):
                raise ValueError("coordinate form inconsistent with (Q, R)")

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(q.degree for q in self.Q)

    @property
    def tier(self) -> Tier:
        """The lowest tier over the colors.  With a chart it is read off
        (w, y): the w are the distinct roots of Q and y = R(w), so a common
        factor of Q_i and R_i shows as some y = 0 and Q_i(0) = 0 as some w = 0."""
        if self.w is None:
            tiers = [_classify(q, r) for q, r in zip(self.Q, self.R)]
            order = [Tier.ZASTAVA, Tier.MONOPOLE, Tier.TRIGONOMETRIC]
            return order[min(order.index(t) for t in tiers)]
        if any(not v for ys in self.y for v in ys):
            return Tier.ZASTAVA
        if any(not v for ws in self.w for v in ws):
            return Tier.MONOPOLE
        return Tier.TRIGONOMETRIC

    @property
    def has_coords(self) -> bool:
        return self.w is not None

    @property
    def is_sl2(self) -> bool:
        return self.datum.rank == 1 and self.datum.label == "A1"

    # -- series / boundary ------------------------------------------------

    def series(self, i: int = 0, n: Optional[int] = None) -> InfSeries:
        """Expansion of R_i/Q_i at infinity; default order 2*a_i + 1."""
        a = self.degrees[i]
        return series_expand(self.R[i], self.Q[i], 2 * a + 1 if n is None else n)

    def to_json(self) -> dict:
        out = {
            "type": self.datum.label,
            "degrees": [len(q.nums) - 1 for q in self.Q],
            "Q": [q.to_json() for q in self.Q],
            "R": [r.to_json() for r in self.R],
        }
        if self.w is not None:
            out["w"] = [list(map(format_scalar, ws)) for ws in self.w]
            out["y"] = [list(map(format_scalar, ys)) for ys in self.y]
        return out

    @staticmethod
    def from_json(data: dict) -> "ZastavaPoint":
        """Read a point document; raises ValueError when it is malformed."""
        try:
            dat = datum(data["type"])
            Q = tuple(UniPoly.from_json(c) for c in data["Q"])
            R = tuple(UniPoly.from_json(c) for c in data["R"])
            degrees = [q.degree for q in Q]
            if "degrees" in data and data["degrees"] != degrees:
                raise ValueError(
                    f"degrees field {data['degrees']!r} differs from the degrees of Q {degrees}"
                )
            w = y = None
            if "w" in data:
                w = tuple(tuple(map(parse_scalar, ws)) for ws in data["w"])
                y = tuple(tuple(map(parse_scalar, ys)) for ys in data["y"])
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed point document: {exc!r}") from exc
        return ZastavaPoint(dat, Q, R, w, y)

    @staticmethod
    def load(path: str) -> "ZastavaPoint":
        with open(path) as fh:
            return ZastavaPoint.from_json(json.load(fh))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


def from_coords(
    dat: RootDatum,
    w: Sequence[Sequence[Fraction]],
    y: Sequence[Sequence[Fraction]],
    require_trigonometric: bool = False,
) -> ZastavaPoint:
    """Build the monic-Q point with the given roots and values.

    Q_i has roots w_{i,*}; R_i is the Lagrange interpolant through
    (w_{i,r}, y_{i,r}).  Roots must be distinct per color, and nonzero when
    the trigonometric tier is required; a float value raises TypeError.
    """
    w = tuple(map(_fractions, w))
    y = tuple(map(_fractions, y))
    QR = [_interpolate(ws, ys) for ws, ys in zip(w, y)]
    pt = _trusted(dat, tuple(q for q, _ in QR), tuple(r for _, r in QR), w, y)
    if require_trigonometric and pt.tier is not Tier.TRIGONOMETRIC:
        raise ValueError("point is not on the trigonometric tier (gcd or zero root)")
    return pt


def _fractions(vs: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """The values as Fractions, keeping each Fraction as it is; a float
    raises TypeError."""
    return tuple(v if isinstance(v, Fraction) else Fraction(*_ratio(v)) for v in vs)


def _trusted(dat: RootDatum, Q: tuple, R: tuple, w=None, y=None) -> ZastavaPoint:
    """A point whose chart and (Q, R) the caller has just derived from each
    other: every check of ZastavaPoint but the Horner test of the chart."""
    pt, put = object.__new__(ZastavaPoint), object.__setattr__
    put(pt, "datum", dat)  # in field order, as the dataclass does, so the fields stay compact
    put(pt, "Q", Q)
    put(pt, "R", R)
    put(pt, "w", w)
    put(pt, "y", y)
    _checked(pt)
    return pt


def recover_coords(pt: ZastavaPoint) -> ZastavaPoint:
    """Attach the coordinate chart when every Q_i splits over the rationals."""
    if pt.has_coords:
        return pt
    ws = []
    for q in pt.Q:
        ws.append(tuple(rational_roots(q)))
        if len(ws[-1]) != q.degree:
            raise ValueError("Q does not split over the rationals")
    return _trusted(pt.datum, pt.Q, pt.R, tuple(ws), tuple(tuple(map(r, x)) for r, x in zip(pt.R, ws)))


# -- Bezout completion and the loop-group matrix ---------------------------


def bezout_complete(Q: UniPoly, R: UniPoly) -> tuple[UniPoly, UniPoly]:
    """The unique monic F (deg a) and D (deg < a) with Q*F - R*D = z^(2a).

    Requires Q monic of degree a >= 1, Q(0) != 0, deg R < a, gcd(Q,R) = 1.
    Solved as a 2a x 2a exact linear system in the unknown low coefficients
    of F and the coefficients of D.
    """
    a = Q.degree
    if a is None or a < 1 or not Q.is_monic:
        raise ValueError("Q must be monic of degree >= 1")
    if Q.coeff(0) == 0:
        raise ValueError("Q(0) = 0: no Bezout completion on the trigonometric tier")
    if not R.is_zero and R.degree >= a:
        raise ValueError("deg R must be < deg Q")
    if poly_gcd(Q, R).degree not in (None, 0):
        raise ValueError("gcd(Q, R) != 1: no Bezout completion exists")
    # unknowns x = (f_0..f_{a-1}, d_0..d_{a-1}); equations: coefficient of
    # z^m in Q*F - R*D - z^(2a) is 0 for m = 0..2a-1 (the z^(2a) terms match
    # automatically since Q and F are monic).
    rows = []
    rhs = []
    for m in range(2 * a):
        row = [Q.coeff(m - t) for t in range(a)] + [-R.coeff(m - t) for t in range(a)]
        rows.append(row)
        # move the known monic contribution q_{m-a} * f_a (f_a = 1) across
        rhs.append(-Q.coeff(m - a))
    x = solve_linear(ExactMatrix(rows), rhs)
    F = UniPoly(list(x[:a]) + [Fraction(1)])
    D = UniPoly(x[a:])
    assert (Q * F - R * D) == UniPoly.monomial(2 * a), "Bezout residual nonzero"
    return F, D


@dataclass(frozen=True)
class GMatrix:
    """The 2x2 loop-group element with entries z^(-a) * (F, D; R, Q).

    Entries are Laurent polynomials in z with exponents in [-a, 0], stored
    through the defining polynomials.
    """

    a: int
    F: UniPoly
    D: UniPoly
    R: UniPoly
    Q: UniPoly

    def coeff_matrix(self, m: int) -> tuple[tuple[Fraction, Fraction], ...]:
        """The 2x2 coefficient A_m of z^m, nonzero only for -a <= m <= 0."""
        t = m + self.a
        return (
            (self.F.coeff(t), self.D.coeff(t)),
            (self.R.coeff(t), self.Q.coeff(t)),
        )

    def det_is_one(self) -> bool:
        return (self.Q * self.F - self.R * self.D) == UniPoly.monomial(2 * self.a)


def g_matrix(Q: UniPoly, R: UniPoly) -> GMatrix:
    F, D = bezout_complete(Q, R)
    return GMatrix(a=Q.degree, F=F, D=D, R=R, Q=Q)


# -- boundary, divisor, shift ----------------------------------------------


def boundary_equation_sl2(pt: ZastavaPoint) -> Fraction:
    """The full principal Hankel minor C_a of the point's series; vanishes
    exactly when gcd(Q, R) != 1."""
    if not pt.is_sl2:
        raise ValueError("boundary equation implemented for SL2 only")
    a = pt.degrees[0]
    return hankel_minor_C(pt.series(0, 2 * a - 1), a)


def factorization_divisor(pt: ZastavaPoint) -> tuple[tuple[Fraction, ...], ...]:
    """The colored multiset of Q-roots, per color, sorted."""
    if not pt.has_coords:
        raise ValueError("coordinate form absent; divisor not available")
    return tuple(tuple(sorted(ws)) for ws in pt.w)


def eta_shift(pt: ZastavaPoint, i: int) -> ZastavaPoint:
    """The shift automorphism on color i: R_i -> z*R_i - r_{i,a_i-1}*Q_i.

    Q is unchanged; on coordinates y_{i,r} -> w_{i,r} * y_{i,r}.  Requires
    the trigonometric tier, which the shift preserves.
    """
    if pt.tier is not Tier.TRIGONOMETRIC:
        raise ValueError("eta shift is defined on the trigonometric tier")
    newR = pt.R[i].shift(1) - pt.Q[i] * pt.R[i].coeff(pt.degrees[i] - 1)
    y = pt.y and (*pt.y[:i], tuple(map(newR, pt.w[i])), *pt.y[i + 1:])
    out = _trusted(pt.datum, pt.Q, (*pt.R[:i], newR, *pt.R[i + 1:]), pt.w, y)
    if out.tier is not Tier.TRIGONOMETRIC:
        raise AssertionError("eta shift left the trigonometric tier")
    return out


# -- chart coordinates ------------------------------------------------------


def chart(degrees: Sequence[int], extended: bool = False) -> dict[str, tuple[str, int, int]]:
    """The chart's coordinate names in chart order, each mapped to (kind,
    color, index): per color (numbered from 1) its w, then its y, then B_i
    when extended; "w3_2" -> ("w", 3, 2), "B3" -> ("B", 3, 0)."""
    out = {}
    for i, a in enumerate(degrees, start=1):
        out.update({f"w{i}_{r}": ("w", i, r) for r in range(1, a + 1)})
        out.update({f"y{i}_{r}": ("y", i, r) for r in range(1, a + 1)})
        if extended:
            out[f"B{i}"] = ("B", i, 0)
    return out


def coordinate_ring(degrees: Sequence[int]) -> Ring:
    """Ring over the chart coordinates w_{i,r}, y_{i,r}, in chart order."""
    return Ring(tuple(chart(degrees)))


def coordinate_assignment(pt: ZastavaPoint) -> dict[str, Fraction]:
    """Map the chart coordinates, in chart order, to the point's values."""
    if not pt.has_coords:
        raise ValueError("coordinate form required")
    return {c: (pt.w if k == "w" else pt.y)[i - 1][r - 1]
            for c, (k, i, r) in chart(pt.degrees).items()}

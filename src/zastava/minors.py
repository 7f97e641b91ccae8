"""Minors of the semi-infinite wedge matrix attached to a loop-group point.

The 2x2 Laurent matrix g = z^(-a) (F, D; R, Q) acts on a Z-indexed space
with basis vectors labeled j = 2k + r (r in {1, 2}); the matrix entry in
row j' = 2k' + r', column j = 2k + r is the (r', r) entry of the Laurent
coefficient A_{k - k'} of g.  Two families of finite windows of this
matrix give the Hankel minors of the series expansion of R/Q at infinity
in closed form: C_r = det(_window_C(r)) and D_r = (-1)^r det(_window_D(r)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .linalg import (
    ExactMatrix,
    _det_int,
    hankel_minor_C,
    hankel_minor_D,
    subresultant_even,
    subresultant_odd,
)
from .points import GMatrix
from .series import series_expand
from .unipoly import UniPoly


def wedge_entry(g: GMatrix, row: int, col: int) -> Fraction:
    """The entry of the infinite matrix at basis labels (row, col).

    A label j encodes (k, r) with j = 2k + r and r in {1, 2}; the entry is
    (A_{k - k'})_{r', r} for row label j' and column label j.
    """
    poly, t = _entry_source(g, _split(row), _split(col))
    return poly.coeff(t)


def _entry_source(
    g: GMatrix, row: tuple[int, int], col: tuple[int, int]
) -> tuple[UniPoly, int]:
    """The polynomial of g and the index of its coefficient at the split
    labels row = (k', r'), col = (k, r): the entry (A_{k-k'})_{r', r} is the
    coefficient of z^(k - k' + a) in F, D, R or Q, where r' picks the pair
    (F, D) or (R, Q) and r one of the pair."""
    (kp, rp), (k, r) = row, col
    return _row_pair(g, rp)[r - 1], k - kp + g.a


def _row_pair(g: GMatrix, rp: int) -> tuple[UniPoly, UniPoly]:
    return (g.F, g.D) if rp == 1 else (g.R, g.Q)


def _split(j: int) -> tuple[int, int]:
    # j = 2k + r with r in {1, 2}
    r = 1 if j % 2 == 1 else 2
    return (j - r) // 2, r


@dataclass(frozen=True)
class WedgeWindow:
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def matrix(self, g: GMatrix) -> ExactMatrix:
        self._check_square()
        return ExactMatrix(
            [[wedge_entry(g, rj, cj) for cj in self.cols] for rj in self.rows]
        )

    def determinant(self, g: GMatrix) -> Fraction:
        """det of the window on integer rows: each row is scaled by the lcm
        of the denominators of its pair, (F, D) or (R, Q)."""
        self._check_square()
        cols = [_split(cj) for cj in self.cols]
        rows = []
        scales = []
        for row in map(_split, self.rows):
            pair = _row_pair(g, row[1])
            s = lcm(pair[0].den, pair[1].den)
            entries = []
            for col in cols:
                poly, t = _entry_source(g, row, col)
                entries.append(poly.nums[t] * (s // poly.den) if 0 <= t < len(poly.nums) else 0)
            rows.append(entries)
            scales.append(s)
        return Fraction(_det_int(rows), prod(scales))

    def _check_square(self) -> None:
        if len(self.rows) != len(self.cols):
            raise ValueError("window is not square")


# -- the two windows -------------------------------------------------------
#
# Rows run over the even labels in an interval around 0.  The C window's
# columns are the tail {0, -1, ..., -2r+1}; the D window adjoins label 2 and
# one more even row.  Their determinants are the Hankel minors with fixed
# signs: C_r = +det(_window_C(r)) and D_r = (-1)^r det(_window_D(r)).  Both
# signs were checked against hankel_minor_C/D for every r <= a at degrees
# a = 1..8 (tests/test_minors.py pins them).


def _window_C(r: int) -> WedgeWindow:
    rows = tuple(range(-2 * r + 2, 2 * r + 1, 2))
    cols = tuple([0] + [-t for t in range(1, 2 * r)])
    return WedgeWindow(rows, cols)


def _window_D(r: int) -> WedgeWindow:
    rows = tuple(range(-2 * r + 2, 2 * r + 3, 2))
    cols = tuple([2, 0] + [-t for t in range(1, 2 * r)])
    return WedgeWindow(rows, cols)


def _g_for_minors(Q: UniPoly, R: UniPoly) -> GMatrix:
    """g(Q, R) with zero F, D rows.  The two windows only read rows with
    even labels, which carry R/Q coefficients, so the minors need no Bezout
    completion and boundary points (gcd != 1 or Q(0) = 0) have them too."""
    return GMatrix(a=Q.degree, F=UniPoly.zero(), D=UniPoly.zero(), R=R, Q=Q)


def _point_qr(point) -> tuple[UniPoly, UniPoly]:
    if point.datum.rank != 1:
        raise ValueError("wedge minors implemented for rank-one points only")
    return point.Q[0], point.R[0]


def generalized_minor_v1(point, r: int) -> Fraction:
    """The index-r wedge minor equal to the Hankel minor C_r."""
    Q, R = _point_qr(point)
    return _window_C(r).determinant(_g_for_minors(Q, R))


def generalized_minor_v0(point, r: int) -> Fraction:
    """The index-r wedge minor equal to the Hankel minor D_r."""
    Q, R = _point_qr(point)
    return (-1) ** r * _window_D(r).determinant(_g_for_minors(Q, R))


def crosscheck_three_routes(point) -> dict:
    """Compare Hankel, sub-resultant, and wedge values for one point.

    Returns per-index records for both families (C_1..C_a, then
    D_1..D_{a-1}) and an agreement flag: true iff at every index
    hankel == signed wedge == subresultant, where the signed wedge is
    +det(_window_C(r)) for C_r and (-1)^r det(_window_D(r)) for D_r.  A
    record holds the three values, the raw window determinant as the
    wedge value, and the closed-form signs that relate the wedge and the
    sub-resultant to the Hankel minor (None where the Hankel minor is 0).
    """
    Q, R = _point_qr(point)
    a = Q.degree
    c = series_expand(R, Q, 2 * a + 1)
    g = _g_for_minors(Q, R)
    families = (
        ("C", range(1, a + 1), hankel_minor_C, _window_C,
         lambda r: subresultant_odd(Q, R, a - r)),
        ("D", range(1, a), hankel_minor_D, _window_D,
         lambda r: subresultant_even(Q, R, a - r - 1)),
    )
    records = []
    ok = True
    for family, indices, hankel_minor, window, subresultant in families:
        for r in indices:
            hank = hankel_minor(c, r)
            wedge = window(r).determinant(g)
            subr = subresultant(r)
            sign = (-1) ** r if family == "D" else 1
            ok &= hank == sign * wedge == subr
            records.append({
                "family": family,
                "index": r,
                "hankel": hank,
                "wedge": wedge,
                "subresultant": subr,
                "wedge_sign": sign if hank else None,
                "subresultant_sign": 1 if hank else None,
            })
    return {"agree": bool(ok), "records": records}

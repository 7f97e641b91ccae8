"""Minors of the semi-infinite wedge matrix attached to a loop-group point.

The 2x2 Laurent matrix g = z^(-a) (F, D; R, Q) acts on a Z-indexed space
with basis vectors labeled j = 2k + r (r in {1, 2}); the matrix entry in
row j' = 2k' + r', column j = 2k + r is the (r', r) entry of the Laurent
coefficient A_{k - k'} of g.  Two families of finite windows of this
matrix give the Hankel minors of the series expansion of R/Q at infinity
in closed form: C_r = det(_window_C(r)) and D_r = (-1)^r det(_window_D(r)).

The three-route crosscheck reads each family of each route from one
integer Bareiss pass (``linalg._leading_minors``) over the route's largest
matrix, rows and columns ordered centre-out (``_centre_out``) so that the
minors it needs are leading ones: Hankel [e_{j+k+off}] on the series
numerators, pivot_r / (R.den^r Q.den^(r(r+off))); the Sylvester rows and
columns for C, and for D the rows without the middle one and the first
2a-2 columns (sign +1 both); the rows of _window_C(a) (sign +1) and of
_window_D(a-1) (size 2r+1 of sign (-1)^r, cancelling the closed form's).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .linalg import ExactMatrix, _det_int, _leading_minors, _sylvester_rows
from .points import GMatrix
from .series import series_numerators
from .unipoly import UniPoly


def wedge_entry(g: GMatrix, row: int, col: int) -> Fraction:
    """The entry of the infinite matrix at basis labels (row, col).

    A label j encodes (k, r) with j = 2k + r and r in {1, 2}; the entry is
    (A_{k - k'})_{r', r} for row label j' and column label j, the
    coefficient of z^(k - k' + a) in F, D, R or Q, where r' picks the pair
    (F, D) or (R, Q) and r one of the pair.
    """
    (kp, rp), (k, r) = _split(row), _split(col)
    return _row_pair(g, rp)[r - 1].coeff(k - kp + g.a)


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
        rows, scales = self._int_rows(g)
        return Fraction(_det_int(rows), prod(scales))

    def _int_rows(self, g: GMatrix) -> tuple[list[list[int]], list[int]]:
        """The window's rows as integers, and the scale of each row."""
        self._check_square()
        cols = [_split(cj) for cj in self.cols]
        rows, scales = [], []
        for kp, rp in map(_split, self.rows):
            pair = _row_pair(g, rp)
            s = lcm(pair[0].den, pair[1].den)
            t = g.a - kp  # column (k, r) reads z^(k + t) of pair[r - 1]
            rows.append([pair[r - 1].nums[k + t] * (s // pair[r - 1].den)
                         if 0 <= k + t < len(pair[r - 1].nums) else 0 for k, r in cols])
            scales.append(s)
        return rows, scales

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


def _centre_out(items: Sequence) -> list:
    """The items by distance from the middle of the list, the left one first
    on a tie.  From an ascending list of even length every prefix is sorted
    by an even permutation; of odd length, the prefix of size 2r+1 by one of
    sign (-1)^r (each item put on the left passes all before it)."""
    n = len(items)
    return [items[i] for i in sorted(range(n), key=lambda i: (abs(2 * i - n + 1), i))]


def crosscheck_three_routes(point) -> dict:
    """Compare Hankel, sub-resultant, and wedge values for one point.

    Returns per-index records for both families (C_1..C_a, then
    D_1..D_{a-1}) and an agreement flag: true iff at every index
    hankel == signed wedge == subresultant, where the signed wedge is
    +det(_window_C(r)) for C_r and (-1)^r det(_window_D(r)) for D_r.  A
    record holds the three values, the raw window determinant as the
    wedge value, and the closed-form signs that relate the wedge and the
    sub-resultant to the Hankel minor (None where the Hankel minor is 0).
    Each route reads a family from the leading minors of one matrix (see
    the module docstring).
    """
    Q, R = _point_qr(point)
    a = Q.degree
    qd, rd, s = Q.den, R.den, lcm(Q.den, R.den)
    e = series_numerators(R, Q, 2 * a - 1)
    g = _g_for_minors(Q, R)
    odd, even = _centre_out(range(2 * a - 1)), _centre_out(range(2 * a - 2))
    records = []
    ok = True
    for family, n, off, window, rows, cols in (
        ("C", a, 0, _window_C, odd, odd),
        ("D", a - 1, 1, _window_D, [t + (t >= a - 1) for t in even], even),  # skip row a-1
    ):
        if not n:
            break
        hank = _leading_minors([e[j + off : j + off + n] for j in range(n)])
        subr = _leading_minors([[row[c] for c in cols] for row in _sylvester_rows(Q, R, rows)[0]])
        w = window(n)
        wedge = _leading_minors(WedgeWindow(tuple(_centre_out(w.rows)), w.cols)._int_rows(g)[0])
        for r in range(1, n + 1):
            m = 2 * r - 1 + off  # sub-resultant size; the window has one more row
            sign = (-1) ** (r * off)
            hv = Fraction(hank[r - 1], rd**r * qd ** (r * (r + off)))
            wv = sign * Fraction(wedge[m], s ** (m + 1))
            sv = Fraction(subr[m - 1], qd ** (m - r) * rd**r)
            ok &= hv == sign * wv == sv
            records.append({
                "family": family,
                "index": r,
                "hankel": hv,
                "wedge": wv,
                "subresultant": sv,
                "wedge_sign": sign if hv else None,
                "subresultant_sign": 1 if hv else None,
            })
    return {"agree": bool(ok), "records": records}

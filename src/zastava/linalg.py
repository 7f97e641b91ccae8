"""Exact matrices, determinant strategies, and structured determinants.

Covers the two cross-checking determinant routes (fraction-free Bareiss
on an integer lift, and cofactor expansion with memoization, which takes
ring entries and is the test reference), Hankel matrices/minors of a
Laurent series, the Sylvester matrix in the row arrangement used
throughout this package, and the odd/even sub-resultant minors cut from
it.  One Bareiss step on integer rows, ``_eliminate``, runs behind
``_det_int`` (with row swaps: ``det``, ``solve_linear`` on the augmented
rows, the per-index Hankel minors, sub-resultants and wedge windows) and
``_leading_minors`` (without: all leading principal minors from one pass,
as the three-route crosscheck of ``zastava.minors`` reads them).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Callable, Sequence

from .series import InfSeries
from .unipoly import UniPoly

SYMBOLIC_COFACTOR_CAP = 6


@dataclass(frozen=True)
class ExactMatrix:
    """Matrix of exact entries: Fractions, or MultiRats in symbolic mode."""

    entries: tuple[tuple[object, ...], ...]

    def __init__(self, rows: Sequence[Sequence[object]]):
        tup = tuple(tuple(r) for r in rows)
        if tup and any(len(r) != len(tup[0]) for r in tup):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", tup)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, rc: tuple[int, int]) -> object:
        return self.entries[rc[0]][rc[1]]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix([[self.entries[i][j] for j in cols] for i in rows])


# -- determinant strategies ---------------------------------------------


def _eliminate(a: list[list[int]], k: int, prev: int) -> None:
    """Bareiss step k in place: right of column k, each entry x of a row
    below k becomes (x p - f y) / prev, p = a[k][k], f the row's entry in
    column k, y the pivot row's entry above x; exact, since by Sylvester's
    identity the quotient is a minor."""
    pk = a[k]
    p = pk[k]
    for ri in a[k + 1 :]:
        f = ri[k]
        for j in range(k + 1, len(ri)):
            ri[j] = (ri[j] * p - f * pk[j]) // prev


def _det_int(rows: list[list[int]]) -> int:
    """Determinant of the leading n x n block of n integer rows, by
    fraction-free Bareiss elimination with row swaps; ``rows`` is
    overwritten.  Columns past n ride along with the block, so the rows of
    an augmented system [A | b] come out in triangular form."""
    n = len(rows)
    if n == 0:
        return 1
    a = rows
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        _eliminate(a, k, prev)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _leading_minors(rows: list[list[int]]) -> list[int]:
    """The leading principal minors M_1..M_n of n integer rows, which are
    overwritten: the pivots of one Bareiss pass without row swaps
    (Sylvester's identity).  At a zero pivot after k steps, the block of
    rows and columns k..s-1 has determinant M_s prev^(s-k-1), prev the last
    pivot (1 at k = 0), and ``_det_int`` takes it for each larger s."""
    out = []
    prev = 1
    for k in range(len(rows)):
        p = rows[k][k]
        out.append(p)
        if p == 0:
            out += [_det_int([row[k:s] for row in rows[k:s]]) // prev ** (s - k - 1)
                    for s in range(k + 2, len(rows) + 1)]
            break
        _eliminate(rows, k, prev)
        prev = p
    return out


def _det_bareiss(m: ExactMatrix) -> Fraction:
    """Bareiss on a common-denominator integer lift."""
    n = m.rows
    if n == 0:
        return Fraction(1)
    denlcm = lcm(*(x.denominator for row in m.entries for x in row))
    a = [[x.numerator * (denlcm // x.denominator) for x in row] for row in m.entries]
    return Fraction(_det_int(a), denlcm**n)


def _det_cofactor(m: ExactMatrix) -> object:
    """Cofactor expansion memoized over column subsets; entry-type generic."""
    n = m.rows
    if n == 0:
        return Fraction(1)
    cache: dict[tuple[int, ...], object] = {}

    def minor(row: int, cols: tuple[int, ...]) -> object:
        if len(cols) == 1:
            return m.entries[row][cols[0]]
        if cols in cache:  # row = n - len(cols) on every call
            return cache[cols]
        acc = None
        for pos, c in enumerate(cols):
            e = m.entries[row][c]
            rest = cols[:pos] + cols[pos + 1 :]
            term = e * minor(row + 1, rest)
            if pos % 2:
                term = -term
            acc = term if acc is None else acc + term
        cache[cols] = acc
        return acc

    return minor(0, tuple(range(n)))


_STRATEGIES: dict[str, Callable[[ExactMatrix], object]] = {
    "bareiss": _det_bareiss,
    "cofactor": _det_cofactor,
}


def det(m: ExactMatrix, strategy: str = "bareiss") -> object:
    """Exact determinant; ``strategy`` in {bareiss, cofactor}.

    Bareiss runs on a common-denominator integer lift of the entries.
    Matrices with symbolic (MultiRat) entries must use the cofactor
    strategy and are capped at 6x6.
    """
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown determinant strategy {strategy!r}")
    symbolic = any(
        not isinstance(x, (Fraction, int)) for row in m.entries for x in row
    )
    if symbolic:
        if strategy != "cofactor":
            raise ValueError("symbolic-mode determinants require the cofactor strategy")
        if m.rows > SYMBOLIC_COFACTOR_CAP:
            raise ValueError(
                f"symbolic determinant capped at {SYMBOLIC_COFACTOR_CAP}x{SYMBOLIC_COFACTOR_CAP}"
            )
    return _STRATEGIES[strategy](m)


def solve_linear(a: ExactMatrix, b: Sequence[Fraction]) -> list[Fraction]:
    """Solve a*x = b exactly; raises on singular a.

    Each equation is scaled to integers by the lcm of its denominators, and
    ``_det_int`` reduces the augmented rows [A | b] to triangular form while
    it takes the determinant D of the integer system.  Back substitution
    runs on the integers y = D*x, which Cramer's rule makes integral.
    """
    if not a.is_square or a.rows != len(b):
        raise ValueError("dimension mismatch in linear solve")
    n = a.rows
    aug = []
    for row, v in zip(a.entries, b):
        row = [*row, v]
        den = lcm(*(x.denominator for x in row))
        aug.append([x.numerator * (den // x.denominator) for x in row])
    d = _det_int(aug)
    if d == 0:
        raise ValueError("singular linear system")
    y = [0] * n
    for i in range(n - 1, -1, -1):
        acc = d * aug[i][n] - sum(aug[i][j] * y[j] for j in range(i + 1, n))
        y[i] = acc // aug[i][i]
    return [Fraction(v, d) for v in y]


# -- Hankel matrices and minors -------------------------------------------


def hankel_matrix(c: InfSeries, size: int) -> ExactMatrix:
    """The size x size matrix with entry (j,k) = c_{j+k}."""
    cs = _hankel_coeffs(c, size, 0)
    return ExactMatrix([cs[j : j + size] for j in range(size)])


def hankel_minor_C(c: InfSeries, r: int) -> Fraction:
    """Principal r x r Hankel minor, det [c_{j+k}]_{j,k=0}^{r-1}."""
    return _hankel_minor(c, r, 0)


def hankel_minor_D(c: InfSeries, r: int) -> Fraction:
    """Shifted r x r Hankel minor, det [c_{j+k+1}]_{j,k=0}^{r-1}."""
    return _hankel_minor(c, r, 1)


def _hankel_coeffs(c: InfSeries, size: int, offset: int) -> tuple[Fraction, ...]:
    """The entries c_offset .. c_{offset+2size-2} of [c_{j+k+offset}]."""
    if size < 1:
        raise ValueError("minor size must be >= 1")
    need = 2 * size - 1 + offset
    if c.order < need:
        raise ValueError(f"need {need} series coefficients, have {c.order}")
    return c.coeffs[offset:need]


def _hankel_minor(c: InfSeries, size: int, offset: int) -> Fraction:
    """det [c_{j+k+offset}] on the integers c_j d, d the lcm of their
    denominators."""
    cs = _hankel_coeffs(c, size, offset)
    d = lcm(*(x.denominator for x in cs))
    ns = [x.numerator * (d // x.denominator) for x in cs]
    return Fraction(_det_int([ns[j : j + size] for j in range(size)]), d**size)


# -- Sylvester arrangement and sub-resultants ------------------------------


def _sylvester_rows(Q: UniPoly, R: UniPoly, rows: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """Rows ``rows`` (0-based) of sylvester_matrix(Q, R) as integer
    numerators, and their denominators (Q.den for Q-rows, R.den for R-rows)."""
    a = Q.degree
    if a is None or a < 1:
        raise ValueError("Q must have degree >= 1")
    if not Q.is_monic:
        raise ValueError("Q must be monic")
    if not R.is_zero and R.degree >= a:
        raise ValueError("R must have degree < deg Q")
    # Q-row t (t = 0..a-2) holds q_a = Q.den, ..., q_0 from column t on;
    # R-row t (t = a-1..2a-2) holds r_{a-1}, ..., r_0 from column 2a-2-t on
    q = list(Q.nums[::-1])
    r = [0] * (a - len(R.nums)) + list(R.nums[::-1])
    out = [[0] * t + q + [0] * (a - 2 - t) if t < a - 1 else [0] * (2 * a - 2 - t) + r + [0] * (t - a + 1)
           for t in rows]
    return out, [Q.den if t < a - 1 else R.den for t in rows]


def sylvester_matrix(Q: UniPoly, R: UniPoly) -> ExactMatrix:
    """(2a-1) x (2a-1) Sylvester matrix of a monic Q (deg a) and R (deg < a).

    Rows 1..a-1 carry shifted (1, q_{a-1}, ..., q_0); rows a..2a-1 carry the
    R coefficients with r_{a-1} starting at column a and marching left, so
    the bottom row is (r_{a-1}, ..., r_0, 0, ..., 0).
    """
    rows, dens = _sylvester_rows(Q, R, range(2 * len(Q.nums) - 3))  # 2a - 1 rows
    return ExactMatrix([[Fraction(x, d) for x in row] for row, d in zip(rows, dens)])


def _sylvester_minor(Q: UniPoly, R: UniPoly, rows: Sequence[int], cols: slice) -> Fraction:
    """det of sylvester_matrix(Q, R) cut to rows x cols, on the numerators."""
    kept, dens = _sylvester_rows(Q, R, rows)
    return Fraction(_det_int([row[cols] for row in kept]), prod(dens))


def subresultant_odd(Q: UniPoly, R: UniPoly, i: int) -> Fraction:
    """Central minor of the Sylvester matrix with i rows/columns removed on
    every side (size 2a-1-2i)."""
    a = Q.degree
    if a is None:
        raise ValueError("Q must be nonzero")
    if not 0 <= i <= a - 1:
        raise ValueError(f"odd sub-resultant index {i} out of range for a={a}")
    return _sylvester_minor(Q, R, range(i, 2 * a - 1 - i), slice(i, 2 * a - 1 - i))


def subresultant_even(Q: UniPoly, R: UniPoly, i: int) -> Fraction:
    """Minor of the Sylvester matrix with the middle row removed, i rows
    trimmed top and bottom, i columns on the left and i+1 on the right
    (size 2a-2-2i)."""
    a = Q.degree
    if a is None:
        raise ValueError("Q must be nonzero")
    if not 0 <= i <= a - 2:
        raise ValueError(f"even sub-resultant index {i} out of range for a={a}")
    middle = a - 1  # 0-based index of the first R-row
    rows = [r for r in range(i, 2 * a - 1 - i) if r != middle]
    return _sylvester_minor(Q, R, rows, slice(i, 2 * a - 2 - i))

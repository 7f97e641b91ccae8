"""Cluster seeds, mutation, and log-canonicity testing.

An exchange matrix has one row per seed position and one column per
exchangeable position.  For rank-one points the initial seed consists of
the Hankel-minor functions of the series expansion, D_m at position 2m - 1
and C_m at 2m, with D_a and C_a frozen; its exchange matrix is a closed form
(``initial_seed_sl2``) compatible with the trigonometric Poisson bracket.

Seeds are evaluated at points as exact jets (value and gradient); the
symbolic chart functions are built only on request.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Optional, Sequence

from .jet import Jet, leading_minors_jet, series_jets
from .linalg import SYMBOLIC_COFACTOR_CAP, ExactMatrix, det
from .multirat import MultiRat
from .points import Tier, ZastavaPoint, coordinate_ring
from .poisson import BracketTable
from .series import series_coefficients

JetEvaluator = Callable[[Mapping[str, Fraction], Sequence[str]], tuple[Jet, ...]]


@dataclass(frozen=True)
class ExchangeMatrix:
    """Rectangular integer matrix: rows are the seed positions 1..length,
    columns the exchangeable positions."""

    length: int
    columns: tuple[int, ...]
    data: tuple[tuple[int, ...], ...]  # shape (length, len(columns))

    def __post_init__(self):
        if len(self.data) != self.length:
            raise ValueError("row count mismatch")
        for row in self.data:
            if len(row) != len(self.columns):
                raise ValueError("column count mismatch")

    def entry(self, s: int, r: int) -> int:
        """b_{s,r} for 1-based positions; zero when r is not a column.
        Raises ValueError for a position outside 1..length."""
        if not (1 <= s <= self.length and 1 <= r <= self.length):
            raise ValueError(f"positions ({s}, {r}) outside 1..{self.length}")
        if r not in self.columns:
            return 0
        return self.data[s - 1][self.columns.index(r)]

    def mutate(self, k: int) -> "ExchangeMatrix":
        """Standard matrix mutation at an exchangeable position k."""
        if k not in self.columns:
            raise ValueError(f"position {k} is not exchangeable")
        kc = self.columns.index(k)
        kr = k - 1
        new = []
        for i in range(self.length):
            row = []
            for j, col in enumerate(self.columns):
                b = self.data[i][j]
                if i == kr or col == k:
                    row.append(-b)
                else:
                    bik = self.data[i][kc]
                    bkj = self.data[kr][j]
                    s = 1 if bik > 0 else (-1 if bik < 0 else 0)
                    row.append(b + s * max(0, bik * bkj))
            new.append(tuple(row))
        return ExchangeMatrix(self.length, self.columns, tuple(new))


class Seed:
    """Cluster variables (chart functions) with their exchange matrix.

    Checks at sample points read the variables through ``jets``: exact
    values and gradients at a point (see ``zastava.jet``).  The symbolic
    chart functions (``MultiRat``) are ``variables``; they are given either
    as a tuple or as a zero-argument function that builds the tuple the
    first time ``variables`` is read.  ``initial_seed_sl2`` and ``mutate``
    pass such a builder together with a closed-form ``jets`` evaluator, so
    their seeds build no symbolic variables unless asked.  Without an
    evaluator, each variable is evaluated at the coordinate jets.
    """

    # set by ``mutate``: the seed mutated from and the exchanges made since
    _origin: Optional[tuple["Seed", tuple]] = None

    def __init__(self, labels: Sequence[str],
                 variables: Sequence[MultiRat] | Callable[[], Sequence[MultiRat]],
                 matrix: ExchangeMatrix,
                 jets: Optional[JetEvaluator] = None):
        self.labels = tuple(labels)
        self.matrix = matrix
        if len(self.labels) != matrix.length:
            raise ValueError("one variable per seed position required")
        if callable(variables):
            self._build, self._variables = variables, None
        else:
            self._build, self._variables = None, self._checked(variables)
        self._jets = jets

    def _checked(self, variables: Sequence[MultiRat]) -> tuple[MultiRat, ...]:
        variables = tuple(variables)
        if len(variables) != self.matrix.length:
            raise ValueError("one variable per seed position required")
        return variables

    @property
    def variables(self) -> tuple[MultiRat, ...]:
        if self._variables is None:
            self._variables = self._checked(self._build())
        return self._variables

    def jets(self, point: Mapping[str, Fraction], coords: Sequence[str]) -> tuple[Jet, ...]:
        """Each variable's exact value and gradient over ``coords`` at
        ``point``; raises ZeroDivisionError where a variable is undefined."""
        if self._jets is not None:
            return self._jets(point, coords)
        at = {name: Jet.coordinate(name, point, coords) for name in point}
        # adding the zero jet turns a constant variable's Fraction into a jet
        zero = Jet.constant(0, len(coords))
        return tuple(zero + v.evaluate(at) for v in self.variables)

    @property
    def frozen(self) -> tuple[int, ...]:
        return tuple(
            s for s in range(1, self.matrix.length + 1) if s not in self.matrix.columns
        )

    @property
    def exchangeable(self) -> tuple[int, ...]:
        return self.matrix.columns

    def variable(self, s: int) -> MultiRat:
        return self.variables[s - 1]


def mutate(seed: Seed, k: int) -> Seed:
    """Mutate at exchangeable position k: new matrix by the standard rule,
    x_k replaced by the exchange binomial divided by x_k.  The rule is
    applied to jets at a point, or to the symbolic variables when those are
    read, in one loop over the exchanges made since the unmutated seed."""
    if not 1 <= k <= seed.matrix.length:
        raise ValueError(f"position {k} is outside the seed's positions 1..{seed.matrix.length}")
    if k not in seed.matrix.columns:
        raise ValueError(f"position {k} is frozen; mutation undefined")
    kc = seed.matrix.columns.index(k)
    start, steps = seed._origin or (seed, ())
    steps += ((k, [row[kc] for row in seed.matrix.data]),)

    def replay(xs):
        for p, column in steps:
            plus = minus = 1
            for x, b in zip(xs, column):
                if b > 0:
                    plus = plus * x**b
                elif b < 0:
                    minus = minus * x ** (-b)
            xs = (*xs[:p - 1], (plus + minus) / xs[p - 1], *xs[p:])
        return xs

    labels = list(seed.labels)
    labels[k - 1] = f"mu_{k}({seed.labels[k - 1]})"
    out = Seed(labels, lambda: replay(start.variables), seed.matrix.mutate(k),
               jets=lambda point, coords: replay(start.jets(point, coords)))
    out._origin = start, steps
    return out


# -- rank-one initial seed ---------------------------------------------------


def hankel_minors(c: Sequence, leading_minors: Callable[[list[list]], Sequence]) -> tuple:
    """(D_1, C_1, ..., D_a, C_a) for series coefficients c = (c_0, ..., c_{2a-1}):
    the size-m Hankel determinants of c (C offset 0, D offset 1).
    ``leading_minors`` takes the rows of the a x a Hankel matrix at one
    offset and returns its leading principal minors of sizes 1..a, so each
    offset is one call.  The number type is the caller's: the closed-form
    coefficients of ring variables (``series_coefficients``) with a cofactor
    determinant per block (``block_minors``) give the chart functions, and
    their jets at a point (``series_jets``) with ``leading_minors_jet`` (one
    Bareiss pass per offset) the jets of those functions."""
    a = len(c) // 2
    d, cc = (leading_minors([[c[j + k + offset] for k in range(a)] for j in range(a)])
             for offset in (1, 0))
    return tuple(x for pair in zip(d, cc) for x in pair)


def block_minors(determinant: Callable[[list[list]], object]) -> Callable[[list[list]], list]:
    """A ``leading_minors`` for ``hankel_minors`` that takes each leading
    block by ``determinant`` on its own rows."""
    return lambda rows: [determinant([row[:m] for row in rows[:m]])
                         for m in range(1, len(rows) + 1)]


def initial_seed_sl2(point: Optional[ZastavaPoint], a: int) -> Seed:
    """Seed for a rank-one point of degree a: variables
    [D_1, C_1, D_2, C_2, ..., D_a, C_a], D_m at position 2m - 1 and C_m at
    2m, with D_a and C_a frozen.  The exchange matrix is the first 2a - 2
    columns of the integer skew-symmetric B whose nonzero entries are
    b(D_m, C_m) = 2 for m < a, b(D_a, C_a) = 1, b(D_m, D_{m+1}) = 1,
    b(D_m, C_{m+1}) = -2, b(C_m, C_{m+1}) = 1, and their negatives at the
    transposed positions (b(D_a, C_a) lies in the frozen columns, which
    the exchange matrix leaves out).  With D_0 = C_0 = 1 the exchanges are
    D_m D_m' = D_{m-1} C_{m+1}^2 + C_m^2 D_{m+1} and
    C_m C_m' = C_{m-1} D_m^2 + D_{m-1}^2 C_{m+1}, and the seed is
    compatible with the trigonometric bracket: B~^T Omega = [I 0], with
    Omega the constants {x, x'}/(x x') of ``log_canonicity_check``.  Jets
    and the symbolic variables both come from ``hankel_minors``; the
    symbolic ones are built only when read, and reading them raises
    ValueError when a exceeds SYMBOLIC_COFACTOR_CAP, before any minor is
    built.
    """
    if a < 1:
        raise ValueError(f"degree a must be at least 1, not {a}")
    if point is not None:
        if not point.is_sl2 or point.degrees != (a,):
            raise ValueError("point must be rank-one of the given degree")
        if point.tier is not Tier.TRIGONOMETRIC:
            raise ValueError("point must lie on the trigonometric tier")
    n = 2 * a
    b = [[0] * n for _ in range(n)]
    for k in range(0, n - 2, 2):  # D_m in row k, C_m in row k + 1, for m < a
        for i, j, v in ((k, k + 1, 2), (k, k + 2, 1), (k, k + 3, -2), (k + 1, k + 3, 1)):
            b[i][j], b[j][i] = v, -v
    matrix = ExchangeMatrix(n, tuple(range(1, n - 1)), tuple(tuple(row[:n - 2]) for row in b))
    labels = []
    for m in range(1, a + 1):
        labels += [f"D_{m}", f"C_{m}"]

    w_names = [f"w1_{r}" for r in range(1, a + 1)]
    y_names = [f"y1_{r}" for r in range(1, a + 1)]

    def build() -> tuple[MultiRat, ...]:
        if a > SYMBOLIC_COFACTOR_CAP:
            raise ValueError(
                f"symbolic seed variables need {a}x{a} minors, above "
                f"SYMBOLIC_COFACTOR_CAP = {SYMBOLIC_COFACTOR_CAP}"
            )
        ring = coordinate_ring((a,))
        c = series_coefficients([ring.rat_var(w) for w in w_names],
                                [ring.rat_var(y) for y in y_names], 2 * a)
        return hankel_minors(c, block_minors(lambda rows: det(ExactMatrix(rows), strategy="cofactor")))

    def jets(pt: Mapping[str, Fraction], coords: Sequence[str]) -> tuple[Jet, ...]:
        return hankel_minors(series_jets(pt, coords, w_names, y_names, 2 * a), leading_minors_jet)

    return Seed(labels, build, matrix, jets=jets)


# -- log-canonicity ----------------------------------------------------------


# every distinct nonzero p/q with |p| <= 9, 1 <= q <= 4; sorted, so draws ignore the hash seed
_CHART_VALUES = tuple(sorted({Fraction(p, q) for p in range(-9, 10) for q in range(1, 5)} - {0}))
_MAX_REJECTED = 1000  # sample points a log-canonicity check may reject


def sample_chart_point(degrees: Sequence[int], rng: random.Random) -> dict[str, Fraction]:
    """Random admissible chart assignment over a degree vector: all w_{i,r}
    at once from ``_CHART_VALUES`` without replacement (so distinct and
    nonzero), then each y_{i,r} from the same table, keyed in the order of
    ``BracketTable.coordinates`` (per color, its w and then its y).  A
    degree sum above the table size raises ValueError before any draw."""
    total = sum(degrees)
    if total > len(_CHART_VALUES):
        raise ValueError(f"degrees {tuple(degrees)} need {total} distinct w, above the "
                         f"{len(_CHART_VALUES)} nonzero values the sampler draws")
    ws = iter(rng.sample(_CHART_VALUES, total))
    out = {}
    for i, a in enumerate(degrees, start=1):
        for r in range(1, a + 1):
            out[f"w{i}_{r}"] = next(ws)
        for r in range(1, a + 1):
            out[f"y{i}_{r}"] = rng.choice(_CHART_VALUES)
    return out


def log_canonicity_check(seed: Seed, table: BracketTable, trials: int = 5, rng: Optional[random.Random] = None) -> dict:
    """Test {x, x'}/(x x') for constancy across random admissible points.

    At each accepted point every variable is taken once as a jet (exact
    value and gradient over ``table.coordinates``, see ``Seed.jets``); the
    bracket of a pair is grad(x)^T Pi(p) grad(x') with Pi(p) the coordinate
    brackets at the point on ``table.support``, the nonzero ones only.  A jet
    is integers N = ``x.nums`` over one denominator D (``zastava.jet``), so
    grad(x) = N[1:]/D and x = N_0/D, and D cancels between the bracket and
    the product: {x, x'}/(x x') = (N[1:]^T Pi N'[1:]) / (N_0 N'_0).  Pi(p)
    is lifted to integers over the lcm L of its denominators once per
    point, so each pair costs integer products and one Fraction.  A point
    is rejected when a variable is zero or undefined there, and
    _MAX_REJECTED rejections raise ValueError naming the variables that
    vanished.  PASS iff every pair's value set is a singleton.
    """
    if rng is None:
        rng = random.Random(0)
    coords = table.coordinates
    pos = {c: k for k, c in enumerate(coords, start=1)}
    coord_pairs = [((pos[u], u), (pos[v], v)) for u, v in table.support]
    index_pairs = list(itertools.combinations(range(len(seed.labels)), 2))
    values: list[list[Fraction]] = [[] for _ in index_pairs]
    accepted = drawn = 0
    vanished: set[str] = set()
    while accepted < trials:
        if drawn - accepted == _MAX_REJECTED:
            raise ValueError(f"{_MAX_REJECTED} sample points rejected, {accepted} of {trials} "
                             f"accepted; vanished: {sorted(vanished, key=seed.labels.index)}")
        pt = sample_chart_point(table.degrees, rng)
        drawn += 1
        try:
            jets = seed.jets(pt, coords)
        except ZeroDivisionError:
            continue
        if zero := {s for s, x in zip(seed.labels, jets) if x.nums[0] == 0}:
            vanished |= zero
            continue
        accepted += 1
        pis = [(iu, iv, pi) for (iu, u), (iv, v) in coord_pairs
               if (pi := table.coordinate_bracket(u, v, pt))]
        lift = lcm(*(pi.denominator for _, _, pi in pis))
        pis = [(iu, iv, pi.numerator * (lift // pi.denominator)) for iu, iv, pi in pis]
        # h = L Pi^T N, indexed like N (entry 0 stays 0), so that L N^T Pi N' = h . N'
        hs = []
        for x in jets:
            h = [0] * (len(coords) + 1)
            for iu, iv, pi in pis:
                h[iv] += pi * x.nums[iu]
                h[iu] -= pi * x.nums[iv]
            hs.append(h)
        for vals, (i, j) in zip(values, index_pairs):
            br = sum(map(operator.mul, hs[i], jets[j].nums), 0)
            vals.append(Fraction(br, lift * jets[i].nums[0] * jets[j].nums[0]))
    pairs = []
    ok = True
    for vals, (i, j) in zip(values, index_pairs):
        constant = len(set(vals)) == 1
        ok &= constant
        pairs.append(
            {
                "pair": (seed.labels[i], seed.labels[j]),
                "values": vals,
                "constant": constant,
            }
        )
    return {"ok": ok, "trials": trials, "pairs": pairs}

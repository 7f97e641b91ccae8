"""Poisson structures on the coordinate charts, in two flavors.

A bracket table fixes, for a root datum and a degree vector, the pairwise
brackets of the chart coordinates w_{i,r}, y_{i,r} (and optionally the
leading coefficients B_i).  The rational flavor has {w, y} proportional to
y; the trigonometric flavor to w*y.  Everything downstream — the Jacobi
identity and the generating-series identities for the colored
polynomials — is checked symbolically in exact arithmetic.  The coordinate
brackets and the symplectic inverse are also stated at a point, where the
pointwise checks evaluate them without forming the rational functions.

The coordinate brackets that are not identically zero are stated once, in
closed form, by ``BracketTable.brackets``; every other reader takes them
from there.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial
from typing import Callable, Iterator, Optional, Sequence

from .linalg import ExactMatrix
from .multirat import MultiRat, Ring
from .points import chart
from .rootdata import RootDatum

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class BracketTable:
    """Pairwise coordinate brackets for one chart.

    kind is "rational" or "trigonometric"; with extended=True the chart
    also carries one coordinate B_i per color (Poisson-central in the
    rational flavor, scaling against y in the trigonometric one).
    """

    datum: RootDatum
    degrees: tuple[int, ...]
    kind: str
    extended: bool = False
    extra: tuple[str, ...] = ()
    ring: Ring = field(init=False, compare=False)
    index: dict[str, tuple[str, int, int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("rational", "trigonometric"):
            raise ValueError("kind must be rational or trigonometric")
        if len(self.degrees) != self.datum.rank:
            raise ValueError("one degree per color required")
        if any(a < 0 for a in self.degrees):
            raise ValueError(f"degrees must be nonnegative, not {tuple(self.degrees)}")
        if not any(self.degrees):  # an empty chart would pass every check unchecked
            raise ValueError(f"at least one degree must be positive, not {tuple(self.degrees)}")
        index = chart(self.degrees, self.extended)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "ring", Ring(tuple(index) + tuple(self.extra)))

    @cached_property
    def coordinates(self) -> tuple[str, ...]:
        return tuple(self.index)

    def var(self, name: str) -> MultiRat:
        return self.ring.rat_var(name)

    @cached_property
    def _zero(self) -> MultiRat:
        return self.ring.rat_const(0)

    def _chart(self, point: Optional[Mapping[str, Fraction]] = None) -> tuple[Callable, object]:
        """Coordinate functions and zero: ring variables, or values at ``point``."""
        if point is None:
            return self.var, self._zero
        return point.__getitem__, Fraction(0)

    def brackets(self, point: Optional[Mapping[str, Fraction]] = None) -> Iterator[tuple[str, str, object]]:
        """(a, b, {a, b}) for each pair a before b in chart order whose bracket
        is not identically zero, in the order of ``itertools.combinations``;
        the value is a rational function, or its value at ``point`` when given.

          {w_{i,r}, y_{i,r}} = d_i w y (trigonometric) or d_i y (rational);
          {y_{i,r}, B_i} = (d_i / 2) B_i y, on a trigonometric extended chart;
          {y_{i,r}, y_{j,s}} = P_ij K(w_{i,r}, w_{j,s}) y y' for colors i < j
            with P_ij != 0, K(x, x') = (x + x') / (2 (x - x')) (trigonometric)
            or 1 / (x - x') (rational).
        """
        x = self._chart(point)[0]
        d, P = self.datum.d, self.datum.pairing
        trig = self.kind == "trigonometric"
        with_B = trig and self.extended
        ys = [(c, j, s) for c, (k, j, s) in self.index.items() if k == "y"]
        for c, (k, i, r) in self.index.items():
            if k == "w":
                y = f"y{i}_{r}"
                yield c, y, d[i - 1] * (x(c) * x(y) if trig else x(y))
            elif k == "y":
                if with_B:
                    yield c, f"B{i}", Fraction(d[i - 1], 2) * x(f"B{i}") * x(c)
                for y, j, s in ys:
                    if j > i and (p := P[i - 1][j - 1]):
                        w1, w2 = x(f"w{i}_{r}"), x(f"w{j}_{s}")
                        num = (w1 + w2) * _HALF if trig else 1
                        yield c, y, p * num / (w1 - w2) * x(c) * x(y)

    def coordinate_bracket(self, a: str, b: str, point: Optional[Mapping[str, Fraction]] = None):
        """{a, b} for coordinate names a, b, read from ``rules``, or from
        ``brackets(point)`` when ``point`` is given; a name outside the chart
        raises ValueError."""
        for c in (a, b):
            if c not in self.index:
                raise ValueError(f"{c!r} is not a coordinate of the chart with degrees "
                                 f"{self.degrees}{' (extended)' if self.extended else ''}")
        values = self.rules if point is None else {(u, v): pi for u, v, pi in self.brackets(point)}
        if (a, b) in values:
            return values[a, b]
        if (b, a) in values:
            return -values[b, a]
        return self._chart(point)[1]

    def gradient(self, f: MultiRat) -> dict[str, MultiRat]:
        """The nonzero partials of f, as a {coordinate: partial} map."""
        return {c: f.diff(c) for c in self.coordinates if f.depends_on(c)}

    @cached_property
    def rules(self) -> dict[tuple[str, str], MultiRat]:
        """The symbolic ``brackets``, {(a, b): {a, b}}, formed once per table:
        a patch of ``brackets`` must be in place before the table's first
        read of them."""
        return {(a, b): r for a, b, r in self.brackets()}

    def pairing(self, df: Mapping[str, MultiRat], dg: Mapping[str, MultiRat]) -> MultiRat:
        """The bivector on two differentials given as {coordinate: partial}
        maps: the Leibniz sum of {a, b} (df_a dg_b - df_b dg_a) over ``rules``
        (the brackets that are not identically zero, formed at the table's
        first pairing), skipping a rule when neither product has both factors."""
        total = zero = self._zero
        for (a, b), rule in self.rules.items():
            term = df[a] * dg[b] if a in df and b in dg else zero
            if b in df and a in dg:
                term = term - df[b] * dg[a]
            if term is not zero:
                total = total + rule * term
        return total

    def bracket(self, f: MultiRat, g: MultiRat) -> MultiRat:
        """{f, g}, the pairing of the two gradients; ring variables beyond the
        coordinates (for example spectral parameters) are constants."""
        return self.pairing(self.gradient(f), self.gradient(g))


def jacobi_check(table: BracketTable, f: MultiRat, g: MultiRat, h: MultiRat) -> MultiRat:
    """The cyclic sum {f,{g,h}} + {g,{h,f}} + {h,{f,g}}; zero means pass."""
    br = table.bracket
    return br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))


def jacobi_report(table: BracketTable) -> dict:
    """Jacobi sums over every unordered triple of chart coordinates, as the
    Schouten sum of the bivector pi_ab = {x_a, x_b} = -pi_ba from ``rules``,
    each entry differentiated once: {x_a, {x_b, x_c}} = sum_d pi_ad d_d pi_bc."""
    zero = table._zero
    pi, dpi = {}, {}
    for (a, b), rule in table.rules.items():
        grad = table.gradient(rule)
        pi.setdefault(a, {})[b], dpi[a, b] = rule, grad
        pi.setdefault(b, {})[a], dpi[b, a] = -rule, {d: -v for d, v in grad.items()}

    def outer(a: str, b: str, c: str) -> MultiRat:  # {x_a, {x_b, x_c}}
        grad = dpi.get((b, c), {})
        return sum((p * grad[d] for d, p in pi.get(a, {}).items() if d in grad), zero)

    failures = [(a, b, c) for a, b, c in itertools.combinations(table.coordinates, 3)
                if not (outer(a, b, c) + outer(b, c, a) + outer(c, a, b)).is_zero]
    checked = math.comb(len(table.coordinates), 3)
    return {"ok": not failures, "checked": checked, "failures": failures}


def bivector_matrix(table: BracketTable, point: Optional[Mapping[str, Fraction]] = None) -> ExactMatrix:
    """Matrix of {x_a, x_b} over the chart coordinates, in chart order;
    symbolic, or at ``point`` when given.  Only the pairs of ``brackets``
    are formed; every other entry is zero."""
    return _antisymmetric(table, point, table.brackets(point))


def _antisymmetric(table: BracketTable, point, entries) -> ExactMatrix:
    """The matrix over the chart coordinates that is zero except for
    m[a][b] = v and m[b][a] = -v, for each (a, b, v) in entries."""
    pos = {c: k for k, c in enumerate(table.coordinates)}
    zero = table._chart(point)[1]
    rows = [[zero] * len(pos) for _ in pos]
    for a, b, v in entries:
        rows[pos[a]][pos[b]], rows[pos[b]][pos[a]] = v, -v
    return ExactMatrix(rows)


def symplectic_form_trig(table: BracketTable, point: Optional[Mapping[str, Fraction]] = None) -> ExactMatrix:
    """Closed-form inverse of the trigonometric bivector (B_i absent);
    symbolic, or at ``point`` when given.

    Nonzero blocks: the (y_{i,r}, w_{i,r}) pairing 1/(d_i w y), and the
    cross-color (w_{i,r}, w_{j,s}) entries
    (P_ij / (2 d_i d_j)) (w + w') / ((w - w') w w').
    """
    if table.kind != "trigonometric" or table.extended:
        raise ValueError("closed-form inverse stated for the plain trigonometric chart")
    d, P = table.datum.d, table.datum.pairing
    x = table._chart(point)[0]
    ws = [(c, i, r) for c, (k, i, r) in table.index.items() if k == "w"]
    entries = []
    for w, i, r in ws:
        y = f"y{i}_{r}"
        entries.append((w, y, -(Fraction(1, d[i - 1]) / (x(y) * x(w)))))
        for w2, j, _ in ws:
            if j > i:
                w1v, w2v = x(w), x(w2)
                coef = Fraction(P[i - 1][j - 1], 2 * d[i - 1] * d[j - 1])
                entries.append((w, w2, coef * (w1v + w2v) / ((w1v - w2v) * w1v * w2v)))
    return _antisymmetric(table, point, entries)


# the plain trigonometric table of a chart, built once per (datum, degrees)
_trig_table = lru_cache(maxsize=32)(partial(BracketTable, kind="trigonometric"))


def symplectic_check_trig(datum: RootDatum, degrees: Sequence[int], point: dict) -> dict:
    """Evaluate bivector and closed-form inverse at a point, which maps the
    coordinates to exact scalars (the w's distinct and nonzero, the y's
    nonzero); assert B*Omega = I.  A missing coordinate raises ValueError
    and a value that is not an int or a Fraction TypeError."""
    table = _trig_table(datum, tuple(degrees))
    coords = table.coordinates
    for c in coords:
        if c not in point:
            raise ValueError(f"the point has no value for the coordinate {c}")
        if not isinstance(point[c], (int, Fraction)):
            raise TypeError(f"the value {point[c]!r} of {c} is not an exact scalar")
    if any(point[c] == 0 for c in coords):
        raise ValueError("zero coordinate value")
    allw = [point[c] for c in coords if c.startswith("w")]
    if len(set(allw)) != len(allw):
        raise ValueError("coincident w values (the form has a pole)")
    n = len(coords)
    B = [list(row) for row in bivector_matrix(table, point).entries]
    Om = [list(row) for row in symplectic_form_trig(table, point).entries]
    # B * Omega over the nonzero entries only, each entry of the product
    # summed as an integer pair (num, den); a Fraction only for a failure
    om_rows = [[(j, v.numerator, v.denominator) for j, v in enumerate(row) if v] for row in Om]
    bad = []
    for i, row in enumerate(B):
        num, den = [0] * n, [1] * n
        for k, b in enumerate(row):
            if b:
                bn, bd = b.numerator, b.denominator
                for j, vn, vd in om_rows[k]:
                    num[j] = num[j] * bd * vd + bn * vn * den[j]
                    den[j] *= bd * vd
        bad += [(i, j, Fraction(x, d)) for j, (x, d) in enumerate(zip(num, den))
                if x != (d if i == j else 0)]
    return {"ok": not bad, "size": n, "bivector": B, "form": Om, "failures": bad}


# -- generating polynomials and the descent identities ----------------------


def colored_Q(table: BracketTable, i: int, param: str) -> MultiRat:
    """Q_i(param) = B_i * prod_r (param - w_{i,r}) as a chart function."""
    z = table.var(param)
    out = table.var(f"B{i + 1}") if table.extended else table.ring.rat_const(1)
    for r in range(1, table.degrees[i] + 1):
        out = out * (z - table.var(f"w{i + 1}_{r}"))
    return out


def colored_R(table: BracketTable, i: int, param: str) -> MultiRat:
    """R_i(param): the interpolant through (w_{i,r}, y_{i,r}), scaled by B_i."""
    z = table.var(param)
    a = table.degrees[i]
    total = table._zero
    for r in range(1, a + 1):
        term = table.var(f"y{i + 1}_{r}")
        wr = table.var(f"w{i + 1}_{r}")
        for s in range(1, a + 1):
            if s != r:
                ws = table.var(f"w{i + 1}_{s}")
                term = term * (z - ws) / (wr - ws)
        total = total + term
    if table.extended:
        total = total * table.var(f"B{i + 1}")
    return total


class _Lazy(Mapping):
    """A read-only {coordinate: partial} map whose callable entries are
    formed on their first read and kept; a membership test forms nothing."""

    def __init__(self, entries: dict):
        self._entries = entries

    def __getitem__(self, c: str) -> MultiRat:
        value = self._entries[c]
        if callable(value):
            value = self._entries[c] = value()
        return value

    def __contains__(self, c: object) -> bool:
        return c in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def verify_descent(datum: RootDatum, degrees: Sequence[int], kind: str) -> dict:
    """Symbolic verification that the coordinate brackets reproduce the
    generating-series brackets of the colored polynomials.

    QQ:  {Q_i(z), Q_j(u)} = 0 for spectral parameters z, u held constant.
    The other families are stated at the roots w_{i,p} of Q_i, where
    R_i(w_{i,p}) = B_i y_{i,p} identically; by the chain rule the
    differential of R_i(z) at z = w_{i,p} is
      dR_{i,p} = y_{i,p} dB_i + B_i dy_{i,p} - R_i'(w_{i,p}) dw_{i,p}.
    With K(x, y) = (x + y) / (2 (x - y)) (trigonometric) or 1 / (x - y):
      QR:  {Q_i(z), R_j(w_{j,q})} = -delta_ij d_i K(z, w_{j,q}) Q_i(z) B_j y_{j,q},
      RRx: for i != j, {dR_{i,p}, dR_{j,q}} = P_ij K(w_{i,p}, w_{j,q}) B_i y_{i,p} B_j y_{j,q},
      RR0: {dR_{i,p}, dR_{i,q}} = 0.  This is {R_i(z), R_i(u)} = 0, as that
           bracket has degree below a_i in z and in u and so vanishes
           exactly when it vanishes on the a_i x a_i grid of roots.

    The dw_{i,p} entry -R_i'(w_{i,p}) is formed only when a pairing reads
    it, with the slope R_i' formed once per color.  The shipped rules never
    read it: ``brackets`` pairs w_{i,p} with y_{i,p} alone, and no other
    differential here (a gradient of Q, or dR at another root) has a
    y_{i,p} part.
    """
    table = BracketTable(datum, tuple(degrees), kind, extended=True, extra=("z", "u"))
    n, d, P = datum.rank, datum.d, datum.pairing
    z = table.var("z")
    Qz = [colored_Q(table, i, "z") for i in range(n)]
    dQz = [table.gradient(q) for q in Qz]
    dQu = [table.gradient(colored_Q(table, i, "u")) for i in range(n)]
    checks: dict[str, bool] = {}

    checks["QQ"] = all(table.pairing(dQz[i], dQu[j]).is_zero
                       for i in range(n) for j in range(n))

    def K(x: MultiRat, y: MultiRat) -> MultiRat:
        return (x + y) / (2 * (x - y)) if kind == "trigonometric" else 1 / (x - y)

    @cache
    def slope(i: int) -> MultiRat:
        return colored_R(table, i, "z").diff("z")

    def dw(i: int, w: MultiRat) -> MultiRat:
        return -slope(i).subs("z", w)

    # per color, (w, R_i(w) = B_i y, dR_i) at each root w
    roots = []
    for i in range(n):
        c = i + 1
        B = table.var(f"B{c}")
        at = []
        for p in range(1, table.degrees[i] + 1):
            w, y = table.var(f"w{c}_{p}"), table.var(f"y{c}_{p}")
            dR = _Lazy({f"w{c}_{p}": partial(dw, i, w), f"y{c}_{p}": B, f"B{c}": y})
            at.append((w, B * y, dR))
        roots.append(at)

    checks["QR"] = all(
        table.pairing(dQz[i], dR) == (-d[i] * K(z, w) * Qz[i] * R if i == j else 0)
        for i in range(n) for j in range(n) for w, R, dR in roots[j]
    )
    checks["RRx"] = all(
        table.pairing(dR1, dR2) == P[i][j] * K(w1, w2) * R1 * R2
        for i, j in itertools.permutations(range(n), 2)
        for w1, R1, dR1 in roots[i] for w2, R2, dR2 in roots[j]
    )
    checks["RR0"] = all(
        table.pairing(dR1, dR2).is_zero
        for at in roots for (_, _, dR1), (_, _, dR2) in itertools.combinations(at, 2)
    )

    return {"ok": all(checks.values()), "kind": kind, "checks": checks}

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from zastava import cluster
from zastava.cluster import (
    ExchangeMatrix,
    Seed,
    block_minors,
    hankel_minors,
    initial_seed_sl2,
    log_canonicity_check,
    mutate,
    sample_chart_point,
)
from zastava.jet import Jet, det_jet_cofactor
from zastava.linalg import ExactMatrix, det
from zastava.points import ZastavaPoint, coordinate_assignment, coordinate_ring, from_coords
from zastava.poisson import BracketTable
from zastava.rootdata import datum
from zastava.series import series_coefficients
from zastava.unipoly import UniPoly

A1 = datum("A1")
# the exchange matrix that the reduced word (0, 1, 0, 1), read with the
# affine A1 Cartan matrix, gives the a = 2 seed; it is not compatible with
# the bracket, so mutations under it are negative controls
WORD_A2 = ExchangeMatrix(4, (1, 2), ((0, 2), (-2, 0), (1, -2), (0, 1)))


def _pt2():
    return from_coords(A1, [[F(1), F(3)]], [[F(2), F(4)]])


def _closed_form(a):
    """The nonzero b(k, l) of the rank-one seed matrix B, keyed by positions
    (D_m at 2m - 1, C_m at 2m)."""
    d, c = (lambda m: 2 * m - 1), (lambda m: 2 * m)
    b = {(d(a), c(a)): 1}
    for m in range(1, a):
        b.update({(d(m), c(m)): 2, (d(m), d(m + 1)): 1, (d(m), c(m + 1)): -2,
                  (c(m), c(m + 1)): 1})
    b.update({(l, k): -v for (k, l), v in list(b.items())})
    return b


def _word_seed(seed):
    """The a = 2 seed's variables and jets under ``WORD_A2``."""
    return Seed(seed.labels, lambda: seed.variables, WORD_A2, jets=seed.jets)


def test_exchange_matrix_example():
    m = initial_seed_sl2(None, 2).matrix
    assert m.columns == (1, 2)
    assert m.data == ((0, 2), (-2, 0), (-1, 0), (2, -1))
    assert [[m.entry(s, r) for r in m.columns] for s in m.columns] == [[0, 2], [-2, 0]]


def test_exchange_entry_accessor():
    m = initial_seed_sl2(None, 2).matrix
    assert m.entry(3, 1) == -1 and m.entry(1, 2) == 2
    assert m.entry(1, 3) == 0  # position 3 is not exchangeable
    # a position outside 1..4 is refused, not read from a wrapped row
    for s, r in ((0, 2), (5, 1), (-1, 1), (1, 0), (1, 5)):
        with pytest.raises(ValueError, match="outside 1..4"):
            m.entry(s, r)


def test_exchange_no_repeats():
    # at a = 1 both variables are frozen
    with pytest.raises(ValueError):
        initial_seed_sl2(None, 0)
    m = initial_seed_sl2(None, 1).matrix
    assert m.columns == ()
    assert m.data == ((), ())


def test_exchange_longer_word_skew():
    """Every entry is the closed form's, so the exchangeable block is skew."""
    for a in (2, 3, 4, 8):
        m = initial_seed_sl2(None, a).matrix
        assert m.columns == tuple(range(1, 2 * a - 1))
        b = _closed_form(a)
        assert all(m.entry(s, r) == b.get((s, r), 0)
                   for s in range(1, 2 * a + 1) for r in m.columns)
        assert all(m.entry(s, r) == -m.entry(r, s) for s in m.columns for r in m.columns)


def test_matrix_mutation_involution():
    m = initial_seed_sl2(None, 3).matrix
    for k in m.columns:
        assert m.mutate(k).mutate(k) == m
    with pytest.raises(ValueError):
        m.mutate(m.length)


@pytest.mark.parametrize("a", range(2, 9))
def test_initial_seed_is_compatible_with_the_bracket(a):
    """B~^T Omega = [I 0], with Omega_kl = {x_k, x_l}/(x_k x_l) read at one
    point (the seed is log-canonical, so one point gives every constant)."""
    seed = initial_seed_sl2(None, a)
    table = BracketTable(A1, (a,), "trigonometric")
    rep = log_canonicity_check(seed, table, trials=1, rng=random.Random(a))
    n = 2 * a
    omega = [[0] * n for _ in range(n)]
    for p in rep["pairs"]:
        k, l = (seed.labels.index(x) for x in p["pair"])
        omega[k][l], omega[l][k] = p["values"][0], -p["values"][0]
    b = seed.matrix.data
    product = [[sum(b[s][i] * omega[s][j] for s in range(n)) for j in range(n)]
               for i in range(n - 2)]
    assert product == [[int(i == j) for j in range(n)] for i in range(n - 2)]


@pytest.mark.parametrize("a", [2, 3, 4, 5])
def test_every_one_step_mutation_is_log_canonical(a):
    seed = initial_seed_sl2(None, a)
    table = BracketTable(A1, (a,), "trigonometric")
    for k in seed.exchangeable:
        rep = log_canonicity_check(mutate(seed, k), table, trials=3, rng=random.Random(k))
        assert rep["ok"], k
        if a == 2:  # negative control: under the word matrix each mutation fails
            rep = log_canonicity_check(mutate(_word_seed(seed), k), table, trials=3,
                                       rng=random.Random(k))
            assert not rep["ok"], k


def test_exchange_relations_at_a_point():
    """With D_0 = C_0 = 1: D_m D_m' = D_{m-1} C_{m+1}^2 + C_m^2 D_{m+1} and
    C_m C_m' = C_{m-1} D_m^2 + D_{m-1}^2 C_{m+1}."""
    for a in (2, 3, 5):
        seed = initial_seed_sl2(None, a)
        pt = sample_chart_point((a,), random.Random(a))
        x = [j.value for j in seed.jets(pt, ())]
        d, c = [1] + x[0::2], [1] + x[1::2]
        for m in range(1, a):
            d_new = mutate(seed, 2 * m - 1).jets(pt, ())[2 * m - 2].value
            c_new = mutate(seed, 2 * m).jets(pt, ())[2 * m - 1].value
            assert d[m] * d_new == d[m - 1] * c[m + 1] ** 2 + c[m] ** 2 * d[m + 1]
            assert c[m] * c_new == c[m - 1] * d[m] ** 2 + d[m - 1] ** 2 * c[m + 1]


def test_initial_seed_structure():
    seed = initial_seed_sl2(_pt2(), 2)
    assert seed.labels == ("D_1", "C_1", "D_2", "C_2")
    assert seed.frozen == (3, 4)
    assert seed.exchangeable == (1, 2)


def test_initial_seed_values():
    pt = _pt2()
    seed = initial_seed_sl2(pt, 2)
    assign = coordinate_assignment(pt)
    vals = [v.evaluate(assign) for v in seed.variables]
    assert vals == [F(5), F(1), F(-24), F(-8)]


def test_symbolic_variables_beyond_cap_rejected_before_building():
    # reading .variables at a = 7 would need 7x7 symbolic minors; the
    # builder refuses at once instead of building the 6x6 ones first
    seed = initial_seed_sl2(None, 7)
    with pytest.raises(ValueError, match="SYMBOLIC_COFACTOR_CAP"):
        seed.variables


def test_seed_rejects_wrong_point():
    mono = ZastavaPoint(A1, (UniPoly([0, 1]),), (UniPoly([3]),))
    with pytest.raises(ValueError):
        initial_seed_sl2(mono, 1)
    with pytest.raises(ValueError):
        initial_seed_sl2(_pt2(), 3)


def test_hankel_minors_match_series():
    pt = _pt2()
    d1, c1, d2, c2 = hankel_minors(series_coefficients(pt.w[0], pt.y[0], 4),
                                   block_minors(lambda rows: det(ExactMatrix(rows))))
    assert c1 == 1
    assert d2 == -24
    # the symbolic minors, evaluated at the point, agree
    ring = coordinate_ring((2,))
    ws = [ring.rat_var("w1_1"), ring.rat_var("w1_2")]
    ys = [ring.rat_var("y1_1"), ring.rat_var("y1_2")]
    cofactor = block_minors(lambda rows: det(ExactMatrix(rows), strategy="cofactor"))
    symbolic = hankel_minors(series_coefficients(ws, ys, 4), cofactor)
    assign = coordinate_assignment(pt)
    assert [v.evaluate(assign) for v in symbolic] == [d1, c1, d2, c2]


def test_mutation_value():
    pt = _pt2()
    seed = initial_seed_sl2(pt, 2)
    mut = mutate(seed, 2)
    assign = coordinate_assignment(pt)
    # exchange relation at C_1: C_1 * C_1' = D_1^2 + C_2, so (25 - 8)/1
    assert mut.variable(2).evaluate(assign) == F(17)
    assert mut.labels[1] == "mu_2(C_1)"
    assert mut.labels[0] == "D_1"
    # control: under the word matrix C_1 * C_1' = D_1^2 C_2 + D_2^2
    assert mutate(_word_seed(seed), 2).variable(2).evaluate(assign) == F(376)


def test_seed_mutation_involution():
    seed = initial_seed_sl2(None, 2)
    back = mutate(mutate(seed, 1), 1)
    assert back.matrix == seed.matrix
    rng = random.Random(4)
    for _ in range(3):
        assign = sample_chart_point((2,), rng)
        for orig, twice in zip(seed.variables, back.variables):
            assert orig.evaluate(assign) == twice.evaluate(assign)


def test_mutation_laurent_denominator():
    seed = initial_seed_sl2(None, 2)
    expr = mutate(seed, 2).variable(2) * seed.variable(2)
    word_expr = mutate(_word_seed(seed), 2).variable(2) * seed.variable(2)
    rng = random.Random(8)
    # C_1 * mu(C_1) equals a polynomial in the other seed variables
    done = 0
    while done < 3:
        assign = sample_chart_point((2,), rng)
        if seed.variable(2).evaluate(assign) == 0:
            continue
        done += 1
        d1, c2, d2 = (seed.variable(s).evaluate(assign) for s in (1, 4, 3))
        assert expr.evaluate(assign) == d1 * d1 + c2
        assert word_expr.evaluate(assign) == d1 * d1 * c2 + d2 * d2  # control


def test_mutate_frozen_rejected():
    seed = initial_seed_sl2(None, 2)
    for k in (3, 4):
        with pytest.raises(ValueError, match=f"position {k} is frozen"):
            mutate(seed, k)


def test_mutate_outside_the_positions_rejected():
    seed = initial_seed_sl2(None, 2)
    for k in (0, -1, 5, 9):
        with pytest.raises(ValueError, match=f"position {k} is outside the seed's positions 1..4"):
            mutate(seed, k)


def test_log_canonicity_a2():
    seed = initial_seed_sl2(None, 2)
    table = BracketTable(A1, (2,), "trigonometric")
    rep = log_canonicity_check(seed, table, trials=4, rng=random.Random(1))
    assert rep["ok"]
    consts = {p["pair"]: p["values"][0] for p in rep["pairs"]}
    assert consts[("D_1", "C_1")] == 1
    assert consts[("D_1", "D_2")] == -1
    assert consts[("D_1", "C_2")] == 0
    assert consts[("C_1", "D_2")] == -2
    assert consts[("C_1", "C_2")] == -1
    assert consts[("D_2", "C_2")] == 2


def test_log_canonicity_negative_control():
    seed = initial_seed_sl2(None, 2)
    ring = seed.variables[0].ring
    bad = ring.rat_var("w1_1") + ring.rat_const(1)
    variables = (bad,) + seed.variables[1:]
    spoiled = Seed(seed.labels, variables, seed.matrix)
    table = BracketTable(A1, (2,), "trigonometric")
    rep = log_canonicity_check(spoiled, table, trials=4, rng=random.Random(2))
    assert not rep["ok"]
    assert any(not p["constant"] for p in rep["pairs"])


def test_log_canonicity_check_gives_up_on_a_seed_no_point_suits():
    seed = initial_seed_sl2(None, 2)
    v = seed.variables[0]
    vanishing = Seed(seed.labels, (v - v,) + seed.variables[1:], seed.matrix)
    table = BracketTable(A1, (2,), "trigonometric")
    with pytest.raises(ValueError, match=r"1000 sample points rejected, 0 of 2 .*'D_1'"):
        log_canonicity_check(vanishing, table, trials=2, rng=random.Random(0))


def test_long_mutation_sequence_obeys_its_exchange_relation():
    """600 alternating mutations evaluate at a point without nesting a call
    per step; the last one is the exchange rule applied to the one before."""
    seeds = [initial_seed_sl2(None, 2)]
    for i in range(600):
        seeds.append(mutate(seeds[-1], 1 + i % 2))
    before, after = seeds[-2:]
    pt = sample_chart_point((2,), random.Random(0))
    x = [j.value for j in before.jets(pt, ())]
    y = [j.value for j in after.jets(pt, ())]
    column = [row[before.matrix.columns.index(2)] for row in before.matrix.data]
    plus = minus = 1
    for v, b in zip(x, column):
        plus, minus = plus * v ** max(b, 0), minus * v ** max(-b, 0)
    assert y[1] * x[1] == plus + minus
    assert y[:1] + y[2:] == x[:1] + x[2:]
    assert len(after.jets(pt, ("w1_1",))[1].grad) == 1


def test_exchange_matrix_validation():
    with pytest.raises(ValueError):
        ExchangeMatrix(2, (1,), ((0,),))
    with pytest.raises(ValueError):
        ExchangeMatrix(1, (1,), ((0, 1),))


def test_jets_match_symbolic_oracle():
    """Closed-form jets equal value and symbolic partials of each variable."""
    for a in (2, 3):
        seed = initial_seed_sl2(None, a)
        coords = BracketTable(A1, (a,), "trigonometric").coordinates
        partials = [[v.diff(c) for c in coords] for v in seed.variables]
        rng = random.Random(30 + a)
        for _ in range(3):
            pt = sample_chart_point((a,), rng)
            for v, dv, x in zip(seed.variables, partials, seed.jets(pt, coords)):
                assert x.value == v.evaluate(pt)
                assert list(x.grad) == [d.evaluate(pt) for d in dv]


def _cofactor_route(pt, a, coords):
    ws, ys = ([Jet.coordinate(f"{v}1_{r}", pt, coords) for r in range(1, a + 1)]
              for v in "wy")
    ref = hankel_minors(series_coefficients(ws, ys, 2 * a), block_minors(det_jet_cofactor))
    return [(x.nums, x.den) for x in ref]


@pytest.mark.parametrize("a", [2, 3, 6, 8])
def test_seed_jets_match_the_cofactor_route(a):
    """The seed's jets (``series_jets`` and the Bareiss route of
    ``leading_minors_jet``) equal the reference route, generic
    ``series_coefficients`` of coordinate jets with cofactor minors, at two
    sampled points."""
    seed = initial_seed_sl2(None, a)
    coords = BracketTable(A1, (a,), "trigonometric").coordinates
    rng = random.Random(a)
    for _ in range(2):
        pt = sample_chart_point((a,), rng)
        got = seed.jets(pt, coords)
        assert [(x.nums, x.den) for x in got] == _cofactor_route(pt, a, coords)


def test_seed_jets_match_the_cofactor_route_where_pivots_vanish():
    """With all y equal, c_0 = c_1 = 0 at a = 3, so C_1 = D_1 = 0: each
    Bareiss pass stops at its first pivot, and ``det_jet_cofactor`` takes
    the larger blocks (C_2 singular, D_2, D_3 and C_3 not)."""
    a = 3
    seed = initial_seed_sl2(None, a)
    coords = BracketTable(A1, (a,), "trigonometric").coordinates
    pt = sample_chart_point((a,), random.Random(5))
    pt.update({f"y1_{r}": F(-7, 3) for r in range(1, a + 1)})
    got = seed.jets(pt, coords)
    assert [x.value == 0 for x in got] == [True, True, False, True, False, False]
    assert [(x.nums, x.den) for x in got] == _cofactor_route(pt, a, coords)


def test_log_canonicity_rejects_the_same_points_on_both_routes(monkeypatch):
    """At rng 91 the third and fifth draws have y1_1 = y1_2, where
    C_1 = (y1_1 - y1_2)/(w1_1 - w1_2) vanishes: the closed-form jets and
    ``MultiRat.evaluate`` at coordinate jets reject the same draws and
    return the same values."""
    closed = initial_seed_sl2(None, 2)
    symbolic = Seed(closed.labels, closed.variables, closed.matrix)
    table = BracketTable(A1, (2,), "trigonometric")
    runs = []
    for seed in (closed, symbolic):
        drawn = []

        def spy(*args, _sample=sample_chart_point, **kwargs):
            pt = _sample(*args, **kwargs)
            drawn.append(pt)
            return pt

        monkeypatch.setattr(cluster, "sample_chart_point", spy)
        runs.append((drawn, log_canonicity_check(seed, table, trials=4, rng=random.Random(91))))
    (drawn, rep), (drawn_symbolic, rep_symbolic) = runs
    assert drawn == drawn_symbolic and rep == rep_symbolic
    assert rep["ok"] and len(drawn) == 6
    assert [k for k, pt in enumerate(drawn) if pt["y1_1"] == pt["y1_2"]] == [2, 4]


def _recorded_seeds():
    """The recorded mutations are taken under ``WORD_A2``: negative controls."""
    seed = initial_seed_sl2(None, 2)
    word = _word_seed(seed)
    ring = seed.variables[0].ring
    bad = ring.rat_var("w1_1") + ring.rat_const(1)
    return {
        "initial": seed,
        "mu_2": mutate(word, 2),
        "mu_1,2": mutate(mutate(word, 1), 2),
        "spoiled": Seed(seed.labels, (bad,) + seed.variables[1:], seed.matrix),
    }


def test_log_canonicity_matches_symbolic_route(monkeypatch):
    """Same points drawn, same values and verdicts as the symbolic route
    (diff, then evaluate every partial) recorded at a=2."""
    doc = json.loads((Path(__file__).parent / "data" / "logcanon_symbolic_a2.json").read_text())
    seeds = _recorded_seeds()
    table = BracketTable(A1, (2,), "trigonometric")
    for case in doc["cases"]:
        drawn = []

        def spy(*args, _sample=sample_chart_point, **kwargs):
            pt = _sample(*args, **kwargs)
            drawn.append({k: str(v) for k, v in pt.items()})
            return pt

        monkeypatch.setattr(cluster, "sample_chart_point", spy)
        rng = random.Random(case["rng"])
        rep = log_canonicity_check(seeds[case["seed"]], table, trials=5, rng=rng)
        assert drawn == case["drawn"]
        assert rng.getrandbits(32) == case["next_bits"]
        assert (rep["ok"], rep["trials"]) == (case["ok"], case["trials"])
        got = [
            {"pair": list(p["pair"]), "values": [str(v) for v in p["values"]],
             "constant": p["constant"]}
            for p in rep["pairs"]
        ]
        assert got == case["pairs"]


@pytest.mark.parametrize("a", [2, 3, 5])
def test_log_canonicity_negative_control_closed_form(a):
    """A closed-form jet multiplied by the jet of (1 + w1_1) must fail."""
    good = initial_seed_sl2(None, a)

    def bent(point, coords):
        jets = list(good.jets(point, coords))
        jets[0] = jets[0] * (1 + Jet.coordinate("w1_1", point, coords))
        return tuple(jets)

    bad = Seed(good.labels, lambda: (), good.matrix, jets=bent)
    table = BracketTable(A1, (a,), "trigonometric")
    assert log_canonicity_check(good, table, trials=3, rng=random.Random(a))["ok"]
    rep = log_canonicity_check(bad, table, trials=3, rng=random.Random(a))
    assert not rep["ok"]
    broken = {p["pair"] for p in rep["pairs"] if not p["constant"]}
    assert broken and all("D_1" in pair for pair in broken)



def test_initial_seed_matrix_is_the_affine_a1_one():
    """At a = 2 the exchangeable block is the Kronecker quiver: its Cartan
    companion is the affine A1 Cartan matrix."""
    m = initial_seed_sl2(None, 2).matrix
    companion = tuple(tuple(2 if s == r else -abs(m.entry(s, r)) for r in m.columns)
                      for s in m.columns)
    assert companion == datum("A1-affine").cartan


def test_chart_values_are_a_sorted_table():
    # a sorted tuple, not a set: the draws do not depend on the hash seed
    values = cluster._CHART_VALUES
    assert isinstance(values, tuple) and len(values) == 50
    assert list(values) == sorted(set(values)) and 0 not in values
    assert {v.denominator for v in values} == {1, 2, 3, 4}
    assert max(abs(v.numerator) for v in values) == 9


@pytest.mark.parametrize("label, degs", [("A2", (2, 1)), ("B2", (2, 1)), ("A2", (5, 5)),
                                         ("A1", (50,)), ("A2", (25, 25))])
def test_sample_chart_point_over_a_degree_vector(label, degs):
    """Keys in the order of the table's coordinates, nonzero values, and w
    distinct across all colors, up to a degree sum of 50 (every value)."""
    table = BracketTable(datum(label), degs, "trigonometric")
    rng = random.Random(5)
    for _ in range(20):
        pt = sample_chart_point(degs, rng)
        assert tuple(pt) == table.coordinates
        assert all(pt.values())
        ws = [v for k, v in pt.items() if k.startswith("w")]
        assert len(set(ws)) == len(ws) == sum(degs)


def test_log_canonicity_two_colors_a2(monkeypatch):
    """At A2 (1,1) {log y1_1, log y2_1} is -(w1_1 + w2_1) / (2 (w1_1 - w2_1))
    at each point, so it varies, while {log y1_1, log(y2_1 / (w1_1 - w2_1))}
    is the constant 1/2."""
    table = BracketTable(datum("A2"), (1, 1), "trigonometric")
    y1, y2 = table.var("y1_1"), table.var("y2_1")
    quotient = y2 / (table.var("w1_1") - table.var("w2_1"))
    seed = Seed(("y1_1", "y2_1", "q"), (y1, y2, quotient), ExchangeMatrix(3, (), ((),) * 3))
    drawn = []

    def spy(*args, _sample=sample_chart_point):
        drawn.append(_sample(*args))
        return drawn[-1]

    monkeypatch.setattr(cluster, "sample_chart_point", spy)
    rep = log_canonicity_check(seed, table, trials=3, rng=random.Random(0))
    values = {p["pair"]: p["values"] for p in rep["pairs"]}
    assert len(drawn) == 3
    assert values[("y1_1", "y2_1")] == [
        -(pt["w1_1"] + pt["w2_1"]) / (2 * (pt["w1_1"] - pt["w2_1"])) for pt in drawn
    ]
    assert len(set(values[("y1_1", "y2_1")])) == 3
    assert values[("y1_1", "q")] == [F(1, 2)] * 3
    assert not rep["ok"]


@pytest.mark.parametrize("label, degs", [("A2", (1, 1)), ("A2", (2, 2)), ("B2", (2, 1))])
def test_log_canonicity_per_color_hankel_seeds(label, degs):
    """The union of the per-color Hankel minors is log-canonical within a
    color and not across the two adjacent colors."""
    table = BracketTable(datum(label), degs, "trigonometric")
    cofactor = block_minors(lambda rows: det(ExactMatrix(rows), strategy="cofactor"))
    labels, variables = [], []
    for i, a in enumerate(degs, start=1):
        ws = [table.var(f"w{i}_{r}") for r in range(1, a + 1)]
        ys = [table.var(f"y{i}_{r}") for r in range(1, a + 1)]
        variables += hankel_minors(series_coefficients(ws, ys, 2 * a), cofactor)
        labels += [f"{i}:{x}{m}" for m in range(1, a + 1) for x in "DC"]
    n = len(labels)
    seed = Seed(labels, variables, ExchangeMatrix(n, (), ((),) * n))
    rep = log_canonicity_check(seed, table, trials=4, rng=random.Random(1))
    assert len(rep["pairs"]) == n * (n - 1) // 2
    for p in rep["pairs"]:
        u, v = p["pair"]
        assert p["constant"] == (u[0] == v[0]), p

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from zastava import poisson
from zastava.linalg import ExactMatrix
from zastava.poisson import (
    BracketTable,
    bivector_matrix,
    colored_Q,
    colored_R,
    jacobi_check,
    jacobi_report,
    symplectic_check_trig,
    symplectic_form_trig,
    verify_descent,
)
from zastava.rootdata import RootDatum, datum
from zastava.verify import _BRACKET_CONFIGS, _DESCENT_CONFIGS

A1 = datum("A1")
A2 = datum("A2")
D4 = datum("D4")


def test_table_validation():
    with pytest.raises(ValueError):
        BracketTable(A1, (1,), "elliptic")
    with pytest.raises(ValueError):
        BracketTable(A2, (1,), "rational")


def test_coordinate_list():
    t = BracketTable(A1, (2,), "rational", extended=True)
    assert t.coordinates == ("w1_1", "w1_2", "y1_1", "y1_2", "B1")


def test_rational_rules_a1():
    t = BracketTable(A1, (1,), "rational")
    y = t.ring.rat_var("y1_1")
    assert t.coordinate_bracket("w1_1", "y1_1") == y
    assert t.coordinate_bracket("y1_1", "w1_1") == -y
    assert t.coordinate_bracket("w1_1", "w1_1").is_zero


def test_trigonometric_rules_a1():
    t = BracketTable(A1, (1,), "trigonometric")
    w, y = t.ring.rat_var("w1_1"), t.ring.rat_var("y1_1")
    assert t.coordinate_bracket("w1_1", "y1_1") == w * y


def test_same_color_yy_zero():
    t = BracketTable(A1, (2,), "trigonometric")
    assert t.coordinate_bracket("y1_1", "y1_2").is_zero
    assert t.coordinate_bracket("w1_1", "w1_2").is_zero


def test_cross_color_yy():
    t = BracketTable(A2, (1, 1), "rational")
    w1, w2 = t.ring.rat_var("w1_1"), t.ring.rat_var("w2_1")
    y1, y2 = t.ring.rat_var("y1_1"), t.ring.rat_var("y2_1")
    expect = t.ring.rat_const(-1) * y1 * y2 / (w1 - w2)
    assert t.coordinate_bracket("y1_1", "y2_1") == expect
    tt = BracketTable(A2, (1, 1), "trigonometric")
    w1, w2 = tt.ring.rat_var("w1_1"), tt.ring.rat_var("w2_1")
    y1, y2 = tt.ring.rat_var("y1_1"), tt.ring.rat_var("y2_1")
    expect = tt.ring.rat_const(-1) * (w1 + w2) / (tt.ring.rat_const(2) * (w1 - w2)) * y1 * y2
    assert tt.coordinate_bracket("y1_1", "y2_1") == expect


def test_extended_B_rules():
    t = BracketTable(A1, (1,), "trigonometric", extended=True)
    B, y = t.ring.rat_var("B1"), t.ring.rat_var("y1_1")
    assert t.coordinate_bracket("B1", "y1_1") == t.ring.rat_const(F(-1, 2)) * B * y
    assert t.coordinate_bracket("B1", "w1_1").is_zero
    tr = BracketTable(A1, (1,), "rational", extended=True)
    assert tr.coordinate_bracket("B1", "y1_1").is_zero


@pytest.mark.parametrize("a, b", [("w1_1", "w1_9"), ("w1_1", "y1_9"), ("w1_1", "z"), ("B1", "y1_1")])
@pytest.mark.parametrize("at_point", [False, True], ids=["symbolic", "at-point"])
def test_coordinate_bracket_rejects_names_outside_the_chart(a, b, at_point):
    """A name outside the chart raises ValueError naming it and the degrees,
    in either slot, instead of a silent zero or a bare lookup error."""
    table = BracketTable(A1, (2,), "rational")
    point = _chart_point(table, random.Random(0)) if at_point else None
    bad = b if a in table.coordinates else a
    for pair in ((a, b), (b, a)):
        with pytest.raises(ValueError, match=rf"'{bad}' is not a coordinate .* degrees \(2,\)"):
            table.coordinate_bracket(*pair, point)


_SUPPORT_CONFIGS = sorted(set(_BRACKET_CONFIGS) | set(_DESCENT_CONFIGS))


@pytest.mark.parametrize("label, degrees", _SUPPORT_CONFIGS)
@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_support_holds_every_nonzero_bracket(label, degrees, kind, extended):
    """``brackets`` lists its pairs (the support of the bracket) a before b,
    in the order of ``itertools.combinations``, the same pairs symbolically
    and at a point, each with a bracket that is not identically zero (at a
    point with w = -w' a trigonometric {y, y'} is 0); ``rules`` holds
    exactly those pairs and values, in that order.  That no nonzero pair is
    missing is checked by B*Omega = I, the descent substitution route and
    the Jacobi cyclic sums."""
    extra = ("z", "u") if extended else ()
    table = BracketTable(datum(label), degrees, kind, extended=extended, extra=extra)
    listed = list(table.brackets())
    pairs = [(a, b) for a, b, _ in listed]
    support = set(pairs)
    assert pairs == [p for p in itertools.combinations(table.coordinates, 2) if p in support]
    assert not any(value.is_zero for _, _, value in listed)
    assert list(table.rules.items()) == [((a, b), value) for a, b, value in listed]
    at_point = list(table.brackets(_chart_point(table, random.Random(1))))
    assert [(a, b) for a, b, _ in at_point] == pairs


def test_bracket_antisymmetry_and_leibniz():
    t = BracketTable(A2, (1, 1), "trigonometric")
    rng = random.Random(3)
    names = t.coordinates

    def rand_expr():
        e = t.ring.rat_const(F(rng.randint(-3, 3)))
        for n in names:
            if rng.random() < 0.5:
                e = e + t.ring.rat_const(F(rng.randint(1, 3))) * t.ring.rat_var(n)
        return e

    for _ in range(5):
        f, g, h = rand_expr(), rand_expr(), rand_expr()
        assert t.bracket(f, f).is_zero
        assert (t.bracket(f, g) + t.bracket(g, f)).is_zero
        lhs = t.bracket(f, g * h)
        rhs = t.bracket(f, g) * h + g * t.bracket(f, h)
        assert (lhs - rhs).is_zero


def test_jacobi_check_and_report():
    for kind in ("rational", "trigonometric"):
        t = BracketTable(A1, (2,), kind)
        f = t.ring.rat_var("w1_1")
        g = t.ring.rat_var("y1_1")
        h = t.ring.rat_var("y1_2")
        assert jacobi_check(t, f, g, h).is_zero
        rep = jacobi_report(t)
        assert rep["ok"] and rep["checked"] == 4 and rep["failures"] == []


def test_jacobi_with_one_color_of_degree_zero():
    for kind in ("rational", "trigonometric"):
        rep = jacobi_report(BracketTable(A2, (2, 0), kind))
        assert rep["ok"] and rep["checked"] == 4


def test_jacobi_extended_a2():
    t = BracketTable(A2, (1, 1), "trigonometric", extended=True)
    rep = jacobi_report(t)
    assert rep["ok"]


def test_bivector_matrix_antisymmetric():
    t = BracketTable(A1, (2,), "rational")
    m = bivector_matrix(t)
    n = len(t.coordinates)
    for i in range(n):
        for j in range(n):
            assert (m[i, j] + m[j, i]).is_zero


def test_symplectic_a1_degree1():
    pt = {"w1_1": F(1), "y1_1": F(3)}
    rep = symplectic_check_trig(A1, (1,), pt)
    assert rep["ok"]
    assert rep["bivector"] == [[F(0), F(3)], [F(-3), F(0)]]
    assert rep["form"] == [[F(0), F(-1, 3)], [F(1, 3), F(0)]]


def test_symplectic_random():
    rng = random.Random(7)
    for degrees, dat in (((2,), A1), ((1, 1), A2), ((2, 1), A2)):
        for _ in range(3):
            used = set()
            pt = {}
            for i, a in enumerate(degrees, start=1):
                for r in range(1, a + 1):
                    v = F(rng.randint(1, 30))
                    while v in used:
                        v = F(rng.randint(1, 30))
                    used.add(v)
                    pt[f"w{i}_{r}"] = v
                    pt[f"y{i}_{r}"] = F(rng.randint(1, 9))
            assert symplectic_check_trig(dat, degrees, pt)["ok"]


def test_symplectic_rejects_bad_point():
    with pytest.raises(ValueError):
        symplectic_check_trig(A1, (2,), {"w1_1": F(1), "w1_2": F(1), "y1_1": F(1), "y1_2": F(1)})
    with pytest.raises(ValueError):
        symplectic_check_trig(A1, (1,), {"w1_1": F(0), "y1_1": F(1)})
    t = BracketTable(A1, (1,), "rational")
    with pytest.raises(ValueError):
        symplectic_form_trig(t)


def _chart_point(table, rng):
    """Distinct nonzero w across colors, nonzero y and B."""
    ws = rng.sample([F(n, 3) for n in range(-30, 31) if n], len(table.coordinates))
    return {c: w for c, w in zip(table.coordinates, ws)}


# C3 (1,1,1) and D4 (2,1,1,1) have non-adjacent colors, whose P_ij = 0
# pairs ``brackets`` leaves out
@pytest.mark.parametrize("dat, degrees", [(A1, (2,)), (A2, (2, 1)), (datum("C3"), (1, 1, 1)),
                                          (D4, (2, 1, 1, 1))])
@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
@pytest.mark.parametrize("extended", [False, True])
def test_coordinate_bracket_at_point_matches_symbolic(dat, degrees, kind, extended):
    table = BracketTable(dat, degrees, kind, extended=extended)
    rng = random.Random(len(degrees))
    for _ in range(2):
        pt = _chart_point(table, rng)
        for a in table.coordinates:
            for b in table.coordinates:
                assert table.coordinate_bracket(a, b, pt) == table.coordinate_bracket(a, b).evaluate(pt)
        at_point = bivector_matrix(table, pt)
        symbolic = bivector_matrix(table)
        n = len(table.coordinates)
        assert all(at_point[i, j] == symbolic[i, j].evaluate(pt) for i in range(n) for j in range(n))


@pytest.mark.parametrize("dat, degrees", [(A1, (2,)), (A2, (2, 1))])
def test_symplectic_form_at_point_matches_symbolic(dat, degrees):
    table = BracketTable(dat, degrees, "trigonometric")
    rng = random.Random(5)
    n = len(table.coordinates)
    symbolic = symplectic_form_trig(table)
    for _ in range(3):
        pt = _chart_point(table, rng)
        at_point = symplectic_form_trig(table, pt)
        assert all(at_point[i, j] == symbolic[i, j].evaluate(pt) for i in range(n) for j in range(n))


def test_descent_a1():
    for kind in ("rational", "trigonometric"):
        for a in (1, 2):
            rep = verify_descent(A1, (a,), kind)
            assert rep["ok"], rep
            assert set(rep["checks"]) == {"QQ", "QR", "RRx", "RR0"}
            assert all(rep["checks"].values())


def test_descent_a2():
    for kind in ("rational", "trigonometric"):
        assert verify_descent(A2, (1, 1), kind)["ok"]


@pytest.mark.parametrize("degrees", [(1, 1), (2, 1)])
@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_bracket_checks_hold_off_the_cartan_matrices(kind, degrees):
    """Jacobi and descent read the datum only through d and P = diag(d) C,
    so they hold for every symmetrizable matrix: a pass covers the bracket
    formulas, not the root type.  Here C is the Cartan matrix of no finite
    or affine type."""
    x2 = RootDatum("X2", ((2, -5), (-1, 2)), (F(1), F(5)))
    assert jacobi_report(BracketTable(x2, degrees, kind))["ok"]
    assert jacobi_report(BracketTable(x2, degrees, kind, extended=True))["ok"]
    assert verify_descent(x2, degrees, kind)["ok"]


def _changed_bracket(monkeypatch, pair, change):
    """Patch BracketTable so that the coordinate bracket {pair} (and, by
    antisymmetry, its reverse) becomes change(its value).  A pair that
    ``brackets`` leaves out, its bracket being zero, joins it last."""
    original = BracketTable.brackets

    def patched(self, point=None):
        found = False
        for a, b, value in original(self, point):
            if (a, b) == pair:
                found, value = True, change(value)
            yield a, b, value
        if not found:
            yield (*pair, change(self._chart(point)[1]))

    monkeypatch.setattr(BracketTable, "brackets", patched)


def _scaled_bracket(monkeypatch, pair, scale):
    _changed_bracket(monkeypatch, pair, lambda value: value * scale)


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_descent_negative_control_qr(monkeypatch, kind):
    configs = [(A1, (4,), ("w1_2", "y1_2")), (D4, (2, 1, 1, 1), ("w1_1", "y1_1"))]
    for dat, degrees, pair in configs:
        assert verify_descent(dat, degrees, kind)["ok"]
        with monkeypatch.context() as m:
            _scaled_bracket(m, pair, 2)
            rep = verify_descent(dat, degrees, kind)
        assert not rep["ok"] and not rep["checks"]["QR"], (dat.label, degrees)


@pytest.mark.parametrize("dat, degrees", [(A2, (2, 2)), (datum("B2"), (2, 1)), (D4, (2, 1, 1, 1))])
@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_descent_negative_control_rrx(monkeypatch, dat, degrees, kind):
    assert verify_descent(dat, degrees, kind)["ok"]
    _scaled_bracket(monkeypatch, ("y1_1", "y2_1"), F(3, 2))
    rep = verify_descent(dat, degrees, kind)
    assert not rep["ok"] and not rep["checks"]["RRx"]


def test_descent_negative_control_rr0(monkeypatch):
    assert verify_descent(A1, (3,), "trigonometric")["ok"]
    _scaled_bracket(monkeypatch, ("y1_1", "B1"), 2)
    rep = verify_descent(A1, (3,), "trigonometric")
    assert not rep["ok"] and not rep["checks"]["RR0"]


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_descent_a1_degree_6(kind):
    assert verify_descent(A1, (6,), kind)["ok"]


def _descent_by_substitution(dat, degrees, kind):
    """The descent checks as brackets in the spectral parameters z, u:
    each root of Q is substituted into the full residual of QR and RRx,
    and {R_i(z), R_i(u)} must vanish identically."""
    table = BracketTable(dat, degrees, kind, extended=True, extra=("z", "u"))
    n, d, P = dat.rank, dat.d, dat.pairing
    z, u = table.var("z"), table.var("u")
    Qz = [colored_Q(table, i, "z") for i in range(n)]
    Qu = [colored_Q(table, i, "u") for i in range(n)]
    Rz = [colored_R(table, i, "z") for i in range(n)]
    Ru = [colored_R(table, i, "u") for i in range(n)]
    trig = kind == "trigonometric"
    K = (z + u) / (2 * (z - u)) if trig else 1 / (z - u)

    def vanishes_at_roots(expr, *params):  # params: (spectral parameter, color)
        exprs = [expr]
        for s, i in params:
            exprs = [e.subs(s, table.var(f"w{i + 1}_{r}")) for e in exprs
                     for r in range(1, degrees[i] + 1)]
        return all(e.is_zero for e in exprs)

    def qr_rhs(i, j):
        if i != j:
            return 0
        if trig:
            return -d[i] * (K * Qz[i] * Ru[j] - u / (z - u) * Rz[i] * Qu[j])
        return -d[i] / (z - u) * (Qz[i] * Ru[j] - Rz[i] * Qu[j])

    pairs = [(i, j) for i in range(n) for j in range(n)]
    return {
        "QQ": all(table.bracket(Qz[i], Qu[j]).is_zero for i, j in pairs),
        "QR": all(vanishes_at_roots(table.bracket(Qz[i], Ru[j]) - qr_rhs(i, j), ("u", j))
                  for i, j in pairs),
        "RRx": all(vanishes_at_roots(table.bracket(Rz[i], Ru[j]) - P[i][j] * K * Rz[i] * Ru[j],
                                     ("z", i), ("u", j))
                   for i, j in pairs if i != j),
        "RR0": all(table.bracket(Rz[i], Ru[i]).is_zero for i in range(n)),
    }


@pytest.mark.parametrize("dat, degrees", [(A1, (3,)), (A2, (2, 1))])
@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_descent_matches_substitution_route(monkeypatch, dat, degrees, kind):
    """Unperturbed, and with each nonzero coordinate bracket scaled by 2 in
    turn (a zero one scaled is the unperturbed case); then with the zero
    bracket {w1_1, w1_2} raised to 1, which only the dw part of a root
    differential sees."""
    table = BracketTable(dat, degrees, kind, extended=True)
    pairs = [(a, b) for a, b in itertools.combinations(table.coordinates, 2)
             if not table.coordinate_bracket(a, b).is_zero]
    for pair in [None, *pairs]:
        with monkeypatch.context() as m:
            if pair:
                _scaled_bracket(m, pair, 2)
            got = verify_descent(dat, degrees, kind)["checks"]
            assert got == _descent_by_substitution(dat, degrees, kind), pair
    _changed_bracket(monkeypatch, ("w1_1", "w1_2"), lambda value: value + 1)
    got = verify_descent(dat, degrees, kind)["checks"]
    assert got == _descent_by_substitution(dat, degrees, kind)


def _count_colored_R(monkeypatch):
    """Patch ``poisson.colored_R`` to count its calls; returns the count list."""
    calls = []
    original = poisson.colored_R

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(poisson, "colored_R", counted)
    return calls


@pytest.mark.parametrize("dat, degrees", [(A1, (3,)), (A2, (2, 1)), (D4, (2, 1, 1, 1))])
@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_descent_forms_no_interpolant_unperturbed(monkeypatch, dat, degrees, kind):
    """Under the shipped rules no pairing reads a dw_{i,p} entry, so the
    slope R_i' is never formed."""
    calls = _count_colored_R(monkeypatch)
    assert verify_descent(dat, degrees, kind)["ok"]
    assert calls == []


@pytest.mark.parametrize("dat, degrees", [(A1, (3,)), (A2, (2, 1))])
@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_descent_forms_the_slope_when_a_rule_reads_dw(monkeypatch, dat, degrees, kind):
    """With {w1_1, w1_2} raised to 1, RR0 pairs dw1_1 with dw1_2: the
    slope of color 1 is formed, once, and the checks match the
    substitution route."""
    _changed_bracket(monkeypatch, ("w1_1", "w1_2"), lambda value: value + 1)
    with monkeypatch.context() as m:
        calls = _count_colored_R(m)
        got = verify_descent(dat, degrees, kind)["checks"]
    assert calls == [(0, "z")]
    assert got == _descent_by_substitution(dat, degrees, kind)
    assert not got["RR0"]


@pytest.mark.parametrize("dat, degrees", [(A1, (8,)), (A2, (5, 5))])
@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_descent_past_a1_degree_7(dat, degrees, kind):
    rep = verify_descent(dat, degrees, kind)
    assert rep["checks"] == {"QQ": True, "QR": True, "RRx": True, "RR0": True}


def _jacobi_by_cyclic_sums(table):
    """The failing triples of the generic cyclic sum {f,{g,h}} + cyclic."""
    v = table.var
    return [(a, b, c) for a, b, c in itertools.combinations(table.coordinates, 3)
            if not jacobi_check(table, v(a), v(b), v(c)).is_zero]


@pytest.mark.parametrize("dat, degrees, extended", [(A1, (2,), False), (A2, (2, 1), False),
                                                    (A2, (1, 1), True)])
@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_jacobi_report_matches_cyclic_sums(monkeypatch, dat, degrees, extended, kind):
    """Unperturbed, and with each nonzero coordinate bracket changed by
    + w1_1 in turn; each table is built after its patch."""
    table = BracketTable(dat, degrees, kind, extended=extended)
    pairs = [(a, b) for a, b in itertools.combinations(table.coordinates, 2)
             if not table.coordinate_bracket(a, b).is_zero]
    for pair in [None, *pairs]:
        with monkeypatch.context() as m:
            if pair:
                _changed_bracket(m, pair, lambda value: value + value.ring.rat_var("w1_1"))
            rep = jacobi_report(BracketTable(dat, degrees, kind, extended=extended))
            reference = _jacobi_by_cyclic_sums(BracketTable(dat, degrees, kind, extended=extended))
        assert rep["failures"] == reference and rep["ok"] == (not reference), pair
        assert rep["checked"] == math.comb(len(table.coordinates), 3)


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_jacobi_negative_control(monkeypatch, kind):
    controls = [
        (("y1_1", "y1_2"), lambda value: value + value.ring.rat_var("w1_1"),
         [("w1_1", "y1_1", "y1_2"), ("w1_2", "y1_1", "y1_2"), ("y1_1", "y1_2", "y2_1")]),
        (("w1_1", "y1_1"), lambda value: value * value, [("w1_1", "y1_1", "y2_1")]),
        # not a control: a constant rescale of P_12 is still a Poisson bracket
        (("y1_1", "y2_1"), lambda value: value * 2, []),
    ]
    assert jacobi_report(BracketTable(A2, (2, 1), kind))["ok"]
    for pair, change, failures in controls:
        with monkeypatch.context() as m:
            _changed_bracket(m, pair, change)
            rep = jacobi_report(BracketTable(A2, (2, 1), kind))
        assert rep == {"ok": not failures, "checked": 20, "failures": failures}, pair


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_jacobi_extended_charts_and_a2_degree_4(kind):
    tables = [BracketTable(datum(label), degrees, kind, extended=True)
              for label, degrees in _BRACKET_CONFIGS]
    for table in [*tables, BracketTable(A2, (4, 4), kind)]:
        rep = jacobi_report(table)
        assert rep["ok"] and rep["checked"] == math.comb(len(table.coordinates), 3), table.degrees


def test_symplectic_check_reports_a_wrong_form(monkeypatch):
    import zastava.poisson as poisson

    right = poisson.symplectic_form_trig
    pt = {"w1_1": F(1), "y1_1": F(3)}  # B = (0, 3; -3, 0)

    def bent(scale, corner):
        def form(table, point=None):
            rows = [[scale * x for x in row] for row in right(table, point).entries]
            rows[0][0] += corner
            return ExactMatrix(rows)
        return form

    monkeypatch.setattr(poisson, "symplectic_form_trig", bent(2, 0))
    rep = symplectic_check_trig(A1, (1,), pt)
    assert not rep["ok"] and rep["failures"] == [(0, 0, 2), (1, 1, 2)]
    monkeypatch.setattr(poisson, "symplectic_form_trig", bent(1, 1))
    rep = symplectic_check_trig(A1, (1,), pt)
    assert not rep["ok"] and rep["failures"] == [(1, 0, -3)]


def test_symplectic_form_leaves_no_reference_cycle():
    import gc

    table = BracketTable(A2, (2, 1), "trigonometric")
    pt = _chart_point(table, random.Random(2))
    gc.collect()
    for _ in range(3):
        symplectic_form_trig(table, pt)
        symplectic_form_trig(table)
    assert gc.collect() == 0


def test_symplectic_check_names_a_missing_or_inexact_coordinate():
    with pytest.raises(ValueError, match="y1_1"):
        symplectic_check_trig(A1, (1,), {"w1_1": F(2)})
    with pytest.raises(TypeError, match="y1_1"):
        symplectic_check_trig(A1, (1,), {"w1_1": F(2), "y1_1": 0.5})
    assert symplectic_check_trig(A1, (1,), {"w1_1": 2, "y1_1": F(3)})["ok"]

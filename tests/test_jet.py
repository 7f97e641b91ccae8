from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from zastava.jet import Jet, det_jet_cofactor, leading_minors_jet, series_jets
from zastava.multirat import Ring
from zastava.series import series_coefficients

R = Ring(("x", "y", "z"))
COORDS = ("x", "y")  # z is a parameter: no gradient slot
PT = {"x": F(2), "y": F(-3, 2), "z": F(5)}


def _oracle(f):
    return f.evaluate(PT), [f.diff(c).evaluate(PT) for c in COORDS]


def test_arithmetic_matches_symbolic_partials():
    x, y, z = (R.rat_var(n) for n in "xyz")
    jx, jy, jz = (Jet.coordinate(n, PT, COORDS) for n in "xyz")
    sym = (x * y**2 - 3 * z) / (x + 2 * y) ** 2 - 1 / (y - z) + (2 - x) ** 3
    jet = (jx * jy**2 - 3 * jz) / (jx + 2 * jy) ** 2 - 1 / (jy - jz) + (2 - jx) ** 3
    value, grad = _oracle(sym)
    assert (jet.value, list(jet.grad)) == (value, grad)
    read = sym.evaluate({n: Jet.coordinate(n, PT, COORDS) for n in PT})
    assert (read.value, list(read.grad)) == (value, grad)


def test_evaluate_at_jets_raises_at_a_pole():
    x, y, z = (R.rat_var(n) for n in "xyz")
    pole = {"x": F(2), "y": F(2), "z": F(1)}
    jets = {n: Jet.coordinate(n, pole, COORDS) for n in pole}
    with pytest.raises(ZeroDivisionError):
        (z / (x - y)).evaluate(jets)
    with pytest.raises(ZeroDivisionError):
        (1 / (x - y)).evaluate(jets)  # constant numerator
    assert (x / (x - z)).evaluate(jets).value == 2


def test_leading_minors_jet_exact_on_singular_matrix():
    # det [[x, y], [1, z - 3]] = x(z - 3) - y vanishes at x = 1, y = 2, z = 5
    pt = {"x": F(1), "y": F(2), "z": F(5)}
    jx, jy, jz = (Jet.coordinate(n, pt, ("x", "y", "z")) for n in "xyz")
    one = Jet.constant(1, 3)
    d = leading_minors_jet([[jx, jy], [one, jz - 3]])[-1]
    assert d.value == 0
    assert list(d.grad) == [F(2), F(-1), F(1)]


def test_det_jet_cofactor_on_a_singular_3x3_by_hand():
    # det [[x, y, 1], [y, x, 1], [1, 1, z]] = z (x^2 - y^2) - 2 (x - y), which
    # vanishes at x = y = 2, z = 1, with gradient (2 x z - 2, 2 - 2 y z, x^2 - y^2)
    pt = {"x": F(2), "y": F(2), "z": F(1)}
    jx, jy, jz = (Jet.coordinate(n, pt, ("x", "y", "z")) for n in "xyz")
    one = Jet.constant(1, 3)
    d = det_jet_cofactor([[jx, jy, one], [jy, jx, one], [one, one, jz]])
    assert (d.nums, d.den) == ((0, 2, -2, 0), 1)


def _lowest(j):
    return j.den > 0 and gcd(j.den, *j.nums) == 1


def test_entries_are_integers_over_one_denominator_in_lowest_terms():
    j = Jet(F(3, 4), (F(1, 6), F(0), F(-2)))
    assert (j.nums, j.den) == ((9, 2, 0, -24), 12)
    assert (j.value, j.grad) == (F(3, 4), (F(1, 6), F(0), F(-2)))
    # the value 2/2 is not in lowest terms by itself; the jet is
    half = Jet(F(1), (F(1, 2),))
    assert (half.nums, half.den) == ((2, 1), 2)
    assert ((half * half).nums, (half * half).den) == ((1, 1), 1)
    assert ((half**2).nums, (half**2).den) == ((1, 1), 1)
    assert ((half / half).nums, (half / half).den) == ((1, 0), 1)
    assert Jet.coordinate("y", PT, COORDS).nums == (-3, 0, 2)


_entry = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _jet_pairs(draw):
    n = draw(st.integers(0, 3))
    x, y = (Jet(draw(_entry), draw(st.lists(_entry, min_size=n, max_size=n))) for _ in "xy")
    return n, x, y


@given(_jet_pairs(), _entry)
@settings(max_examples=150, deadline=None)
@example((1, Jet(F(1), (F(1, 2),)), Jet(F(-2), (F(1),))), F(2))
@example((1, Jet(F(1, 2), (F(1, 4),)), Jet(F(2), (F(1),))), F(1))  # the product is (1, 1)/1
def test_arithmetic_follows_the_chain_rule_in_lowest_terms(pair, c):
    n, x, y = pair
    u, du, v, dv = x.value, x.grad, y.value, y.grad
    expect = {
        "+": (u + v, [a + b for a, b in zip(du, dv)]),
        "-": (u - v, [a - b for a, b in zip(du, dv)]),
        "*": (u * v, [u * b + v * a for a, b in zip(du, dv)]),
        "c*": (c * u, [c * a for a in du]),
        "c+": (c + u, list(du)),
        "int*": (3 * u, [3 * a for a in du]),
        "int-": (u - 2, list(du)),
        "**3": (u**3, [3 * u**2 * a for a in du]),
    }
    got = {"+": x + y, "-": x - y, "*": x * y, "c*": c * x, "c+": c + x,
           "int*": 3 * x, "int-": x - 2, "**3": x**3}
    if v:
        expect["/"] = (u / v, [(a - u / v * b) / v for a, b in zip(du, dv)])
        got["/"] = x / y
    if c:
        expect["/c"] = (u / c, [a / c for a in du])
        got["/c"] = x / c
    for op, (value, grad) in expect.items():
        assert (got[op].value, list(got[op].grad)) == (value, grad), op
        assert _lowest(got[op]), op


# jet entries with many zero values, so that pivots vanish
_small = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)])


@st.composite
def _jet_matrices(draw):
    size, n = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    rows = [[Jet(draw(_small), draw(st.lists(_small, min_size=n, max_size=n)))
             for _ in range(size)] for _ in range(size)]
    if size > 1 and draw(st.booleans()):  # singular values: one row's values repeat another's
        i, j = draw(st.permutations(range(size)))[:2]
        rows[i] = [Jet(e.value, draw(st.lists(_small, min_size=n, max_size=n)))
                   for e in rows[j]]
    return rows, n


def _zero_pivot(size, k):
    """A size x size matrix of jets over one coordinate x = 1 whose k-th
    leading minor has value 0 and whose other leading minors do not: the
    identity with its (k - 1, k - 1) entry x - 1 and, below k, x in the
    superdiagonal and subdiagonal entries."""
    x = Jet.coordinate("x", {"x": F(1)}, ("x",))
    rows = [[Jet.constant(int(i == j), 1) for j in range(size)] for i in range(size)]
    rows[k - 1][k - 1] = x - 1
    for i in range(k, size):
        rows[i - 1][i] = rows[i][i - 1] = x
    return rows, 1


@given(_jet_matrices())
@settings(max_examples=120, deadline=None)
@example(_zero_pivot(3, 1))  # at the first pivot
@example(_zero_pivot(4, 2))  # mid-pass
@example(_zero_pivot(4, 4))  # at the last pivot, where the pass ends anyway
def test_leading_minors_jet_equals_the_cofactor_reference(case):
    """``leading_minors_jet`` equals the cofactor reference on every
    leading block, also past a zero pivot value, where the blocks come from
    the reference itself."""
    rows, n = case
    minors = leading_minors_jet(rows)
    assert len(minors) == len(rows)
    for s, got in enumerate(minors, start=1):
        ref = det_jet_cofactor([row[:s] for row in rows[:s]])
        assert len(got.nums) == n + 1
        assert (got.nums, got.den) == (ref.nums, ref.den), s


def test_leading_minors_jet_past_a_zero_leading_value():
    # det [[y, x], [x, 0]] = -x^2 at x = 2, y = 0: the first pivot vanishes,
    # and the second minor comes from the cofactor route
    pt = {"x": F(2), "y": F(0), "z": F(0)}
    jx, jy = (Jet.coordinate(n, pt, ("x", "y")) for n in "xy")
    first, d = leading_minors_jet([[jy, jx], [jx, Jet.constant(0, 2)]])
    assert first.value == 0
    assert (d.value, list(d.grad)) == (F(-4), [F(-4), F(0)])


def _series_pair(point, coords, a):
    """``series_jets`` and the generic ``series_coefficients`` of the
    coordinate jets, each as (nums, den) pairs."""
    w_names = [f"w{r}" for r in range(a)]
    y_names = [f"y{r}" for r in range(a)]
    got = series_jets(point, coords, w_names, y_names, 2 * a)
    ref = series_coefficients([Jet.coordinate(w, point, coords) for w in w_names],
                              [Jet.coordinate(y, point, coords) for y in y_names], 2 * a)
    return [(x.nums, x.den) for x in got], [(x.nums, x.den) for x in ref]


_chart_value = st.builds(F, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def _series_points(draw):
    """Distinct w and any y, both with denominators 1..4, at a = 1..8, and
    coordinates in any order that may omit some w or y and list a name
    that is neither."""
    a = draw(st.integers(1, 8))
    ws = draw(st.lists(_chart_value, min_size=a, max_size=a, unique=True))
    ys = draw(st.lists(_chart_value, min_size=a, max_size=a))
    point = {f"w{r}": w for r, w in enumerate(ws)} | {f"y{r}": y for r, y in enumerate(ys)}
    coords = draw(st.lists(st.sampled_from([*point, "z"]), unique=True))
    return point, tuple(coords), a


@given(_series_points())
@settings(max_examples=150, deadline=None)
def test_series_jets_equal_the_generic_route(case):
    got, ref = _series_pair(*case)
    assert got == ref


def test_series_jets_equal_the_generic_route_at_a_16():
    a = 16
    point = {f"w{r}": F(2 * r - 15, 1 + r % 4) for r in range(a)}
    point |= {f"y{r}": F(7 * r % 19 - 9, 1 + r % 3) for r in range(a)}
    got, ref = _series_pair(point, tuple(point), a)
    assert got == ref


def test_series_jets_at_a_repeated_w_raise():
    point = {"w0": F(1, 2), "w1": F(2), "w2": F(2, 4), "y0": F(1), "y1": F(3), "y2": F(-1)}
    coords = ("w0", "y2")
    with pytest.raises(ZeroDivisionError):
        series_jets(point, coords, ["w0", "w1", "w2"], ["y0", "y1", "y2"], 6)
    with pytest.raises(ZeroDivisionError):  # as the generic route does
        series_coefficients([Jet.coordinate(w, point, coords) for w in ("w0", "w1", "w2")],
                            [Jet.coordinate(y, point, coords) for y in ("y0", "y1", "y2")], 6)

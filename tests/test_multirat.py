from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from zastava.multirat import Ring
from zastava.series import series_coefficients

R = Ring(("x", "y", "z"))
x, y, z = R.rat_var("x"), R.rat_var("y"), R.rat_var("z")


def small_rats():
    consts = st.fractions(min_value=-5, max_value=5, max_denominator=3).map(R.rat_const)
    vars_ = st.sampled_from([x, y, z])
    atoms = st.one_of(consts, vars_)

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: t[0] + t[1]),
            st.tuples(children, children).map(lambda t: t[0] * t[1]),
        )

    return st.recursive(atoms, extend, max_leaves=6)


def test_semantic_equality():
    a = (x * x - y * y) / (x - y)
    b = x + y
    assert a == b
    assert (x / y) * (y / x) == R.rat_const(1)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        x / (y - y)


def test_diff_quotient_rule():
    f = x / y
    assert f.diff("x") == R.rat_const(1) / y
    assert f.diff("y") == -x / (y * y)


def test_subs_and_evaluate():
    f = (x + y) / z
    g = f.subs("x", z)
    assert g == (z + y) / z
    assert f.evaluate({"x": F(1), "y": F(2), "z": F(3)}) == F(1)


def test_depends_on():
    f = (x + y) / (x - y)
    assert f.depends_on("x") and f.depends_on("y") and not f.depends_on("z")


def test_pow():
    assert (x + y) ** 2 == x * x + R.rat_const(2) * x * y + y * y
    assert x ** 0 == R.rat_const(1)


@settings(max_examples=40, deadline=None)
@given(small_rats(), small_rats(), small_rats())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


def test_series_coefficient_two_roots():
    ring = Ring(("w1", "w2", "y1", "y2"))
    w1, w2, y1, y2 = (ring.rat_var(n) for n in ("w1", "w2", "y1", "y2"))
    c1 = series_coefficients([w1, w2], [y1, y2], 2)[1]
    val = c1.evaluate({"w1": F(1), "w2": F(3), "y1": F(2), "y2": F(4)})
    assert val == 5  # 2*1/(1-3) + 4*3/(3-1)


def test_series_coefficient_single_root():
    ring = Ring(("w1", "y1"))
    w, yv = ring.rat_var("w1"), ring.rat_var("y1")
    c = series_coefficients([w], [yv], 3)
    assert c[0] == yv
    assert c[2] == yv * w * w

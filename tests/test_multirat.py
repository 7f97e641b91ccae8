from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from zastava.multirat import MAX_EXPONENT, MultiPoly, MultiRat, Ring
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


def test_str_pins_term_order_and_normal_form():
    # terms ascend in lexicographic exponent order (x first); the common
    # monomial y is stripped and the first denominator term is scaled to 1
    f = ((x + 2 * y) ** 2 * z - x / 3) / (3 * y * z + x**2 * y)
    assert str(f) == "(4/3*y^2*z + -1/9*x + 4/3*x*y*z + 1/3*x^2*z) / (y*z + 1/3*x^2*y)"
    assert str((x + y) * (x - y)) == "-1*y^2 + x^2"
    g = (x * y * z + F(1, 2) * x**2 * z) / (F(2, 3) * x * z**2 - y * z)
    assert str(g) == "(-1*x*y + -1/2*x^2) / (y + -2/3*x*z)"
    assert str(f.diff("y")) == (
        "(4/3*y^2*z^2 + 1/9*x*z + -1/3*x^2*z^2 + 4/9*x^2*y^2*z + 1/27*x^3 + -1/9*x^4*z)"
        " / (y^2*z^2 + 2/3*x^2*y^2*z + 1/9*x^4*y^2)"
    )


def test_exponent_overflow_raises():
    with pytest.raises(OverflowError):
        x ** (2**15)
    half = x ** (2**14)
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        R.pack((0, MAX_EXPONENT + 1, 0))
    # the largest exponent stays in its own field
    top = z**MAX_EXPONENT * y
    assert str(top) == f"y*z^{MAX_EXPONENT}"
    with pytest.raises(OverflowError):
        top * z


@st.composite
def _ring_and_terms(draw, count):
    """A ring of 3-5 variables and `count` maps exponent tuple -> coefficient."""
    n = draw(st.integers(3, 5))
    ring = Ring(tuple(f"v{i}" for i in range(n)))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)
    maps = st.dictionaries(exps, coeffs, max_size=4)
    return ring, draw(st.lists(maps, min_size=count, max_size=count))


def _poly(ring: Ring, terms: dict) -> MultiPoly:
    out = ring.zero()
    for e, c in terms.items():
        mono = ring.const(c)
        for name, k in zip(ring.names, e):
            mono = mono * ring.var(name) ** k
        out = out + mono
    return out


def _sympy_poly(sympy, ring: Ring, terms: dict):
    gens = sympy.symbols(ring.names)
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(g**k for g, k in zip(gens, e)))
        for e, c in terms.items()
    ))


def _terms(sympy, ring: Ring, expr) -> dict:
    """Exponent tuple -> Fraction of an expression, read by sympy."""
    poly = sympy.Poly(expr, *sympy.symbols(ring.names))
    return {e: _fraction(c) for e, c in poly.as_dict().items()}


def _unpacked(p: MultiPoly) -> dict:
    return {p.ring.unpack(key): p.content * v for key, v in p.terms.items()}


@settings(max_examples=60, deadline=None)
@given(_ring_and_terms(3), st.data())
def test_kernel_matches_sympy(ring_terms, data):
    sympy = pytest.importorskip("sympy")
    ring, maps = ring_terms
    p, q, r = (_poly(ring, m) for m in maps)
    sp, sq, sr = (_sympy_poly(sympy, ring, m) for m in maps)
    assert _unpacked(p) == maps[0]
    assert _unpacked(p * q) == _terms(sympy, ring, sp * sq)
    assert _unpacked(p + q) == _terms(sympy, ring, sp + sq)
    # the normal form is unique: equal polynomials have equal fields
    assert p * q == q * p and (p + q) - q == p and (p * 3 - p) * F(1, 2) == p
    # the cross terms cancel: no zero coefficient may stay behind
    assert _unpacked((p + q) * (p - q)) == _terms(sympy, ring, sp * sp - sq * sq)
    name = data.draw(st.sampled_from(ring.names))
    assert _unpacked(p.diff(name)) == _terms(sympy, ring, sympy.diff(sp, name))
    # substitution of a polynomial keeps a polynomial with denominator 1
    sub = MultiRat(p, ring.const(1)).subs(name, MultiRat(q, ring.const(1)))
    assert sub.den == ring.const(1)
    assert _unpacked(sub.num) == _terms(sympy, ring, sympy.expand(sp.subs(name, sq)))
    point = {n: data.draw(st.fractions(-4, 4, max_denominator=3)) for n in ring.names}
    at = {sympy.Symbol(n): sympy.Rational(v.numerator, v.denominator)
          for n, v in point.items()}
    assert p.evaluate(point) == _fraction(sp.subs(at))
    # a rational value r/q, compared by value at the point (the unreduced
    # result is too large for sympy to cancel quickly)
    if not q.is_zero and sq.subs(at) != 0:
        value = MultiRat(r, q)
        inner = {**at, sympy.Symbol(name): sr.subs(at) / sq.subs(at)}
        if not q.subs(name, value).is_zero and sq.subs(inner) != 0:
            f = MultiRat(p, q).subs(name, value)
            assert f.evaluate(point) == _fraction(sp.subs(inner) / sq.subs(inner))


def _fraction(value) -> F:
    return F(int(value.p), int(value.q))

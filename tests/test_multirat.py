import copy
import pickle
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from zastava.jet import Jet
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
    # through a denominator factor or the denominator monomial alone
    g = z / (x - y)
    assert g.depends_on("x") and g.depends_on("y") and g.depends_on("z")
    assert (1 / x).depends_on("x") and not (1 / x).depends_on("y")


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
    # the derivative raises the factor 3*z + x^2 and keeps the monomial y
    df = f.diff("y")
    assert str(df) == "(4/3*y^2*z + 1/9*x + -1/3*x^2*z) / (y^2*z + 1/3*x^2*y^2)"
    # ... and equals the quotient over the squared denominator
    squared = (
        F(4, 3) * y**2 * z**2 + F(1, 9) * x * z - F(1, 3) * x**2 * z**2
        + F(4, 9) * x**2 * y**2 * z + F(1, 27) * x**3 - F(1, 9) * x**4 * z
    ) / (y**2 * z**2 + F(2, 3) * x**2 * y**2 * z + F(1, 9) * x**4 * y**2)
    assert df == squared


def test_factor_multiset():
    # w - w' and w' - w are one factor, stored positive at its largest key
    a, b = 1 / (x - y), -1 / (y - x)
    assert len(a.factors) == 1 and a.factors == b.factors and a.top == b.top
    assert len((a + b).factors) == 1
    # a sum goes over the lcm: the larger exponent of a shared factor
    s = a + a * a / z
    assert s.factors == {(x - y).top: 2} and s * (x - y) ** 2 * z == (x - y) * z + 1
    # a derivative raises only the factors that depend on the variable
    f = (x - y) ** -2 / z
    assert f.factors == {(x - y).top: 2}
    fx = f.diff("x")
    assert fx.factors == {(x - y).top: 3} and fx.mono == f.mono
    assert fx == -2 / ((x - y) ** 3 * z)
    fz = f.diff("z")
    assert fz.factors == f.factors and fz == -f / z
    # a factor that becomes zero is a division by zero
    with pytest.raises(ZeroDivisionError):
        a.subs("y", x)
    assert (a * (x - y)).subs("y", z) == 1


_POINT = st.fractions(-5, 5, max_denominator=4).filter(bool)


@st.composite
def _factored(draw):
    """c * (product of linear forms) / (monomial * product of linear forms),
    built by one division per factor; forms drawn from a small pool (up to
    sign and scale) repeat factors with different exponents."""
    def form():
        a, b, c, d = draw(st.one_of(
            st.sampled_from([(1, -1, 0, 0), (0, 1, 0, 2), (1, 0, 1, -1)]),
            st.tuples(*[st.integers(-2, 2)] * 4).filter(lambda t: any(t[:3])),
        ))
        return (a * x + b * y + c * z + d) * draw(st.sampled_from([1, -1, F(2, 3)]))

    q = R.rat_const(draw(st.fractions(-4, 4, max_denominator=3).filter(bool)))
    for _ in range(draw(st.integers(0, 2))):
        q = q * form()
    for _ in range(draw(st.integers(0, 3))):
        q = q / form()
    for v, k in zip((x, y, z), draw(st.tuples(*[st.integers(0, 2)] * 3))):
        q = q / v**k
    return q


def _value(f, point):
    try:
        return f.evaluate(point)
    except ZeroDivisionError:
        return None


@settings(max_examples=80, deadline=None)
@given(_factored(), _factored(), st.integers(-2, 3), st.sampled_from("xyz"),
       st.fixed_dictionaries({n: _POINT for n in "xyz"}))
def test_factored_ops_match_values(a, b, n, name, point):
    va, vb = _value(a, point), _value(b, point)
    if va is None or vb is None or va == 0 or vb == 0:
        return
    assert (a + b).evaluate(point) == va + vb
    assert (a - b).evaluate(point) == va - vb
    assert (a * b).evaluate(point) == va * vb
    assert (a / b).evaluate(point) == va / vb
    assert (a**n).evaluate(point) == va**n
    # the derivative against the gradient of exact jets at the point
    names = ("x", "y", "z")
    jets = {v: Jet.coordinate(v, point, names) for v in names}
    grad = (Jet.constant(0, 3) + a.evaluate(jets)).grad
    assert a.diff(name).evaluate(point) == grad[names.index(name)]
    # substituting b for the variable, against a at the moved point
    expect = _value(a, {**point, name: vb})
    if expect is not None:
        assert a.subs(name, b).evaluate(point) == expect


@pytest.mark.parametrize("f", [
    (x + 2 * y) / (x**2 * y),
    (x * y + 1) / ((x - y) ** 2 * (y + z)),
    (x - z) / (y * (x + y)),
], ids=["monomial", "factors", "both"])
@pytest.mark.parametrize("c", [3, -2, 0, F(5, 7), F(-3, 2), F(0)])
def test_scaling_by_a_number_matches_the_coerced_route(f, c):
    """Multiplying or dividing by a number scales the content of the
    numerator; the fields equal those of the product with, or quotient by,
    the constant rational function."""
    const = R.rat_const(c)

    def fields(r):
        return r.top, r.mono, r.factors

    assert fields(f * c) == fields(f * const)
    assert fields(c * f) == fields(const * f)
    if c:
        assert fields(f / c) == fields(f / const)
    else:
        with pytest.raises(ZeroDivisionError):
            f / c


def test_polynomial_and_rational_operands_mix_either_way():
    """A MultiPoly leaves a MultiRat operand to the MultiRat's reflected
    operators: poly o rat equals rat o poly for +, - and *, and both equal
    the route through the polynomial taken as a MultiRat."""
    poly = R.var("x") * R.var("y") + R.const(F(1, 2))
    rat = (x - z) / (y + 1)
    as_rat = MultiRat(poly, R.const(1))
    assert poly + rat == rat + poly == as_rat + rat
    assert poly - rat == -(rat - poly) == as_rat - rat
    assert poly * rat == rat * poly == as_rat * rat
    for got in (poly + rat, poly - rat, poly * rat):
        assert isinstance(got, MultiRat)


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


def _normal(p: MultiPoly) -> None:
    """The content pair is in lowest terms with a positive denominator, zero
    is (0, 1), and the integer part is primitive and positive at its
    largest key."""
    assert p.cden > 0 and gcd(p.cnum, p.cden) == 1
    if p.is_zero:
        assert (p.cnum, p.cden) == (0, 1)
    else:
        assert p.cnum and gcd(*p.terms.values()) == 1 and p.terms[max(p.terms)] > 0


def _content_of(coeffs: dict) -> F:
    """The content of a polynomial with these exact coefficients, in
    Fractions: their rational gcd, signed by the coefficient at the largest
    key, as the Fraction-based kernel computed it."""
    if not coeffs:
        return F(0)
    g = F(gcd(*(c.numerator for c in coeffs.values())),
          lcm(*(c.denominator for c in coeffs.values())))
    return g if coeffs[max(coeffs)] > 0 else -g


def _coeffs(p: MultiPoly) -> dict:
    return {k: p.content * v for k, v in p.terms.items()}


def _nonzero(coeffs: dict) -> dict:
    return {k: c for k, c in coeffs.items() if c}


@settings(max_examples=60, deadline=None)
@given(_ring_and_terms(2), st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=5)),
       st.data())
def test_kernel_keeps_the_content_pair_reduced(ring_terms, scalar, data):
    ring, maps = ring_terms
    p, q = (_poly(ring, m) for m in maps)
    cp, cq = _coeffs(p), _coeffs(q)
    name = data.draw(st.sampled_from(ring.names))
    s = ring.shifts[ring.index[name]]
    field = lambda k: (k >> s) & 0xFFFF  # noqa: E731
    product: dict = {}
    for ka, a in cp.items():
        for kb, b in cq.items():
            product[ka + kb] = product.get(ka + kb, 0) + a * b
    expected = [
        (p + q, _nonzero({k: cp.get(k, 0) + cq.get(k, 0) for k in {*cp, *cq}})),
        (p - q, _nonzero({k: cp.get(k, 0) - cq.get(k, 0) for k in {*cp, *cq}})),
        (p * q, _nonzero(product)),
        (p * scalar, _nonzero({k: c * scalar for k, c in cp.items()})),
        (scalar * p, _nonzero({k: c * scalar for k, c in cp.items()})),
        (p.diff(name), {k - (1 << s): c * field(k) for k, c in cp.items() if field(k)}),
        (ring.zero(), {}),
        (ring.const(scalar), _nonzero({0: F(scalar)})),
    ]
    degree = max(map(field, cp), default=0)
    for e, part in enumerate(p.by_degree_in(name)):
        expected.append((part, {k - (e << s): c for k, c in cp.items() if field(k) == e}))
    for result, coeffs in expected:
        _normal(result)
        assert _coeffs(result) == coeffs
        assert result.content == _content_of(coeffs)
    assert len(p.by_degree_in(name)) == degree + 1


@settings(max_examples=40, deadline=None)
@given(_ring_and_terms(2))
def test_polynomials_are_immutable_and_hash_by_value(ring_terms):
    ring, maps = ring_terms
    p, q = (_poly(ring, m) for m in maps)
    for attr, value in (("terms", {}), ("cnum", 2), ("cden", 3), ("ring", ring), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(p, attr, value)
    with pytest.raises(AttributeError):
        del p.terms
    assert p == _poly(ring, maps[0]) == copy.deepcopy(p) == pickle.loads(pickle.dumps(p))
    # equal polynomials built by different routes are one dict key
    pairs = [(p * q, q * p), ((p + q) - q, p), (p * 2 * F(1, 2), p), (-(-p), p)]
    for left, right in pairs:
        assert left == right and hash(left) == hash(right)
        assert {left: 1}[right] == 1


def _term_by_term(p: MultiPoly, vals: dict):
    """The value of p with every power formed afresh for each term."""
    total = 0
    for key, c in p.terms.items():
        t = c
        for name, k in zip(p.ring.names, p.ring.unpack(key)):
            if k:
                t = t * vals[name] ** k
        total = total + t
    return p.content * total


@settings(max_examples=60, deadline=None)
@given(small_rats(), st.fixed_dictionaries(
    {v: st.fractions(min_value=-4, max_value=4, max_denominator=3) for v in ("x", "y", "z")}))
def test_evaluate_reuses_powers_without_changing_the_value(a, point):
    names = ("x", "y", "z")
    jets = {v: Jet.coordinate(v, point, names) for v in names}
    for p in (a.top, (a * a).top):
        assert p.evaluate(point) == _term_by_term(p, point)
        zero = Jet.constant(0, 3)  # a constant polynomial evaluates to a Fraction
        got, ref = zero + p.evaluate(jets), zero + _term_by_term(p, jets)
        assert (got.value, got.grad) == (ref.value, ref.grad)

from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from zastava.unipoly import (
    UniPoly,
    lagrange_interpolate,
    poly_divmod,
    poly_gcd,
    rational_roots,
)

scalars = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)
polys = st.lists(scalars, max_size=6).map(UniPoly)


def test_divmod_exact_factor():
    q, r = poly_divmod(UniPoly([3, -4, 1]), UniPoly([-1, 1]))
    assert q == UniPoly([-3, 1])
    assert r.is_zero


def test_divmod_degree_shortfall():
    q, r = poly_divmod(UniPoly([1, 1]), UniPoly([0, 0, 1]))
    assert q.is_zero and r == UniPoly([1, 1])


def test_divmod_cube():
    q, r = poly_divmod(UniPoly.monomial(3), UniPoly([-2, 1]))
    assert q == UniPoly([4, 2, 1])
    assert r == UniPoly([8])


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(UniPoly([1]), UniPoly.zero())


@given(polys, polys)
def test_divmod_reconstruction(a, b):
    if b.is_zero:
        return
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


def test_lagrange_line():
    assert lagrange_interpolate([(F(1), F(2)), (F(3), F(4))]) == UniPoly([1, 1])


def test_lagrange_zero_values():
    assert lagrange_interpolate([(F(5), F(0))]).is_zero


def test_lagrange_constant():
    assert lagrange_interpolate([(F(2), F(3))]) == UniPoly([3])


def test_lagrange_repeated_abscissa():
    with pytest.raises(ValueError):
        lagrange_interpolate([(F(1), F(2)), (F(1), F(3))])


def test_zero_poly_degree_sentinel():
    assert UniPoly.zero().degree is None
    assert UniPoly([0, 0]).degree is None
    assert UniPoly([0, 5]).degree == 1


def test_coeff_out_of_range():
    p = UniPoly([1, 2])
    assert p.coeff(5) == 0 and p.coeff(-1) == 0


def test_from_roots_and_eval():
    p = UniPoly.from_roots([F(1), F(3)])
    assert p == UniPoly([3, -4, 1])
    assert p(F(1)) == 0 and p(F(3)) == 0 and p(F(0)) == 3


def test_gcd_monic():
    g = poly_gcd(UniPoly([-1, 0, 1]), UniPoly([1, 1]))
    assert g == UniPoly([1, 1])
    assert poly_gcd(UniPoly([3, -4, 1]), UniPoly([1, 1])).degree == 0


def test_rational_roots():
    p = UniPoly.from_roots([F(1, 2), F(-3), F(0)])
    assert sorted(rational_roots(p)) == [F(-3), F(0), F(1, 2)]
    assert rational_roots(UniPoly([1, 0, 1])) == []


def test_rational_roots_order_and_multiplicity():
    # recover_coords builds w in this order: roots at 0 first, then ascending
    roots = [F(2), F(0), F(-3), F(1, 2), F(0), F(1, 2), F(-2, 3)]
    p = UniPoly.from_roots(roots) * F(-7, 5)
    assert rational_roots(p) == [F(0), F(0), F(-3), F(-2, 3), F(1, 2), F(1, 2), F(2)]
    assert rational_roots(UniPoly.from_roots([F(1, 3)]) * UniPoly([1, 0, 1])) == [F(1, 3)]
    assert rational_roots(UniPoly([0, 0, 5])) == [F(0), F(0)]
    assert rational_roots(UniPoly([2**60])) == []


def test_rational_roots_bound_reads_cleared_numerators():
    # (z + 2^40 + 1)/2: every coefficient is below 2^40 in value, but the
    # constant with the denominator cleared is not
    with pytest.raises(ValueError, match=r"2\^40"):
        rational_roots(UniPoly([F(2**40 + 1, 2), F(1, 2)]))
    assert rational_roots(UniPoly([F(-(2**20), 3), F(1, 3)])) == [F(2**20)]


def test_rational_roots_rejects_wide_coefficients():
    # trial division over a 60-bit constant or leading coefficient would run
    # for minutes; the search stops at once with the limit in the message
    for p in (UniPoly([2**60 + 3, 0, 1]), UniPoly([1, 0, 2**60 + 3]),
              UniPoly([F(1, 2**60), 1])):
        with pytest.raises(ValueError, match=r"2\^40"):
            rational_roots(p)
    assert rational_roots(UniPoly([-(2**40), 1])) == [F(2**40)]


def test_rational_roots_search_the_primitive_part():
    # the gcd of the numerators is divided out first: z^2 + 1 times a number
    # with 6720 divisors searches only 1 and -1, and 2^41 (z - 1)(z - 2) is
    # within the limit
    assert rational_roots(UniPoly([963761198400, 0, 963761198400])) == []
    assert rational_roots(UniPoly.from_roots([1, 2]) * 2**41) == [F(1), F(2)]
    assert rational_roots(UniPoly([0, 0, -(2**50), 2**50]) * F(1, 3)) == [F(0), F(0), F(1)]


def test_json_round_trip():
    p = UniPoly([F(1, 3), F(-2), F(0), F(5)])
    assert UniPoly.from_json(p.to_json()) == p
    assert p.to_json() == ["1/3", "-2", "0", "5"]


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a


def test_float_coefficient_rejected():
    with pytest.raises(TypeError, match=r"0\.1"):
        UniPoly([1, 0.1])
    with pytest.raises(TypeError):
        UniPoly.const(2.0)
    assert UniPoly(["-1/2", 3]) == UniPoly([F(-1, 2), 3])


def test_normal_form_and_immutability():
    p = UniPoly([F(1, 2), F(-3, 4), 0, 0])
    q = UniPoly([F(2, 4), F(-6, 8)])
    assert (p.nums, p.den) == (q.nums, q.den) == ((2, -3), 4)
    assert hash(p) == hash(q) and p == q
    z = UniPoly([0, F(0, 3)])
    assert (z.nums, z.den) == ((), 1) and z == UniPoly.zero()
    assert repr(p) == "UniPoly(coeffs=(Fraction(1, 2), Fraction(-3, 4)))"
    for attr, value in (("nums", (1,)), ("den", 2), ("coeffs", ())):
        with pytest.raises(AttributeError):
            setattr(p, attr, value)
    assert p == q and p.coeff(1) == F(-3, 4)


# -- differential test of the integer kernel against Fraction lists --------


def _ref(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_at(cs, k):
    return cs[k] if 0 <= k < len(cs) else F(0)


def _ref_add(a, b, sign=1):
    return _ref(_ref_at(a, k) + sign * _ref_at(b, k) for k in range(max(len(a), len(b))))


def _ref_mul(a, b):
    out = [F(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


def _ref_divmod(a, b):
    rem, quot = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        f = rem[k + len(b) - 1] / b[-1]
        quot[k] = f
        for j, y in enumerate(b):
            rem[k + j] -= f * y
    return _ref(quot), _ref(rem)


def _ref_eval(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _ref_from_roots(roots):
    out = (F(1),)
    for w in roots:
        out = _ref_mul(out, (-w, F(1)))
    return out


def _same(p, ref):
    """p has the reference coefficients and is stored in normal form."""
    q = UniPoly(ref)
    normal = p.den > 0 and gcd(p.den, *p.nums) == 1 and (not p.nums or p.nums[-1] != 0)
    return normal and p.coeffs == ref and (p.nums, p.den) == (q.nums, q.den) and hash(p) == hash(q)


@settings(max_examples=100)
@given(polys, polys, scalars)
def test_kernel_matches_fraction_reference(a, b, s):
    ra, rb = _ref(a.coeffs), _ref(b.coeffs)
    assert _same(a + b, _ref_add(ra, rb))
    assert _same(a - b, _ref_add(ra, rb, -1))
    assert _same(-a, _ref(-c for c in ra))
    assert _same(a * b, _ref_mul(ra, rb))
    assert _same(a * s, _ref(c * s for c in ra)) and _same(s * a, _ref(c * s for c in ra))
    assert _same(a * -3, _ref(-3 * c for c in ra))
    assert _same(a.derivative(), _ref(k * c for k, c in enumerate(ra) if k))
    assert _same(a.shift(2), _ref((0, 0) + ra) if ra else ())
    for x in (s, 3, -2, F(7, 2**70)):
        assert a(x) == _ref_eval(ra, x)
    if not b.is_zero:
        q, r = poly_divmod(a, b)
        rq, rr = _ref_divmod(ra, rb)
        assert _same(q, rq) and _same(r, rr)
        g, h = ra, rb
        while h:
            g, h = h, _ref_divmod(g, h)[1]
        assert _same(poly_gcd(a, b), _ref(c / g[-1] for c in g))
    assert UniPoly.zero()(s) == 0 and UniPoly.zero()(5) == 0


@settings(max_examples=50)
@given(st.lists(scalars, max_size=5, unique=True), st.lists(scalars, min_size=5, max_size=5))
def test_roots_and_interpolation_match_fraction_reference(ws, ys):
    assert _same(UniPoly.from_roots(ws), _ref_from_roots(ws))
    nodes = list(zip(ws, ys))
    expect = ()
    for r, (w, v) in enumerate(nodes):
        basis, den = (F(1),), F(1)
        for s_, (u, _) in enumerate(nodes):
            if s_ != r:
                basis = _ref_mul(basis, (-u, F(1)))
                den *= w - u
        expect = _ref_add(expect, _ref(c * v / den for c in basis))
    p = lagrange_interpolate(nodes)
    assert _same(p, expect)
    assert all(p(w) == v for w, v in nodes)


def test_shift_and_derivative():
    assert UniPoly([1, 1]).shift(2) == UniPoly([0, 0, 1, 1])
    assert UniPoly([3, -4, 1]).derivative() == UniPoly([-4, 2])


def _divisors_of(n: int) -> list[int]:
    n = abs(n)
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


def _divisor_search(p: UniPoly) -> list[F]:
    """Every rational root of p with multiplicity, by testing each c/d with c
    dividing the constant and d the leading numerator, unpruned."""
    zeros = next(k for k, c in enumerate(p.nums) if c)
    rest = UniPoly(p.coeffs[zeros:])
    found = []
    for c in _divisors_of(rest.nums[0]):
        for d in _divisors_of(rest.nums[-1]):
            for x in {F(c, d), F(-c, d)}:
                while rest.degree and rest(x) == 0:
                    found.append(x)
                    rest = poly_divmod(rest, UniPoly([-x, 1]))[0]
    return [F(0)] * zeros + sorted(found)


_ROOTS = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), max_size=6)


@settings(max_examples=100, deadline=None)
@given(_ROOTS, st.booleans(), st.fractions(min_value=-7, max_value=7, max_denominator=5))
@example([F(2), F(2), F(2), F(-1, 3), F(-1, 3)], False, F(1))
@example([F(0), F(0), F(5, 4)], True, F(-3, 2))
@example([F(1), F(-1), F(1, 2), F(-1, 2)], True, F(1))
@example([], True, F(2))
def test_rational_roots_match_the_divisor_search(roots, quadratic, scale):
    """Products of (q z - p) with repeated roots, roots at zero and an
    irreducible quadratic factor (z^2 + 2z + 3): the pruned search finds what
    the full divisor search finds, in its order."""
    if scale == 0:
        scale = F(1)
    p = UniPoly.from_roots(roots) * scale
    if quadratic:
        p = p * UniPoly([3, 2, 1])
    expected = sorted(roots, key=lambda x: (x != 0, x))
    assert rational_roots(p) == expected == _divisor_search(p)


def test_rational_roots_splits_a_degree_twelve_product():
    # constant 12! and leading coefficient 1, then with denominators 1..4
    roots = [F((-1) ** k * (k + 1)) for k in range(12)]
    assert rational_roots(UniPoly.from_roots(roots)) == sorted(roots)
    roots = [F(k, 1 + k % 4) for k in range(-6, 7) if k]
    assert rational_roots(UniPoly.from_roots(roots)) == sorted(roots)

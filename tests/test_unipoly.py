from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

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


def test_rational_roots_rejects_wide_coefficients():
    # trial division over a 60-bit constant or leading coefficient would run
    # for minutes; the search stops at once with the limit in the message
    for p in (UniPoly([2**60 + 3, 0, 1]), UniPoly([1, 0, 2**60 + 3]),
              UniPoly([F(1, 2**60), 1])):
        with pytest.raises(ValueError, match=r"2\^40"):
            rational_roots(p)
    assert rational_roots(UniPoly([-(2**40), 1])) == [F(2**40)]


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


def test_shift_and_derivative():
    assert UniPoly([1, 1]).shift(2) == UniPoly([0, 0, 1, 1])
    assert UniPoly([3, -4, 1]).derivative() == UniPoly([-4, 2])

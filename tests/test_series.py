from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from zastava.series import InfSeries, series_expand
from zastava.unipoly import UniPoly


def test_geometric():
    s = series_expand(UniPoly([3]), UniPoly([-2, 1]), 4)
    assert list(s.coeffs) == [3, 6, 12, 24]


def test_partial_fractions_example():
    s = series_expand(UniPoly([1, 1]), UniPoly([3, -4, 1]), 4)
    assert list(s.coeffs) == [1, 5, 17, 53]
    # partial-fraction oracle: -1*1^j + 2*3^j
    for j, c in enumerate(s.coeffs):
        assert c == -1 + 2 * F(3) ** j


def test_zero_numerator():
    s = series_expand(UniPoly.zero(), UniPoly([-1, 1]), 3)
    assert list(s.coeffs) == [0, 0, 0]


def test_degree_precondition():
    with pytest.raises(ValueError):
        series_expand(UniPoly([0, 0, 1]), UniPoly([1, 1]), 3)


def test_truncation_guard():
    s = InfSeries((F(1), F(2)))
    assert s.coeff(1) == 2
    with pytest.raises(IndexError):
        s.coeff(2)


def test_non_monic_denominator():
    # 6/(2z-4) = 3/(z-2): same expansion
    s = series_expand(UniPoly([6]), UniPoly([-4, 2]), 3)
    assert list(s.coeffs) == [3, 6, 12]


# rationals with small and very wide denominators (up to 2^70)
_wide = st.builds(
    F,
    st.integers(-99, 99) | st.integers(-(2**70), 2**70),
    st.integers(1, 9) | st.just(2**70) | st.integers(1, 2**70),
)


def _fraction_recurrence(R, Q, n):
    """c_j = (r_{a-1-j} - sum_{k<j} q_{a+k-j} c_k) / q_a on Fractions."""
    a = Q.degree
    cs = []
    for j in range(n):
        acc = R.coeff(a - 1 - j)
        for k in range(j):
            acc -= Q.coeff(a + k - j) * cs[k]
        cs.append(acc / Q.coeff(a))
    return cs


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_wide, min_size=1, max_size=5),
    _wide.filter(bool),
    st.lists(_wide, max_size=5),
    st.integers(0, 12),
)
@example([F(1, 3), F(-2, 2**70)], F(7, 2**70), [], 6)
@example([F(1, 3), F(-2, 2**70)], F(-3), [F(5, 2**70), 1], 8)
def test_series_expand_matches_fraction_recurrence(low, lead, rco, n):
    # Q non-monic with leading coefficient lead; R may be zero
    Q = UniPoly(low + [lead])
    R = UniPoly(rco[: Q.degree])
    s = series_expand(R, Q, n)
    assert all(isinstance(c, F) for c in s.coeffs)
    assert list(s.coeffs) == _fraction_recurrence(R, Q, n)

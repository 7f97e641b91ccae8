import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from zastava import linalg
from zastava.bench import preflight
from zastava.linalg import (
    ExactMatrix,
    det,
    hankel_matrix,
    hankel_minor_C,
    hankel_minor_D,
    solve_linear,
    subresultant_even,
    subresultant_odd,
    sylvester_matrix,
)
from zastava.series import InfSeries, series_expand
from zastava.unipoly import UniPoly

STRATEGIES = ("bareiss", "cofactor")


def test_det_examples():
    m = ExactMatrix([[1, 5], [5, 17]])
    for s in STRATEGIES:
        assert det(m, strategy=s) == -8
    assert det(ExactMatrix([[int(i == j) for j in range(4)] for i in range(4)])) == 1
    assert det(ExactMatrix([[1, 2], [1, 2]])) == 0


def test_det_non_square():
    with pytest.raises(ValueError):
        det(ExactMatrix([[1, 2]]))


def test_strategy_agreement_random():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(1, 6)
        m = ExactMatrix(
            [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        )
        vals = {det(m, strategy=s) for s in STRATEGIES}
        assert len(vals) == 1


def test_preflight_reports_a_disagreeing_route(monkeypatch):
    assert preflight()["ok"]
    bareiss = linalg._STRATEGIES["bareiss"]
    monkeypatch.setitem(linalg._STRATEGIES, "bareiss", lambda m: bareiss(m) + 1)
    pre = preflight()
    assert not pre["ok"]
    assert pre["instance"] == 0 and 1 <= pre["size"] <= 8
    values = pre["values"]
    assert set(values) == {"bareiss", "cofactor"}
    assert F(values["bareiss"]) == F(values["cofactor"]) + 1


def test_hankel_matrix():
    c = InfSeries((F(1), F(5), F(17)))
    m = hankel_matrix(c, 2)
    assert m[0, 0] == 1 and m[0, 1] == 5 and m[1, 0] == 5 and m[1, 1] == 17
    assert hankel_matrix(InfSeries((F(3),)), 1)[0, 0] == 3
    with pytest.raises(Exception):
        hankel_matrix(c, 3)


def test_hankel_minors():
    c = InfSeries((F(1), F(5), F(17), F(53)))
    assert hankel_minor_C(c, 1) == 1
    assert hankel_minor_C(c, 2) == -8
    assert hankel_minor_D(c, 1) == 5
    assert hankel_minor_D(c, 2) == -24
    zero = InfSeries((F(0), F(0), F(0)))
    assert hankel_minor_C(zero, 2) == 0


def test_sylvester_a1():
    m = sylvester_matrix(UniPoly([-2, 1]), UniPoly([3]))
    assert m.rows == m.cols == 1 and m[0, 0] == 3


def test_sylvester_a2_display():
    m = sylvester_matrix(UniPoly([3, -4, 1]), UniPoly([1, 1]))
    rows = [[m[i, j] for j in range(3)] for i in range(3)]
    assert rows == [[1, -4, 3], [0, 1, 1], [1, 1, 0]]


def test_sylvester_zero_R():
    m = sylvester_matrix(UniPoly([-1, 1]), UniPoly.zero())
    assert m.rows == 1 and m[0, 0] == 0


def test_subresultants_a2():
    Q, R = UniPoly([3, -4, 1]), UniPoly([1, 1])
    assert subresultant_odd(Q, R, 0) == -8
    assert subresultant_odd(Q, R, 1) == 1
    assert subresultant_even(Q, R, 0) == 5
    assert subresultant_odd(UniPoly([-2, 1]), UniPoly([3]), 0) == 3


def test_subresultant_range():
    Q, R = UniPoly([3, -4, 1]), UniPoly([1, 1])
    with pytest.raises(ValueError):
        subresultant_odd(Q, R, 2)
    with pytest.raises(ValueError):
        subresultant_even(Q, R, 1)


def test_kronecker_random_a3():
    rng = random.Random(11)
    for _ in range(10):
        roots = set()
        while len(roots) < 3:
            roots.add(F(rng.randint(-6, 6)))
        Q = UniPoly.from_roots(sorted(roots))
        R = UniPoly([F(rng.randint(-6, 6)) for _ in range(3)])
        c = series_expand(R, Q, 7)
        for i in range(3):
            assert subresultant_odd(Q, R, i) == hankel_minor_C(c, 3 - i)
        for i in range(2):
            assert subresultant_even(Q, R, i) == hankel_minor_D(c, 2 - i)


def test_solve_linear():
    a = ExactMatrix([[2, 1], [1, 3]])
    x = solve_linear(a, [F(5), F(10)])
    assert x == [F(1), F(3)]
    with pytest.raises(ValueError, match="^singular linear system$"):
        solve_linear(ExactMatrix([[1, 1], [2, 2]]), [F(1), F(1)])
    with pytest.raises(ValueError, match="^singular linear system$"):
        solve_linear(ExactMatrix([[F(1, 2), 1, 0], [1, 2, 0], [0, 0, F(1, 3)]]), [1, 2, 3])


def test_solve_linear_random_exact():
    rng = random.Random(11)

    def check(rows, b):
        x = solve_linear(ExactMatrix(rows), b)
        assert all(isinstance(v, F) for v in x)
        assert [sum(r * v for r, v in zip(row, x)) for row in rows] == list(b)

    # a zero (0,0) entry forces a row swap; plain ints take the int lift
    check([[0, F(2, 3), 1], [F(1, 5), 0, -1], [3, F(-1, 7), F(2, 9)]], [F(1, 2), 0, F(-4, 3)])
    check([[0, 1], [1, 0]], [F(3, 4), F(-5, 6)])
    check([[3, 1, -2], [4, 0, 5], [1, -1, 1]], [7, -2, 0])
    solved = 0
    while solved < 20:
        n = rng.randint(1, 7)
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)]
        if det(ExactMatrix(rows)) == 0:
            continue
        check(rows, [F(rng.randint(-20, 20), rng.randint(1, 30)) for _ in range(n)])
        solved += 1


def test_symbolic_det_cap():
    from zastava.multirat import Ring

    ring = Ring(("t",))
    t = ring.rat_var("t")
    m = ExactMatrix([[t, ring.rat_const(1)], [ring.rat_const(1), t]])
    assert det(m, strategy="cofactor") == t * t - ring.rat_const(1)
    big = ExactMatrix([[t] * 7 for _ in range(7)])
    with pytest.raises(ValueError):
        det(big, strategy="cofactor")


def test_det_int_row_swap_and_singular():
    from zastava.linalg import _det_int

    # a zero pivot at (0,0), and one at (1,1) that appears after the first step
    m = [[0, 2, 1, 5], [3, 1, 0, 2], [1, 0, 2, 1], [2, 4, 1, 0]]
    assert _det_int([row[:] for row in m]) == det(ExactMatrix(m), strategy="cofactor") == 121
    assert _det_int([[0, 1], [1, 0]]) == -1
    assert _det_int([[1, 1, 1], [1, 1, 2], [0, 1, 1]]) == -1
    # singular: a whole zero column below the pivot, and dependent rows
    assert _det_int([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
    assert _det_int([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 0
    assert _det_int([]) == 1


@pytest.mark.parametrize("m", [
    # a zero pivot at (2,2) after two steps: the swap is at the last step
    [[1, 1, 1, 1], [1, 2, 1, 1], [1, 1, 1, 2], [1, 1, 2, 1]],
    # nonzero pivots down to a zero last pivot
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[0, 2, 1, 5], [3, 1, 0, 2], [1, 0, 2, 1], [2, 4, 1, 0]],
])
def test_det_int_on_augmented_rows(m):
    """The rows of [A | b] give det A, and their triangular form solves the
    system whenever det A != 0."""
    from zastava.linalg import _det_int

    d = det(ExactMatrix(m), strategy="cofactor")
    assert _det_int([row[:] for row in m]) == d
    for b in ([1, -2, 3, 5][: len(m)], [0] * len(m)):
        assert _det_int([[*row, v] for row, v in zip(m, b)]) == d
        if d:
            x = solve_linear(ExactMatrix(m), b)
            assert [sum(r * v for r, v in zip(row, x)) for row in m] == b
        else:
            with pytest.raises(ValueError, match="^singular linear system$"):
                solve_linear(ExactMatrix(m), b)


_small_square = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=80, deadline=None)
@given(_small_square)
@example([[0, 1], [1, 0]])
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
@example([[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]])
def test_leading_minors_match_cofactor(m):
    """All leading principal minors from one pass without row swaps; small
    entries make zero pivots, after which _det_int takes the larger sizes."""
    from zastava.linalg import _leading_minors

    want = [det(ExactMatrix([row[:s] for row in m[:s]]), strategy="cofactor") for s in range(1, len(m) + 1)]
    assert _leading_minors([row[:] for row in m]) == want


# rationals with small and very wide denominators (up to 2^70)
_wide = st.builds(
    F,
    st.integers(-99, 99) | st.integers(-(2**70), 2**70),
    st.integers(1, 9) | st.just(2**70) | st.integers(1, 2**70),
)


@st.composite
def _monic_and_lower(draw):
    a = draw(st.integers(1, 5))
    Q = UniPoly(draw(st.lists(_wide, min_size=a, max_size=a)) + [1])
    R = UniPoly(draw(st.lists(_wide, max_size=a)))  # may be zero or of low degree
    return Q, R


@settings(max_examples=60, deadline=None)
@given(_monic_and_lower())
@example((UniPoly([F(3, 2**70), -1, 1]), UniPoly.zero()))
@example((UniPoly([2, F(-1, 2**70), 0, 1]), UniPoly([F(5, 2**70)])))
def test_subresultants_match_cofactor_minor(qr):
    Q, R = qr
    a = Q.degree
    s = sylvester_matrix(Q, R)
    for i in range(a):
        keep = list(range(i, 2 * a - 1 - i))
        assert subresultant_odd(Q, R, i) == det(s.submatrix(keep, keep), strategy="cofactor")
    for i in range(a - 1):
        rows = [r for r in range(i, 2 * a - 1 - i) if r != a - 1]
        cols = list(range(i, 2 * a - 2 - i))
        assert subresultant_even(Q, R, i) == det(s.submatrix(rows, cols), strategy="cofactor")

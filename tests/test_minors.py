import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from zastava.linalg import det, hankel_minor_C, hankel_minor_D, subresultant_even, subresultant_odd
from zastava.minors import (
    WedgeWindow,
    _window_C,
    _window_D,
    crosscheck_three_routes,
    generalized_minor_v0,
    generalized_minor_v1,
    wedge_entry,
)
from zastava.points import GMatrix, ZastavaPoint, from_coords, g_matrix
from zastava.rootdata import datum
from zastava.series import series_expand
from zastava.unipoly import UniPoly

A1 = datum("A1")


def _pt2():
    return from_coords(A1, [[F(1), F(3)]], [[F(2), F(4)]])


def _random_qr(rng, a):
    roots = set()
    while len(roots) < a:
        v = F(rng.randint(-9, 9))
        if v != 0:
            roots.add(v)
    Q = UniPoly.from_roots(sorted(roots))
    return Q, UniPoly([F(rng.randint(-9, 9)) for _ in range(a)])


def test_window_transcription_degree1():
    g = g_matrix(UniPoly([-2, 1]), UniPoly([3]))
    # constant coefficients live on the k - k' = -1 shift
    assert wedge_entry(g, 2, 0) == -2  # q_0
    assert wedge_entry(g, 2, -1) == 3  # r_0
    assert wedge_entry(g, 1, -1) == 2  # f_0
    assert wedge_entry(g, 1, 0) == F(-4, 3)  # d_0
    # monic leading coefficients sit on the main diagonal (A_0 = identity)
    assert wedge_entry(g, 1, 1) == 1 and wedge_entry(g, 2, 2) == 1


def test_entry_degree2():
    pt = _pt2()
    g = g_matrix(pt.Q[0], pt.R[0])
    # row label -2 = (k'=-2, r'=2), col label -5 = (k=-3, r=1): picks
    # (A_{-1})_{2,1} = r_1
    assert wedge_entry(g, -2, -5) == 1


def test_entries_vanish_outside_band():
    g = g_matrix(UniPoly([-2, 1]), UniPoly([3]))
    assert wedge_entry(g, 1, 5) == 0  # positive Laurent powers absent
    assert wedge_entry(g, 1, -3) == 0  # below -a


def test_minor_examples():
    pt = _pt2()
    assert generalized_minor_v1(pt, 1) == 1
    assert generalized_minor_v1(pt, 2) == -8
    assert generalized_minor_v0(pt, 1) == 5
    assert generalized_minor_v0(pt, 2) == -24


def test_minor_zero_R():
    pt = ZastavaPoint(A1, (UniPoly([3, -4, 1]),), (UniPoly.zero(),))
    assert generalized_minor_v1(pt, 1) == 0
    assert generalized_minor_v0(pt, 1) == 0


def test_minor_boundary_point():
    # gcd(Q, R) != 1: the top Hankel minor (the resultant up to sign) is 0
    pt = ZastavaPoint(A1, (UniPoly([-1, 0, 1]),), (UniPoly([1, 1]),))
    assert generalized_minor_v1(pt, 2) == 0
    assert generalized_minor_v1(pt, 1) == hankel_minor_C(pt.series(0, 5), 1)


def test_crosscheck_example():
    rep = crosscheck_three_routes(_pt2())
    assert rep["agree"]
    vals = {(r["family"], r["index"]): r for r in rep["records"]}
    assert vals[("C", 1)]["hankel"] == 1 and vals[("C", 2)]["hankel"] == -8
    assert vals[("D", 1)]["hankel"] == 5
    for r in rep["records"]:
        sign = (-1) ** r["index"] if r["family"] == "D" else 1
        assert r["hankel"] == sign * r["wedge"] == r["subresultant"]
        assert r["wedge_sign"] == sign and r["subresultant_sign"] == 1


def test_crosscheck_random():
    rng = random.Random(5)
    for _ in range(8):
        Q, R = _random_qr(rng, rng.randint(1, 4))
        pt = ZastavaPoint(A1, (Q,), (R,))
        assert crosscheck_three_routes(pt)["agree"]


def test_wedge_matches_hankel_larger_sizes():
    # the closed forms C_r = +det(window) and D_r = (-1)^r det(window) hold
    # for every r <= a at degrees 1..8, also at two boundary points where g
    # has no completion and the stand-in g is used: gcd(Q, R) != 1, and
    # Q(0) = 0
    rng = random.Random(11)
    for a in range(1, 9):
        shared = (
            UniPoly.from_roots([F(k) for k in range(1, a + 1)]),
            UniPoly([-1, 1]) * UniPoly([F(rng.randint(1, 9)) for _ in range(a - 1)]),
        )
        root_zero = (
            UniPoly.from_roots([F(k) for k in range(a)]),
            UniPoly([F(rng.randint(1, 9)) for _ in range(a)]),
        )
        for Q, R in (shared, root_zero):
            with pytest.raises(ValueError):
                g_matrix(Q, R)
        nonzero_D = dict.fromkeys(range(1, a + 1), 0)
        for Q, R in [_random_qr(rng, a) for _ in range(4)] + [shared, root_zero]:
            pt = ZastavaPoint(A1, (Q,), (R,))
            c = series_expand(R, Q, 2 * a + 1)
            for r in range(1, a + 1):
                assert generalized_minor_v1(pt, r) == hankel_minor_C(c, r)
                d = generalized_minor_v0(pt, r)
                assert d == hankel_minor_D(c, r)
                nonzero_D[r] += d != 0
        # the (-1)^r sign is exercised only where D_r is nonzero
        assert all(nonzero_D.values()), (a, nonzero_D)


_small = st.integers(-9, 9).map(F) | st.builds(F, st.integers(-99, 99), st.integers(1, 9))


@st.composite
def _qr_with_boundary(draw):
    """Q monic of degree a in 1..8 and deg R < a.  Two kinds of draw are
    boundary points: R shares the root x of Q (gcd != 1), or Q has the
    root 0."""
    a = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["free", "shared", "root-zero"]))
    if kind == "free":
        return (UniPoly(draw(st.lists(_small, min_size=a, max_size=a)) + [1]),
                UniPoly(draw(st.lists(_small, max_size=a))))
    x = F(0) if kind == "root-zero" else draw(_small)
    Q = UniPoly([-x, 1]) * UniPoly(draw(st.lists(_small, min_size=a - 1, max_size=a - 1)) + [1])
    if kind == "shared":
        return Q, UniPoly([-x, 1]) * UniPoly(draw(st.lists(_small, max_size=a - 1)))
    return Q, UniPoly(draw(st.lists(_small, max_size=a)))


@settings(max_examples=60, deadline=None)
@given(_qr_with_boundary())
@example((UniPoly.from_roots([F(1), F(2), F(3)]), UniPoly([-1, 1]) * UniPoly([2, 5])))
@example((UniPoly.from_roots([F(0), F(2), F(-3)]), UniPoly([4, -1, 7])))
def test_subresultants_equal_hankel_minors(qr):
    # the sub-resultant route carries sign +1 at every index, on the
    # boundary (gcd(Q, R) != 1, Q(0) = 0) too
    Q, R = qr
    a = Q.degree
    c = series_expand(R, Q, 2 * a + 1)
    for r in range(1, a + 1):
        assert subresultant_odd(Q, R, a - r) == hankel_minor_C(c, r)
    for r in range(1, a):
        assert subresultant_even(Q, R, a - r - 1) == hankel_minor_D(c, r)


@settings(max_examples=60, deadline=None)
@given(_qr_with_boundary())
@example((UniPoly.from_roots([F(1), F(2), F(3)]), UniPoly([-1, 1]) * UniPoly([2, 5])))
@example((UniPoly.from_roots([F(0), F(2), F(-3)]), UniPoly([4, -1, 7])))
@example((UniPoly([1, 0, 0, 0, 1]), UniPoly([0, 1])))
@example((UniPoly.from_roots([F(1), F(2)]), UniPoly.zero()))
def test_crosscheck_records_equal_the_per_index_minors(qr):
    # each family comes from the leading minors of one reordered matrix per
    # route; at the boundary draws and at sparse Q, R some pivots vanish and
    # the larger sizes come from the fallback
    Q, R = qr
    a = Q.degree
    c = series_expand(R, Q, 2 * a + 1)
    g = GMatrix(a=a, F=UniPoly.zero(), D=UniPoly.zero(), R=R, Q=Q)
    want = [("C", r, hankel_minor_C(c, r), _window_C(r).determinant(g), subresultant_odd(Q, R, a - r))
            for r in range(1, a + 1)]
    want += [("D", r, hankel_minor_D(c, r), _window_D(r).determinant(g), subresultant_even(Q, R, a - r - 1))
             for r in range(1, a)]
    rep = crosscheck_three_routes(ZastavaPoint(A1, (Q,), (R,)))
    got = [(x["family"], x["index"], x["hankel"], x["wedge"], x["subresultant"]) for x in rep["records"]]
    assert got == want and rep["agree"]


def test_crosscheck_catches_a_wrong_reorder_sign(monkeypatch):
    # centre-out orders taken right first keep every leading block but flip
    # the sign of the window-row permutations at odd r, which the closed
    # forms do not follow: the routes must disagree, in both families
    import zastava.minors as minors

    left_first = minors._centre_out
    monkeypatch.setattr(minors, "_centre_out", lambda items: left_first(list(items)[::-1]))
    for a in range(2, 6):
        pt = from_coords(A1, [[F(k) for k in range(1, a + 1)]], [[F(k + 2) for k in range(a)]])
        rep = crosscheck_three_routes(pt)
        wrong = {x["family"] for x in rep["records"]
                 if x["hankel"] != (-1) ** (x["index"] * (x["family"] == "D")) * x["wedge"]}
        assert not rep["agree"] and wrong == {"C", "D"}, a


def test_rank_one_only():
    pt = from_coords(datum("A2"), [[F(2)], [F(5)]], [[F(1)], [F(1)]])
    with pytest.raises(ValueError):
        generalized_minor_v1(pt, 1)


# rationals with small and very wide denominators (up to 2^70)
_wide = st.builds(
    F,
    st.integers(-99, 99) | st.integers(-(2**70), 2**70),
    st.integers(1, 9) | st.just(2**70) | st.integers(1, 2**70),
)


@st.composite
def _g_and_window(draw):
    """A GMatrix of four arbitrary polynomials of degree <= a, and a square
    window: one of the two closed-form windows, or random labels of both
    parities so that (F, D) rows are read too."""
    a = draw(st.integers(1, 4))
    F_, D_, R_, Q_ = (UniPoly(draw(st.lists(_wide, max_size=a + 1))) for _ in range(4))
    g = GMatrix(a=a, F=F_, D=D_, R=R_, Q=Q_)
    choice = draw(st.integers(0, 2))
    if choice < 2:
        r = draw(st.integers(1, 3))
        return g, (_window_C, _window_D)[choice](r)
    size = draw(st.integers(1, 5))
    labels = st.lists(st.integers(-2 * a - 3, 4), min_size=size, max_size=size, unique=True)
    return g, WedgeWindow(tuple(draw(labels)), tuple(draw(labels)))


@settings(max_examples=80, deadline=None)
@given(_g_and_window())
def test_window_determinant_matches_cofactor(gw):
    g, window = gw
    assert window.determinant(g) == det(window.matrix(g), strategy="cofactor")


def test_window_determinant_at_points():
    rng = random.Random(3)
    for a in range(1, 5):
        Q, R = _random_qr(rng, a)
        g = g_matrix(Q, R * F(1, 7))
        for r in range(1, a + 1):
            for window in (_window_C(r), _window_D(r), WedgeWindow((1, 2), (-1, 0))):
                assert window.determinant(g) == det(window.matrix(g), strategy="cofactor")
    with pytest.raises(ValueError, match="not square"):
        WedgeWindow((0, 2), (0,)).determinant(g)

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from zastava.points import (
    Tier,
    _classify,
    ZastavaPoint,
    bezout_complete,
    boundary_equation_sl2,
    eta_shift,
    factorization_divisor,
    from_coords,
    g_matrix,
    recover_coords,
)
from zastava.rootdata import datum
from zastava.series import series_coefficients
from zastava.unipoly import UniPoly

A1 = datum("A1")
A2 = datum("A2")


def _pt2():
    return from_coords(A1, [[F(1), F(3)]], [[F(2), F(4)]])


def test_from_coords_degree1():
    pt = from_coords(A1, [[F(2)]], [[F(3)]])
    assert pt.Q[0] == UniPoly([-2, 1]) and pt.R[0] == UniPoly([3])


def test_from_coords_degree2():
    pt = _pt2()
    assert pt.Q[0] == UniPoly([3, -4, 1]) and pt.R[0] == UniPoly([1, 1])
    assert pt.tier is Tier.TRIGONOMETRIC


def test_zero_y_downgrades_tier():
    pt = from_coords(A1, [[F(1), F(3)]], [[F(0), F(0)]])
    assert pt.tier is Tier.ZASTAVA


def test_tier_monopole():
    pt = ZastavaPoint(A1, (UniPoly([0, 1]),), (UniPoly([3]),))
    assert pt.tier is Tier.MONOPOLE


def test_from_coords_errors():
    with pytest.raises(ValueError):
        from_coords(A1, [[F(1), F(1)]], [[F(2), F(3)]])
    with pytest.raises(ValueError):
        from_coords(A1, [[F(0)]], [[F(1)]], require_trigonometric=True)


def test_bezout_examples():
    F1, D1 = bezout_complete(UniPoly([-2, 1]), UniPoly([3]))
    assert F1 == UniPoly([2, 1]) and D1 == UniPoly([F(-4, 3)])
    F2, D2 = bezout_complete(UniPoly([-1, 1]), UniPoly([1]))
    assert F2 == UniPoly([1, 1]) and D2 == UniPoly([-1])


def test_bezout_errors():
    with pytest.raises(ValueError):
        bezout_complete(UniPoly([-1, 0, 1]), UniPoly([1, 1]))  # gcd != 1
    with pytest.raises(ValueError):
        bezout_complete(UniPoly([0, 1]), UniPoly([1]))  # Q(0) = 0


def test_bezout_random_residual():
    rng = random.Random(2)
    for _ in range(20):
        a = rng.randint(1, 5)
        roots = set()
        while len(roots) < a:
            v = F(rng.randint(-8, 8))
            if v != 0:
                roots.add(v)
        Q = UniPoly.from_roots(sorted(roots))
        R = UniPoly([F(rng.randint(-8, 8)) for _ in range(a)])
        if any(R(x) == 0 for x in roots):
            continue
        Fp, Dp = bezout_complete(Q, R)
        assert Q * Fp - R * Dp == UniPoly.monomial(2 * a)


def test_g_matrix():
    g = g_matrix(UniPoly([-2, 1]), UniPoly([3]))
    # z^(-1) (F, D; R, Q) = A_0 + A_{-1} z^(-1) with F = z + 2, D = -4/3,
    # R = 3, Q = z - 2
    assert g.coeff_matrix(0) == ((1, 0), (0, 1))
    assert g.coeff_matrix(-1) == ((2, F(-4, 3)), (3, -2))
    assert g.det_is_one()
    g2 = g_matrix(UniPoly([-1, 1]), UniPoly([1]))
    assert g2.coeff_matrix(0)[0][0] == 1 and g2.coeff_matrix(-1)[0][0] == 1
    assert g2.det_is_one()


def test_boundary_equation():
    assert boundary_equation_sl2(from_coords(A1, [[F(2)]], [[F(3)]])) == 3
    assert boundary_equation_sl2(_pt2()) == -8
    shared = ZastavaPoint(A1, (UniPoly([-1, 0, 1]),), (UniPoly([1, 1]),))
    assert boundary_equation_sl2(shared) == 0


def test_factorization_divisor():
    assert factorization_divisor(_pt2()) == ((F(1), F(3)),)
    pt = from_coords(A2, [[F(2)], [F(5)]], [[F(1)], [F(1)]])
    assert factorization_divisor(pt) == ((F(2),), (F(5),))


def test_eta_shift_examples():
    pt = from_coords(A1, [[F(2)]], [[F(3)]])
    e = eta_shift(pt, 0)
    assert e.R[0] == UniPoly([6])
    assert e.y == ((F(6),),)
    e2 = eta_shift(_pt2(), 0)
    assert e2.R[0] == UniPoly([-3, 5])
    assert factorization_divisor(e2) == factorization_divisor(_pt2())


def test_eta_boundary_multiplicativity():
    pt = _pt2()
    assert abs(boundary_equation_sl2(eta_shift(pt, 0))) == abs(pt.Q[0](0)) * abs(
        boundary_equation_sl2(pt)
    )


def test_eta_requires_trigonometric():
    pt = ZastavaPoint(A1, (UniPoly([0, 1]),), (UniPoly([3]),))
    with pytest.raises(ValueError):
        eta_shift(pt, 0)


def test_closed_form_examples():
    # one root: c_j = y w^j
    assert series_coefficients([F(2)], [F(3)], 3) == [3, 6, 12]
    pt = _pt2()
    assert series_coefficients(pt.w[0], pt.y[0], 2)[1] == 5


def test_closed_form_matches_expansion():
    rng = random.Random(9)
    for _ in range(10):
        a = rng.randint(1, 3)
        ws = set()
        while len(ws) < a:
            v = F(rng.randint(-9, 9), rng.randint(1, 3))
            if v != 0:
                ws.add(v)
        ys = [F(rng.randint(-9, 9)) for _ in range(a)]
        pt = from_coords(A1, [sorted(ws)], [ys])
        s = pt.series(0, 2 * a + 1)
        assert series_coefficients(pt.w[0], pt.y[0], 2 * a + 1) == list(s.coeffs)


def test_json_round_trip(tmp_path):
    pt = _pt2()
    data = pt.to_json()
    assert data["degrees"] == [2] and data["Q"] == [["3", "-4", "1"]]
    again = ZastavaPoint.from_json(json.loads(json.dumps(data)))
    assert again == pt
    path = tmp_path / "p.json"
    pt.save(str(path))
    assert ZastavaPoint.load(str(path)) == pt


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)


@st.composite
def _point_documents(draw):
    """A valid rank-one point document with up to two fields dropped or
    replaced by arbitrary JSON."""
    a = draw(st.integers(1, 3))
    scalars = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    ws = draw(st.lists(scalars, min_size=a, max_size=a, unique=True))
    ys = draw(st.lists(scalars, min_size=a, max_size=a))
    doc = from_coords(A1, [ws], [ys]).to_json()
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_JSON)
    return doc


@pytest.mark.parametrize("scalar", ["1e99", "1/0", "x"])
def test_point_document_rejects_bad_scalars(scalar):
    doc = _pt2().to_json()
    doc["R"] = [[scalar, "1"]]
    with pytest.raises(ValueError):
        ZastavaPoint.from_json(doc)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_point_documents(), _JSON))
def test_point_document_round_trips_or_rejects(doc):
    try:
        pt = ZastavaPoint.from_json(doc)
    except ValueError:
        return
    assert ZastavaPoint.from_json(pt.to_json()) == pt


def test_recover_coords():
    pt = ZastavaPoint(A1, (UniPoly([3, -4, 1]),), (UniPoly([1, 1]),))
    rec = recover_coords(pt)
    assert rec.w == ((F(1), F(3)),) and rec.y == ((F(2), F(4)),)
    irr = ZastavaPoint(A1, (UniPoly([1, 0, 1]),), (UniPoly([1]),))
    with pytest.raises(ValueError):
        recover_coords(irr)


def test_inconsistent_coords_rejected():
    with pytest.raises(ValueError):
        ZastavaPoint(
            A1,
            (UniPoly([3, -4, 1]),),
            (UniPoly([1, 1]),),
            ((F(1), F(3)),),
            ((F(2), F(5)),),
        )
    # a double root listed twice is on the chart, but not a chart
    with pytest.raises(ValueError, match="repeated roots"):
        ZastavaPoint(
            A1, (UniPoly.from_roots([F(1), F(1)]),), (UniPoly([2]),), ((F(1), F(1)),), ((F(2), F(2)),)
        )


def test_point_document_rejects_off_chart_coordinates():
    pt = from_coords(A1, [[F(1, 3), F(-5, 7), F(2)]], [[F(4), F(-1, 9), F(6, 5)]])
    doc = pt.to_json()
    assert ZastavaPoint.from_json(doc) == pt
    # y off by 1/2^70: R(w) != y
    off = json.loads(json.dumps(doc))
    off["y"][0][1] = str(pt.y[0][1] + F(1, 2**70))
    with pytest.raises(ValueError, match="inconsistent"):
        ZastavaPoint.from_json(off)
    # w not a root of Q (its y is R(w), so only the root test can reject it)
    w = F(1, 3) + F(1, 2**70)
    moved = json.loads(json.dumps(doc))
    moved["w"][0][0] = str(w)
    moved["y"][0][0] = str(pt.R[0](w))
    with pytest.raises(ValueError, match="inconsistent"):
        ZastavaPoint.from_json(moved)
    # a zero R with zero values is on the chart; a nonzero value is not
    zero = ZastavaPoint(A1, pt.Q, (UniPoly.zero(),), pt.w, ((F(0),) * 3,))
    assert zero.R[0].is_zero
    with pytest.raises(ValueError, match="inconsistent"):
        ZastavaPoint(A1, pt.Q, (UniPoly.zero(),), pt.w, ((F(0), F(0), F(1, 2**70)),))


@pytest.mark.parametrize("scalar", [0.1, True])
def test_point_document_rejects_non_string_scalars(scalar):
    doc = _pt2().to_json()
    doc["R"] = [[scalar, "1"]]
    with pytest.raises(ValueError, match="malformed point document"):
        ZastavaPoint.from_json(doc)
    with pytest.raises(TypeError):
        UniPoly.from_json([scalar, 1])


@pytest.mark.parametrize("coeffs", ["31", {"-1": 0, "1": 0}])
def test_point_document_rejects_non_list_coefficients(coeffs):
    # read item by item, "31" would be Q = 3 + z and the object Q = z - 1
    with pytest.raises(TypeError, match="coefficient list"):
        UniPoly.from_json(coeffs)
    doc = {"type": "A1", "Q": [coeffs], "R": [["2"]]}
    with pytest.raises(ValueError, match="malformed point document"):
        ZastavaPoint.from_json(doc)


def test_point_document_degrees_must_match_Q():
    doc = {"type": "A1", "degrees": [5], "Q": [["3", "-4", "1"]], "R": [["1", "1"]]}
    with pytest.raises(ValueError, match=r"\[5\].*\[2\]"):
        ZastavaPoint.from_json(doc)
    doc["degrees"] = [2]
    assert ZastavaPoint.from_json(doc) == ZastavaPoint(A1, (UniPoly([3, -4, 1]),), (UniPoly([1, 1]),))
    del doc["degrees"]
    assert ZastavaPoint.from_json(doc).to_json()["degrees"] == [2]


def _tier_by_gcd(pt):
    order = [Tier.ZASTAVA, Tier.MONOPOLE, Tier.TRIGONOMETRIC]
    return order[min(order.index(_classify(q, r)) for q, r in zip(pt.Q, pt.R))]


@st.composite
def _charted_points(draw):
    """A1 or A2 points with small roots and values, so that a zero w, a zero
    y, both, and an all-zero y (R = 0) are all common."""
    label = draw(st.sampled_from(["A1", "A2"]))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    ws, ys = [], []
    for _ in range(datum(label).rank):
        a = draw(st.integers(0, 3))
        ws.append(draw(st.lists(small, min_size=a, max_size=a, unique=True)))
        ys.append(draw(st.lists(small, min_size=a, max_size=a)))
    return from_coords(datum(label), ws, ys)


@settings(max_examples=150, deadline=None)
@given(_charted_points())
@example(from_coords(A1, [[F(0), F(2)]], [[F(1), F(0)]]))
@example(from_coords(A2, [[F(1)], [F(0)]], [[F(1)], [F(3)]]))
@example(from_coords(A1, [[F(1), F(3)]], [[F(0), F(0)]]))
def test_tier_from_chart_matches_gcd(pt):
    assert pt.has_coords
    assert pt.tier is _tier_by_gcd(pt)


_COORD = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def _coords(draw):
    """A root datum and per color distinct w (sorted, zero first) and any y."""
    label, degs = draw(st.sampled_from([("A1", (1,)), ("A1", (3,)), ("A1", (5,)), ("A2", (2, 1)),
                                        ("A2", (0, 2))]))
    ws = [sorted(draw(st.lists(_COORD, min_size=a, max_size=a, unique=True)), key=lambda v: (v != 0, v))
          for a in degs]
    ys = [draw(st.lists(_COORD, min_size=a, max_size=a)) for a in degs]
    return datum(label), ws, ys


@settings(max_examples=100, deadline=None)
@given(_coords())
def test_trusted_points_equal_validated_ones(case):
    """from_coords, recover_coords and eta_shift build points without the
    Horner test of the chart; the validating constructor accepts each of
    them and gives an equal point, and the bare document recovers it."""
    dat, ws, ys = case
    pt = from_coords(dat, ws, ys)
    assert ZastavaPoint(dat, pt.Q, pt.R, pt.w, pt.y) == pt
    doc = pt.to_json()
    assert ZastavaPoint.from_json(doc) == pt
    bare = {k: v for k, v in doc.items() if k not in ("w", "y")}
    assert recover_coords(ZastavaPoint.from_json(bare)) == pt
    if pt.tier is Tier.TRIGONOMETRIC:
        for i in range(dat.rank):
            e = eta_shift(pt, i)
            assert ZastavaPoint(dat, e.Q, e.R, e.w, e.y) == e


def test_trusted_constructors_keep_their_messages():
    with pytest.raises(ValueError, match="coordinate lists must match the degrees"):
        from_coords(A1, [[F(1), F(2)]], [[F(3)]])
    with pytest.raises(ValueError, match="coordinate lists must match the degrees"):
        from_coords(A1, [[F(1)]], [[F(3), F(4)]])
    with pytest.raises(ValueError, match="coordinate lists must match the degrees"):
        from_coords(A1, [[F(1)]], [[F(3)], [F(4)]])
    with pytest.raises(ValueError, match=r"one \(Q_i, R_i\) pair per color"):
        from_coords(A2, [[F(1)]], [[F(3)]])
    with pytest.raises(ValueError, match="repeated abscissa"):
        from_coords(A1, [[F(2), F(2)]], [[F(3), F(4)]])
    double = ZastavaPoint(A1, (UniPoly.from_roots([F(1, 2), F(1, 2), F(3)]),), (UniPoly([1]),))
    with pytest.raises(ValueError, match="repeated roots within a color"):
        recover_coords(double)
    with pytest.raises(ValueError, match="does not split"):
        recover_coords(ZastavaPoint(A1, (UniPoly([2, 0, 1]),), (UniPoly([1]),)))


@pytest.mark.parametrize("w, y", [([[0.1, 2]], [[1, 3]]), ([[1, 2]], [[F(1), 2.5]])])
def test_from_coords_refuses_floats(w, y):
    # 0.1 would be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="float"):
        from_coords(A1, w, y)
    assert from_coords(A1, [[1, 2]], [[1, 3]]) == from_coords(A1, [[F(1), F(2)]], [[F(1), F(3)]])

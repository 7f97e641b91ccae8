import math
import random
from fractions import Fraction as F

import pytest

from zastava.linalg import hankel_minor_C, hankel_minor_D
from zastava.points import from_coords
from zastava.rootdata import datum
from zastava.superpotential import (
    SuperData,
    SuperValue,
    eval_gw,
    exact_part,
    positivity_sample,
    verify_gw_w,
)
from zastava.unipoly import UniPoly

A1 = datum("A1")
A2 = datum("A2")
Z = UniPoly([0, 1])


def _pt1():
    return from_coords(A1, [[F(2)]], [[F(3)]])


def _pt2():
    return from_coords(A1, [[F(1), F(3)]], [[F(2), F(4)]])


def test_exact_part_examples():
    assert exact_part(_pt1(), [Z]) == 6
    assert exact_part(_pt1(), [UniPoly([0, 0, 1])]) == 12
    assert exact_part(_pt2(), [Z]) == 5
    assert exact_part(_pt2(), [UniPoly([0, 0, 1])]) == 17


def test_exact_part_K_one_is_c0():
    # K = 1 picks out the leading series coefficient
    pt = _pt2()
    assert exact_part(pt, [UniPoly([1])]) == pt.series(0, 1).coeff(0)


def test_exact_part_reduces_to_series_coefficients():
    # the exact part with K = z^p is the p-th series coefficient
    pt = _pt2()
    s = pt.series(0, 5)
    for p in range(4):
        assert exact_part(pt, [UniPoly.monomial(p)]) == s.coeff(p)


def test_verify_gw_w():
    rep = verify_gw_w(_pt2(), SuperData((UniPoly([1, 1, 1]),)))
    assert rep["ok"] and rep["lhs"] == rep["rhs"] == 1 + 5 + 17


def test_root_relabel_invariance():
    base = from_coords(A1, [[F(1), F(3)]], [[F(2), F(4)]])
    swapped = from_coords(A1, [[F(3), F(1)]], [[F(4), F(2)]])
    K = [UniPoly([2, 0, 1])]
    assert exact_part(base, K) == exact_part(swapped, K)


def test_eval_gw_structure():
    v = eval_gw(_pt2(), SuperData((Z,)))
    assert v.exact_part == 5 and v.boundary == -8 and v.log_terms == ()


def test_eval_gw_log_terms():
    d = SuperData((Z,), (F(1), F(2)), ((F(1),), (F(2),)))
    v = eval_gw(_pt2(), d)
    # coefficient lambda_m P lambda_n = 1*2*2 = 4, argument z_m - z_n = -1
    assert v.log_terms == ((F(4), F(-1)),)


def test_eval_gw_rank2_no_boundary():
    pt = from_coords(A2, [[F(2)], [F(5)]], [[F(1)], [F(1)]])
    v = eval_gw(pt, SuperData((Z, Z)))
    assert v.boundary is None
    assert v.exact_part == 2 + 5


def test_super_data_validation():
    with pytest.raises(ValueError):
        SuperData((UniPoly([1, 2]),))  # not monic
    with pytest.raises(ValueError):
        SuperData((Z,), (F(1),), ())
    with pytest.raises(ValueError):
        eval_gw(_pt2(), SuperData((Z, Z)))
    with pytest.raises(ValueError):
        eval_gw(_pt2(), SuperData((Z,), (F(1), F(1)), ((F(1),), (F(1),))))


def test_render():
    v = SuperValue(F(5), F(-8), ((F(4), F(-1)),))
    assert v.render() == pytest.approx(5.0 - math.log(8.0))
    assert SuperValue(F(3), None, ()).render() == 3.0


def test_positivity_sample():
    for a in (1, 2, 3):
        rep = positivity_sample(a, trials=5, rng=random.Random(0))
        assert rep["trials"] == 5 and len(rep["records"]) == 5
        assert rep["exact_positive"] == 5
        assert rep["boundary_positive"] == 5
        for rec in rep["records"]:
            assert rec["exact_part"] > 0 and rec["boundary"] > 0


def test_positivity_sample_draws_positive_minors(monkeypatch):
    """Every point drawn has all C_m and D_m positive, m <= a: positive
    weights y_r / Q'(w_r) make the series a moment sequence, so the draws
    need no positivity filter."""
    from zastava import superpotential

    drawn = []

    def recording(*args, **kwargs):
        drawn.append(from_coords(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(superpotential, "from_coords", recording)
    for a in range(1, 7):
        drawn.clear()
        rep = positivity_sample(a, trials=20, rng=random.Random(a))
        assert len(drawn) == rep["trials"] == 20
        for pt in drawn:
            c = pt.series(0, 2 * a + 1)
            assert all(hankel_minor_C(c, m) > 0 and hankel_minor_D(c, m) > 0
                       for m in range(1, a + 1))


def test_positivity_sample_refuses_more_w_than_its_table():
    # 107 distinct positive p/q with p <= 40, q <= 4; the refusal comes before any draw
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        positivity_sample(108, trials=1, rng=rng)
    assert rng.getstate() == state

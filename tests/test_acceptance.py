"""Acceptance gate: one test, and one printed pass/fail line, per criterion.

Every check is exact (Fraction arithmetic, zero tolerance).  Run with
pytest -v -s to see the per-criterion lines as they complete.
"""

import random
import time
from fractions import Fraction as F

from zastava.bench import bench, format_csv, preflight
from zastava.cluster import Seed, initial_seed_sl2, log_canonicity_check, mutate, sample_chart_point
from zastava.linalg import hankel_minor_C, hankel_minor_D, subresultant_even, subresultant_odd
from zastava.minors import crosscheck_three_routes
from zastava.points import (
    bezout_complete,
    boundary_equation_sl2,
    eta_shift,
    factorization_divisor,
    g_matrix,
)
from zastava.poisson import BracketTable, jacobi_report, symplectic_check_trig, verify_descent
from zastava.rootdata import datum
from zastava.series import series_coefficients, series_expand
from zastava.superpotential import SuperData, verify_gw_w
from zastava.unipoly import UniPoly
from zastava.verify import random_sl2_point

A1 = datum("A1")
A2 = datum("A2")


def _report(n: int, desc: str, ok: bool) -> None:
    print(f"criterion {n:2d} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({desc}) failed"


def test_criterion_01_three_route_minors():
    t0 = time.monotonic()
    rng = random.Random(101)
    ok = True
    # Hankel = signed wedge = sub-resultant, with the wedge signed +1 for
    # C_r and (-1)^r for D_r
    for a in (1, 2, 3, 4):
        for _ in range(25):
            pt = random_sl2_point(a, rng)
            res = crosscheck_three_routes(pt)
            ok &= res["agree"]
            for rec in res["records"]:
                sign = (-1) ** rec["index"] if rec["family"] == "D" else 1
                ok &= rec["hankel"] == sign * rec["wedge"] == rec["subresultant"]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30
    _report(1, f"three-route minor equality, {elapsed:.1f}s", ok)


def test_criterion_02_subresultant_hankel():
    rng = random.Random(102)
    ok = True
    for a in range(1, 6):
        for _ in range(20):
            pt = random_sl2_point(a, rng)
            Q, R = pt.Q[0], pt.R[0]
            c = series_expand(R, Q, 2 * a + 1)
            for i in range(a):
                ok &= subresultant_odd(Q, R, i) == hankel_minor_C(c, a - i)
            for i in range(a - 1):
                ok &= subresultant_even(Q, R, i) == hankel_minor_D(c, a - i - 1)
    _report(2, "sub-resultant equals Hankel minor", ok)


def test_criterion_03_bezout_completion():
    rng = random.Random(103)
    ok = True
    for n in range(100):
        a = 1 + n % 6
        pt = random_sl2_point(a, rng)
        Q, R = pt.Q[0], pt.R[0]
        Fp, Dp = bezout_complete(Q, R)
        ok &= Q * Fp - R * Dp == UniPoly.monomial(2 * a)
        ok &= g_matrix(Q, R).det_is_one()
    _report(3, "Bezout completion and unit determinant", ok)


def test_criterion_04_jacobi():
    t0 = time.monotonic()
    ok = True
    for dat, degs in ((A1, (1,)), (A1, (2,)), (A2, (1, 1)), (A2, (2, 1))):
        for kind in ("rational", "trigonometric"):
            ok &= jacobi_report(BracketTable(dat, degs, kind))["ok"]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60
    _report(4, f"Jacobi identity, all triples, {elapsed:.1f}s", ok)


def test_criterion_05_symplectic_inverse():
    rng = random.Random(105)
    ok = True
    for dat, degs in ((A1, (1,)), (A1, (2,)), (A2, (1, 1)), (A2, (2, 1))):
        for _ in range(20):
            pt = sample_chart_point(degs, rng)
            ok &= symplectic_check_trig(dat, degs, pt)["ok"]
    _report(5, "bivector times closed-form inverse is identity", ok)


def test_criterion_06_descent():
    ok = True
    for dat, degs in ((A1, (1,)), (A1, (2,)), (A1, (3,)), (A2, (1, 1))):
        for kind in ("rational", "trigonometric"):
            rep = verify_descent(dat, degs, kind)
            ok &= rep["ok"] and all(rep["checks"].values())
    _report(6, "colored generating-series identities", ok)


def test_criterion_07_exchange_matrix():
    ok = initial_seed_sl2(None, 2).matrix.data == ((0, 2), (-2, 0), (-1, 0), (2, -1))
    for a in range(1, 6):
        # the closed form by labels: b(D_m, C_m) = 2 (1 at m = a), b(D_m, D_{m+1}) = 1,
        # b(D_m, C_{m+1}) = -2, b(C_m, C_{m+1}) = 1, skew-symmetric
        b = {(f"D_{a}", f"C_{a}"): 1}
        for m in range(1, a):
            b.update({(f"D_{m}", f"C_{m}"): 2, (f"D_{m}", f"D_{m + 1}"): 1,
                      (f"D_{m}", f"C_{m + 1}"): -2, (f"C_{m}", f"C_{m + 1}"): 1})
        b.update({(l, k): -v for (k, l), v in list(b.items())})
        seed = initial_seed_sl2(None, a)
        ma, labels = seed.matrix, seed.labels
        ok &= all(ma.entry(s, r) == b.get((labels[s - 1], labels[r - 1]), 0)
                  for s in range(1, 2 * a + 1) for r in ma.columns)
        ok &= all(ma.entry(s, r) == -ma.entry(r, s) for s in ma.columns for r in ma.columns)
        for k in ma.columns:
            ok &= ma.mutate(k).mutate(k) == ma
    _report(7, "closed-form exchange matrix, skew block, involutive mutation", ok)


def test_criterion_08_log_canonicity():
    rng = random.Random(108)
    ok = True
    for a in (2, 3):
        seed = initial_seed_sl2(None, a)
        table = BracketTable(A1, (a,), "trigonometric")
        ok &= log_canonicity_check(seed, table, trials=5, rng=rng)["ok"]
    # negative control: a non-cluster function must break constancy
    seed = initial_seed_sl2(None, 2)
    ring = seed.variables[0].ring
    bad = ring.rat_var("w1_1") + ring.rat_const(1)
    spoiled = Seed(seed.labels, (bad,) + seed.variables[1:], seed.matrix)
    table = BracketTable(A1, (2,), "trigonometric")
    ok &= not log_canonicity_check(spoiled, table, trials=5, rng=rng)["ok"]
    _report(8, "log-canonical initial seed with negative control", ok)


def test_criterion_09_eta_shift():
    rng = random.Random(109)
    ok = True
    for a in range(1, 5):
        for _ in range(10):
            pt = random_sl2_point(a, rng)
            e = eta_shift(pt, 0)
            ok &= e.R[0].degree is None or e.R[0].degree < a
            ok &= factorization_divisor(e) == factorization_divisor(pt)
            ok &= abs(boundary_equation_sl2(e)) == abs(pt.Q[0](0)) * abs(
                boundary_equation_sl2(pt)
            )
    _report(9, "eta-shift preserves divisor, scales boundary", ok)


def test_criterion_10_superpotential_identity():
    rng = random.Random(110)
    ok = True
    for n in range(50):
        a = 1 + n % 4
        pt = random_sl2_point(a, rng)
        degK = rng.randint(0, 2 * a)
        K = UniPoly([F(rng.randint(-5, 5)) for _ in range(degK)] + [F(1)])
        ok &= verify_gw_w(pt, SuperData((K,)))["ok"]
    _report(10, "superpotential equals series-coefficient sum", ok)


def test_criterion_11_closed_form_series():
    rng = random.Random(111)
    ok = True
    for n in range(50):
        a = 1 + n % 4
        pt = random_sl2_point(a, rng)
        s = pt.series(0, 2 * a + 1)
        ok &= series_coefficients(pt.w[0], pt.y[0], 2 * a + 1) == list(s.coeffs)
    _report(11, "closed-form series coefficients match expansion", ok)


def test_criterion_12_bench_preflight():
    pre = preflight(seed=112, count=30, max_size=8)
    ok = pre["ok"]
    rows = bench("hankel", list(range(2, 11)), seed=112, repeats=1)
    text = format_csv(rows)
    lines = text.strip().splitlines()
    ok &= lines[0] == "strategy,family,size,bit_length,median_ns"
    seen = set()
    for line in lines[1:]:
        strat, fam, size, bits, med = line.split(",")
        ok &= fam == "hankel" and 2 <= int(size) <= 10
        ok &= int(bits) >= 0 and int(med) > 0
        seen.add(int(size))
    ok &= seen == set(range(2, 11))
    _report(12, "determinant strategies agree; benchmark CSV well-formed", ok)

"""The three pinned workloads: inputs from a seed, one pass, one negative control.

Each workload calls the check functions of the package with explicit
arguments instead of running a profile of ``zastava.verify``, whose
configuration lists are expected to grow.  The lists below are the whole
definition of the work; ``selftest.py`` pins them.

A pass returns one record per check: ``{"id", "status", "output"}`` with
status ``pass``, ``fail`` or ``raise`` and an exact, JSON-able output that
is compared with the stored reference.  Every pass of a run does identical
work on the inputs made at set-up.

Layers are reached through module attributes (``poisson.verify_descent``),
never through names bound at import time, so that the tracer's wrappers see
every call.
"""

from __future__ import annotations

import random
import traceback
from fractions import Fraction

from zastava import cluster, linalg, minors, points, poisson, rootdata, series
from zastava import superpotential, unipoly

KINDS = ("rational", "trigonometric")

# symbolic_build: building polynomials (MultiPoly products).
BUILD_DESCENT = (("A1", (3,)),)
BUILD_JACOBI = (("A2", (2, 1)),)

# symbolic_eval: evaluating symbolic cluster variables at sample points.
EVAL_DEGREES = (2, 3)
EVAL_TRIALS = 5

# pointwise: scalar checks at sampled points, few symbolic products.
SL2HANK_DEGREES = (1, 2, 3, 4)
KRONECKER_DEGREES = (1, 2, 3, 4, 5)
GW_DEGREES = (1, 2, 3, 4)
SYMPLECTIC_CONFIGS = (("A1", (1,)), ("A1", (2,)), ("A2", (1, 1)), ("A2", (2, 1)))
# Points per configuration in one pointwise pass, as in the defaults of the
# verify profiles.  The cost of a point depends on its coordinates
# (rational_roots searches divisors); this many points keep the pass time
# close from one input set to the next.
SL2HANK_TRIALS = 25
KRONECKER_TRIALS = 20
GW_TRIALS = 50
SYMPLECTIC_TRIALS = 20
# Pointwise inputs are drawn from seed % POINTWISE_INPUT_SETS, the input
# sets whose exact outputs are stored under reference/.
POINTWISE_INPUT_SETS = 16

WORKLOADS = ("symbolic_build", "symbolic_eval", "pointwise")


def _tag(label: str, degs: tuple[int, ...]) -> str:
    return f"{label}-{'-'.join(map(str, degs))}"


class Checks:
    """Collects check records; a check that raises is recorded, not fatal."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def run(self, identifier: str, fn) -> None:
        try:
            ok, output = fn()
        except Exception as exc:  # a broken check must not stop the run
            traceback.print_exc()
            self.records.append({"id": identifier, "status": "raise", "output": repr(exc)})
            return
        self.records.append(
            {"id": identifier, "status": "pass" if ok else "fail", "output": output}
        )


# -- symbolic_build ---------------------------------------------------------


def build_pass() -> list[dict]:
    checks = Checks()
    for label, degs in BUILD_DESCENT:
        for kind in KINDS:
            def descent(label=label, degs=degs, kind=kind):
                res = poisson.verify_descent(rootdata.datum(label), degs, kind)
                return res["ok"], res["checks"]
            checks.run(f"descent-{_tag(label, degs)}-{kind}", descent)
    for label, degs in BUILD_JACOBI:
        for kind in KINDS:
            def jacobi(label=label, degs=degs, kind=kind):
                table = poisson.BracketTable(rootdata.datum(label), degs, kind)
                res = poisson.jacobi_report(table)
                return res["ok"], {"checked": res["checked"],
                                   "failures": [list(f) for f in res["failures"]]}
            checks.run(f"jacobi-{_tag(label, degs)}-{kind}", jacobi)
    return checks.records


def build_negative_control() -> tuple[bool, str]:
    """The QR descent residual on A1 (1,): zero with the stated right-hand
    side, nonzero with a doubled one."""
    table = poisson.BracketTable(rootdata.datum("A1"), (1,), "trigonometric",
                                 extended=True, extra=("z", "u"))
    R = table.ring
    z, u, two = R.rat_var("z"), R.rat_var("u"), R.rat_const(2)
    Qz, Qu = poisson.colored_Q(table, 0, "z"), poisson.colored_Q(table, 0, "u")
    Rz, Ru = poisson.colored_R(table, 0, "z"), poisson.colored_R(table, 0, "u")
    d = table.datum.d[0]
    lhs = table.bracket(Qz, Ru)
    rhs = R.rat_const(-d) * ((z + u) / (two * (z - u)) * Qz * Ru - u / (z - u) * Rz * Qu)
    root = table.var("w1_1")
    right = (lhs - rhs).subs("u", root)
    wrong = (lhs - two * rhs).subs("u", root)
    ok = right.is_zero and not wrong.is_zero
    return ok, "descent QR residual: zero for the stated right-hand side, nonzero for a doubled one"


# -- symbolic_eval ----------------------------------------------------------


def eval_rng(seed: int, a: int) -> random.Random:
    return random.Random(f"symbolic_eval-{seed}-a{a}")


def _log_canonicity(seed_obj, a: int, rng: random.Random, trials: int) -> dict:
    table = poisson.BracketTable(rootdata.datum("A1"), (a,), "trigonometric")
    return cluster.log_canonicity_check(seed_obj, table, trials=trials, rng=rng)


def eval_pass(seed: int) -> list[dict]:
    checks = Checks()
    for a in EVAL_DEGREES:
        def logcanon(a=a):
            seed_obj = cluster.initial_seed_sl2(None, a)
            res = _log_canonicity(seed_obj, a, eval_rng(seed, a), EVAL_TRIALS)
            constants = {}
            for p in res["pairs"]:
                vals = sorted({str(v) for v in p["values"]})
                constants["|".join(p["pair"])] = vals[0] if p["constant"] else vals
            return res["ok"], {"labels": list(seed_obj.labels), "constants": constants}
        checks.run(f"log-canonical-a{a}-x{EVAL_TRIALS}", logcanon)
    return checks.records


def eval_negative_control(seed: int) -> tuple[bool, str]:
    """A seed whose first variable is multiplied by (1 + w1_1) must fail."""
    a = 2
    good = cluster.initial_seed_sl2(None, a)
    ring = good.variables[0].ring
    bent = list(good.variables)
    bent[0] = bent[0] * (ring.rat_const(1) + ring.rat_var("w1_1"))
    bad = cluster.Seed(good.labels, tuple(bent), good.matrix)
    res = _log_canonicity(bad, a, eval_rng(seed, a), 3)
    return not res["ok"], "log-canonicity fails for a perturbed seed variable"


# -- pointwise --------------------------------------------------------------


def _nonzero(rng: random.Random) -> Fraction:
    while True:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        if v:
            return v


def _distinct_nonzero(rng: random.Random, n: int, taken=()) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < n:
        v = _nonzero(rng)
        if v not in out and v not in taken:
            out.append(v)
    return sorted(out)


def _horner(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sl2_coords(rng: random.Random, a: int) -> tuple[list[Fraction], list[Fraction]]:
    return _distinct_nonzero(rng, a), [_nonzero(rng) for _ in range(a)]


def pointwise_inputs(seed: int) -> dict:
    """Coordinates and coefficients only; the pass builds the points."""
    rng = random.Random(f"pointwise-{seed % POINTWISE_INPUT_SETS}")
    hank = {a: [_sl2_coords(rng, a) for _ in range(SL2HANK_TRIALS)] for a in SL2HANK_DEGREES}
    kron = {}
    for a in KRONECKER_DEGREES:
        pairs = []
        while len(pairs) < KRONECKER_TRIALS:
            roots = _distinct_nonzero(rng, a)
            rco = [Fraction(rng.randint(-9, 9)) for _ in range(a)]
            if all(_horner(rco, x) != 0 for x in roots):
                pairs.append((roots, rco))
        kron[a] = pairs
    gw = {}
    for a in GW_DEGREES:
        items = []
        for _ in range(GW_TRIALS):
            coords = _sl2_coords(rng, a)
            degk = rng.randint(0, 2 * a)
            kco = [Fraction(rng.randint(-5, 5)) for _ in range(degk)] + [Fraction(1)]
            items.append((coords, kco))
        gw[a] = items
    symp = {}
    for label, degs in SYMPLECTIC_CONFIGS:
        items = []
        for _ in range(SYMPLECTIC_TRIALS):
            ws, ys, taken = [], [], []
            for a in degs:
                w = _distinct_nonzero(rng, a, taken)
                taken += w
                ws.append(w)
                ys.append([_nonzero(rng) for _ in range(a)])
            items.append((ws, ys))
        symp[(label, degs)] = items
    return {"hank": hank, "kron": kron, "gw": gw, "symp": symp}


def _point(label: str, ws, ys):
    return points.from_coords(rootdata.datum(label), ws, ys, require_trigonometric=True)


def three_route_values(pt) -> tuple[bool, list]:
    res = minors.crosscheck_three_routes(pt)
    vals = [
        [r["family"], r["index"], str(r["hankel"]), r["wedge_sign"], r["subresultant_sign"]]
        for r in res["records"]
    ]
    return res["agree"], vals


def _round_trip(pts) -> tuple[bool, None]:
    """JSON round trip, and the chart recovered from (Q, R) alone."""
    for pt in pts:
        doc = pt.to_json()
        if points.ZastavaPoint.from_json(doc).to_json() != doc:
            return False, None
        bare = {k: v for k, v in doc.items() if k not in ("w", "y")}
        if points.recover_coords(points.ZastavaPoint.from_json(bare)).to_json() != doc:
            return False, None
    return True, None


def _kronecker(pairs, a: int) -> tuple[bool, dict]:
    """Sub-resultants against Hankel minors, magnitudes equal and signs
    fixed per index across the sampled pairs."""
    signs = {"odd": {}, "even": {}}
    for roots, rco in pairs:
        Q = unipoly.UniPoly.from_roots(roots)
        R = unipoly.UniPoly(rco)
        c = series.series_expand(R, Q, 2 * a + 1)
        cases = [("odd", i, linalg.subresultant_odd(Q, R, i), linalg.hankel_minor_C(c, a - i))
                 for i in range(a)]
        cases += [("even", i, linalg.subresultant_even(Q, R, i), linalg.hankel_minor_D(c, a - i - 1))
                  for i in range(a - 1)]
        for kind, i, lhs, ref in cases:
            if abs(lhs) != abs(ref):
                return False, {"kind": kind, "i": i, "lhs": str(lhs), "ref": str(ref)}
            if ref != 0:
                sign = 1 if lhs == ref else -1
                if signs[kind].setdefault(str(i), sign) != sign:
                    return False, {"kind": kind + "-sign", "i": i}
    return True, signs


def pointwise_pass(inputs: dict) -> list[dict]:
    checks = Checks()
    sl2: dict[int, list] = {}
    for a in SL2HANK_DEGREES:
        def hank(a=a):
            pts = [_point("A1", [ws], [ys]) for ws, ys in inputs["hank"][a]]
            sl2.setdefault(a, []).extend(pts)
            ok, vals = True, []
            for pt in pts:
                agree, v = three_route_values(pt)
                ok &= agree
                vals.append(v)
            return ok, vals
        checks.run(f"three-route-a{a}-x{SL2HANK_TRIALS}", hank)
    for a in KRONECKER_DEGREES:
        checks.run(f"kronecker-a{a}-x{KRONECKER_TRIALS}",
                   lambda a=a: _kronecker(inputs["kron"][a], a))
    for a in GW_DEGREES:
        def gw(a=a):
            ok = True
            for (ws, ys), kco in inputs["gw"][a]:
                pt = _point("A1", [ws], [ys])
                sl2.setdefault(a, []).append(pt)
                data = superpotential.SuperData((unipoly.UniPoly(kco),))
                ok &= superpotential.verify_gw_w(pt, data)["ok"]
            return ok, None
        checks.run(f"gw-eq-w-a{a}-x{GW_TRIALS}", gw)
    for label, degs in SYMPLECTIC_CONFIGS:
        def symp(label=label, degs=degs):
            ok = True
            for ws, ys in inputs["symp"][(label, degs)]:
                assignment = {}
                for i, (w, y) in enumerate(zip(ws, ys), start=1):
                    for r, (wv, yv) in enumerate(zip(w, y), start=1):
                        assignment[f"w{i}_{r}"] = wv
                        assignment[f"y{i}_{r}"] = yv
                res = poisson.symplectic_check_trig(rootdata.datum(label), degs, assignment)
                ok &= res["ok"]
            return ok, None
        checks.run(f"symplectic-{_tag(label, degs)}-x{SYMPLECTIC_TRIALS}", symp)
    for a in SL2HANK_DEGREES:
        checks.run(f"round-trip-sl2-a{a}", lambda a=a: _round_trip(sl2.get(a, [])))
    for label, degs in SYMPLECTIC_CONFIGS:
        def trip(label=label, degs=degs):
            return _round_trip([_point(label, ws, ys) for ws, ys in inputs["symp"][(label, degs)]])
        checks.run(f"round-trip-{_tag(label, degs)}", trip)
    return checks.records


def pointwise_negative_control(inputs: dict, reference: list[dict]) -> tuple[bool, str]:
    """A point whose first y is doubled must give three-route values that
    differ from the stored reference, and a point document whose y no
    longer matches R must be rejected by ZastavaPoint.from_json."""
    a = SL2HANK_DEGREES[-1]
    ws, ys = inputs["hank"][a][0]
    pt = _point("A1", [ws], [ys])
    bent = _point("A1", [ws], [[2 * ys[0]] + ys[1:]])
    ref = next(r for r in reference if r["id"] == f"three-route-a{a}-x{SL2HANK_TRIALS}")
    caught = three_route_values(bent)[1] != ref["output"][0]
    doc = pt.to_json()
    doc["y"] = [[str(2 * ys[0])] + doc["y"][0][1:]]
    try:
        points.ZastavaPoint.from_json(doc)
        rejected = False
    except ValueError:
        rejected = True
    return caught and rejected, ("three-route values of a perturbed point differ from the "
                                 "reference; an inconsistent point document is rejected")


# -- dispatch ---------------------------------------------------------------


class Workload:
    """Inputs from a seed, one pass over them, and a negative control."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.inputs = pointwise_inputs(seed) if name == "pointwise" else None

    @property
    def reference_name(self) -> str:
        if self.name == "pointwise":
            return f"pointwise-{self.seed % POINTWISE_INPUT_SETS}.json"
        return f"{self.name}.json"

    def run_pass(self) -> list[dict]:
        if self.name == "symbolic_build":
            return build_pass()
        if self.name == "symbolic_eval":
            return eval_pass(self.seed)
        return pointwise_pass(self.inputs)

    def negative_control(self, reference: list[dict]) -> tuple[bool, str]:
        if self.name == "symbolic_build":
            return build_negative_control()
        if self.name == "symbolic_eval":
            return eval_negative_control(self.seed)
        return pointwise_negative_control(self.inputs, reference)


def calibrate() -> None:
    """First call into the wedge-minor layer, which resolves its index
    patterns lazily; run at set-up so that no pass pays for it."""
    pt = _point("A1", [[Fraction(2)]], [[Fraction(3)]])
    minors.generalized_minor_v1(pt, 1)

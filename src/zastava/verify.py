"""Verification pipelines: named check suites with JSON-able reports.

Each profile yields its checks of a family of exact identities, and
``run_profile`` runs them under a recorded RNG seed;
a report with any failing check maps to a nonzero process exit status in
the CLI.  Timing fields are informational and excluded from the
determinism contract.
"""

from __future__ import annotations

import itertools
import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .cluster import initial_seed_sl2, log_canonicity_check, sample_chart_point
from .minors import crosscheck_three_routes
from .points import ZastavaPoint, chart, from_coords
from .poisson import BracketTable, jacobi_report, symplectic_check_trig, verify_descent
from .rootdata import datum
from .superpotential import SuperData, verify_gw_w
from .unipoly import UniPoly


@dataclass
class VerificationReport:
    suite: str
    rng_seed: int
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)

    def to_json(self, include_timing: bool = True) -> dict:
        checks = [
            {k: v for k, v in c.items() if include_timing or k != "timing_ns"}
            for c in self.checks
        ]
        return {
            "suite": self.suite,
            "rng_seed": self.rng_seed,
            "ok": self.ok,
            "checks": checks,
        }


@dataclass(frozen=True)
class Sampled:
    """A check over ``trials`` inputs, each drawn by ``draw(rng)`` and
    checked by ``check(input) -> (ok, witness)``; the first failing input
    ends it."""

    trials: int
    draw: Callable[[random.Random], object]
    check: Callable[[object], tuple[bool, object]]


# -- random instance generators ---------------------------------------------


def random_sl2_point(a: int, rng: random.Random) -> ZastavaPoint:
    """Rank-one trigonometric point on one chart from ``sample_chart_point``."""
    values, names = sample_chart_point((a,), rng), chart((a,))
    ws = [v for c, v in values.items() if names[c][0] == "w"]
    ys = [v for c, v in values.items() if names[c][0] == "y"]
    return from_coords(datum("A1"), [ws], [ys], require_trigonometric=True)


# -- profiles -----------------------------------------------------------------
#
# A profile yields its checks in order as (id, check) pairs.  A check is a
# Sampled, or a function of the shared RNG returning (ok, witness); a
# witness is read only when ok is false.


def _three_routes(pt: ZastavaPoint) -> tuple[bool, object]:
    res = crosscheck_three_routes(pt)
    if res["agree"]:
        return True, None
    records = [
        {k: (str(v) if isinstance(v, Fraction) else v) for k, v in rec.items()}
        for rec in res["records"]
    ]
    return False, {"records": records}


def _three_routes_at_sample(pt: ZastavaPoint) -> tuple[bool, object]:
    ok, witness = _three_routes(pt)
    return ok, None if ok else {"point": pt.to_json(), **witness}


def profile_sl2hank(trials: int = 25, points: Sequence[ZastavaPoint] = ()):
    for a in (1, 2, 3, 4, 5):
        yield (f"three-route-a{a}-x{trials}",
               Sampled(trials, partial(random_sl2_point, a), _three_routes_at_sample))
    for k, pt in enumerate(points):
        yield f"three-route-point-{k}", lambda rng, pt=pt: _three_routes(pt)


_BRACKET_CONFIGS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("A1", (1,)),
    ("A1", (2,)),
    ("A2", (1, 1)),
    ("A2", (2, 1)),
    ("B2", (2, 1)),
    ("C3", (1, 1, 1)),
    ("D4", (1, 1, 1, 1)),
    ("D4", (2, 1, 1, 1)),
)


def profile_jacobi():
    for label, degs in _BRACKET_CONFIGS:
        for kind in ("rational", "trigonometric"):
            def check(rng, label=label, degs=degs, kind=kind):
                res = jacobi_report(BracketTable(datum(label), degs, kind))
                return res["ok"], res["failures"]
            yield f"jacobi-{label}-{'-'.join(map(str, degs))}-{kind}", check


def profile_symplectic(trials: int = 20):
    for label, degs in _BRACKET_CONFIGS:
        def check(pt, label=label, degs=degs):
            ok = symplectic_check_trig(datum(label), degs, pt)["ok"]
            return ok, None if ok else {"point": {k: str(v) for k, v in pt.items()}}
        yield (f"symplectic-{label}-{'-'.join(map(str, degs))}-x{trials}",
               Sampled(trials, partial(sample_chart_point, degs), check))


_DESCENT_CONFIGS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("A1", (1,)),
    ("A1", (2,)),
    ("A1", (3,)),
    ("A2", (1, 1)),
    ("A1", (4,)),
    ("A2", (2, 1)),
    ("A2", (3, 2)),
    ("B2", (2, 1)),
    ("C3", (1, 1, 1)),
    ("A1", (5,)),
    ("A2", (3, 3)),
    ("D4", (1, 1, 1, 1)),
    ("D4", (2, 1, 1, 1)),
)


def profile_descent():
    for label, degs in _DESCENT_CONFIGS:
        for kind in ("rational", "trigonometric"):
            def check(rng, label=label, degs=degs, kind=kind):
                res = verify_descent(datum(label), degs, kind)
                return res["ok"], res["checks"]
            yield f"descent-{label}-{'-'.join(map(str, degs))}-{kind}", check


def _gw(drawn: tuple[ZastavaPoint, UniPoly]) -> tuple[bool, object]:
    pt, K = drawn
    res = verify_gw_w(pt, SuperData((K,)))
    if res["ok"]:
        return True, None
    return False, {"point": pt.to_json(), "K": K.to_json(),
                   "lhs": str(res["lhs"]), "rhs": str(res["rhs"])}


def profile_gw(trials: int = 50):
    for a in range(1, 5):
        def draw(rng, a=a):
            pt = random_sl2_point(a, rng)
            degK = rng.randint(0, 2 * a)
            return pt, UniPoly([Fraction(rng.randint(-5, 5)) for _ in range(degK)] + [Fraction(1)])
        yield f"gw-eq-w-a{a}-x{trials}", Sampled(trials, draw, _gw)


def profile_logcanon(trials: int = 5):
    for a in (2, 3, 4, 5, 6):
        def check(rng, a=a):
            seed = initial_seed_sl2(None, a)
            table = BracketTable(datum("A1"), (a,), "trigonometric")
            res = log_canonicity_check(seed, table, trials=trials, rng=rng)
            return res["ok"], [p["pair"] for p in res["pairs"] if not p["constant"]]
        yield f"log-canonical-a{a}-x{trials}", check


_PROFILES = {
    "sl2hank": profile_sl2hank,
    "jacobi": profile_jacobi,
    "descent": profile_descent,
    "symplectic": profile_symplectic,
    "gw": profile_gw,
    "logcanon": profile_logcanon,
}


def _outcome(check, rng: random.Random) -> tuple[bool, object]:
    if not isinstance(check, Sampled):
        return check(rng)
    for _ in range(check.trials):
        ok, witness = check.check(check.draw(rng))
        if not ok:
            return False, witness
    return True, None


def run_profile(profile: str, seed: int, **kwargs) -> VerificationReport:
    """Run one named suite (or "all", each suite in turn) deterministically
    under the seed; ``kwargs`` go to every profile run.  A check that
    raises is a failure whose witness names the exception (the traceback
    goes to stderr)."""
    if profile != "all" and profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    # bind every profile's arguments before any check runs
    names = list(_PROFILES) if profile == "all" else [profile]
    profiles = [_PROFILES[name](**kwargs) for name in names]
    rng = random.Random(seed)
    report = VerificationReport(profile, rng_seed=seed)
    for identifier, check in itertools.chain.from_iterable(profiles):
        t0 = time.perf_counter_ns()
        try:
            ok, witness = _outcome(check, rng)
        except Exception as exc:  # one broken check must not end the report
            traceback.print_exc()
            ok, witness = False, {"reason": f"{type(exc).__name__}: {exc}"}
        report.checks.append({"id": identifier, "status": "pass" if ok else "fail",
                              "witness": None if ok else witness,
                              "timing_ns": time.perf_counter_ns() - t0})
    return report

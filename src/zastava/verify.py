"""Verification pipelines: named check suites with JSON-able reports.

Each profile runs a family of exact identities under a recorded RNG seed;
a report with any failing check maps to a nonzero process exit status in
the CLI.  Timing fields are informational and excluded from the
determinism contract.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .cluster import initial_seed_sl2, log_canonicity_check, sample_chart_point
from .linalg import hankel_minor_C, hankel_minor_D, subresultant_even, subresultant_odd
from .minors import crosscheck_three_routes
from .points import ZastavaPoint, from_coords
from .poisson import BracketTable, jacobi_report, symplectic_check_trig, verify_descent
from .rootdata import datum
from .series import series_expand
from .superpotential import SuperData, verify_gw_w
from .unipoly import UniPoly


@dataclass
class VerificationReport:
    suite: str
    rng_seed: int
    checks: list = field(default_factory=list)

    def add(self, identifier: str, ok: bool, witness=None, elapsed_ns: int = 0) -> None:
        self.checks.append(
            {
                "id": identifier,
                "status": "pass" if ok else "fail",
                "witness": witness if not ok else None,
                "timing_ns": elapsed_ns,
            }
        )

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


def _timed(report: VerificationReport, identifier: str, fn: Callable[[], tuple[bool, object]]) -> None:
    """Run one check and record it; a check that raises is a failure whose
    witness names the exception (the traceback goes to stderr)."""
    t0 = time.perf_counter_ns()
    try:
        ok, witness = fn()
    except Exception as exc:  # one broken check must not end the report
        traceback.print_exc()
        ok, witness = False, {"reason": f"{type(exc).__name__}: {exc}"}
    report.add(identifier, ok, witness, time.perf_counter_ns() - t0)


# -- random instance generators ---------------------------------------------


def random_sl2_point(a: int, rng: random.Random) -> ZastavaPoint:
    """Rank-one trigonometric point on one chart from ``sample_chart_point``."""
    chart = sample_chart_point((a,), rng)
    ws = [chart[f"w1_{r}"] for r in range(1, a + 1)]
    ys = [chart[f"y1_{r}"] for r in range(1, a + 1)]
    return from_coords(datum("A1"), [ws], [ys], require_trigonometric=True)


# -- profiles -----------------------------------------------------------------


def run_sl2hank(rng: random.Random, trials: int = 25,
                points: Sequence[ZastavaPoint] = ()) -> VerificationReport:
    rep = VerificationReport("sl2hank", rng_seed=-1)
    for a in (1, 2, 3, 4):
        def check(a=a):
            for t in range(trials):
                pt = random_sl2_point(a, rng)
                res = crosscheck_three_routes(pt)
                if not res["agree"]:
                    return False, {"point": pt.to_json(), "records": _str_records(res["records"])}
            return True, None
        _timed(rep, f"three-route-a{a}-x{trials}", check)
    for k, pt in enumerate(points):
        _timed(rep, f"three-route-point-{k}", lambda pt=pt: _crosscheck_point(pt))
    return rep


def _crosscheck_point(pt: ZastavaPoint) -> tuple[bool, object]:
    res = crosscheck_three_routes(pt)
    return res["agree"], None if res["agree"] else {"records": _str_records(res["records"])}


def _str_records(records) -> list:
    return [
        {k: (str(v) if isinstance(v, Fraction) else v) for k, v in rec.items()}
        for rec in records
    ]


def run_kronecker(rng: random.Random, trials: int = 20) -> VerificationReport:
    """Sub-resultant minors against Hankel minors at sampled points: odd
    index i equals C_{a-i}, even index i equals D_{a-i-1}."""
    rep = VerificationReport("kronecker", rng_seed=-1)
    families = (
        ("odd", subresultant_odd, hankel_minor_C, 0),
        ("even", subresultant_even, hankel_minor_D, 1),
    )
    for a in range(1, 6):
        def check(a=a):
            for _ in range(trials):
                pt = random_sl2_point(a, rng)
                Q, R = pt.Q[0], pt.R[0]
                c = series_expand(R, Q, 2 * a + 1)
                for kind, subresultant, minor, shift in families:
                    for i in range(a - shift):
                        lhs = subresultant(Q, R, i)
                        ref = minor(c, a - i - shift)
                        if lhs != ref:
                            return False, {"kind": kind, "a": a, "i": i, "lhs": str(lhs),
                                           "ref": str(ref), "point": pt.to_json()}
            return True, None
        _timed(rep, f"kronecker-a{a}-x{trials}", check)
    return rep


_BRACKET_CONFIGS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("A1", (1,)),
    ("A1", (2,)),
    ("A2", (1, 1)),
    ("A2", (2, 1)),
    ("B2", (2, 1)),
    ("C3", (1, 1, 1)),
)


def run_jacobi(rng: random.Random) -> VerificationReport:
    rep = VerificationReport("jacobi", rng_seed=-1)
    for label, degs in _BRACKET_CONFIGS:
        for kind in ("rational", "trigonometric"):
            table = BracketTable(datum(label), degs, kind)
            def check(table=table):
                res = jacobi_report(table)
                return res["ok"], res["failures"] or None
            _timed(rep, f"jacobi-{label}-{'-'.join(map(str, degs))}-{kind}", check)
    return rep


def run_symplectic(rng: random.Random, trials: int = 20) -> VerificationReport:
    rep = VerificationReport("symplectic", rng_seed=-1)
    for label, degs in _BRACKET_CONFIGS:
        dat = datum(label)
        def check(dat=dat, degs=degs):
            for _ in range(trials):
                pt = sample_chart_point(degs, rng)
                res = symplectic_check_trig(dat, degs, pt)
                if not res["ok"]:
                    return False, {"point": {k: str(v) for k, v in pt.items()}}
            return True, None
        _timed(rep, f"symplectic-{label}-{'-'.join(map(str, degs))}-x{trials}", check)
    return rep


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
)


def run_descent(rng: random.Random) -> VerificationReport:
    rep = VerificationReport("descent", rng_seed=-1)
    for label, degs in _DESCENT_CONFIGS:
        for kind in ("rational", "trigonometric"):
            def check(label=label, degs=degs, kind=kind):
                res = verify_descent(datum(label), degs, kind)
                return res["ok"], res["checks"] if not res["ok"] else None
            _timed(rep, f"descent-{label}-{'-'.join(map(str, degs))}-{kind}", check)
    return rep


def run_gw(rng: random.Random, trials: int = 50) -> VerificationReport:
    rep = VerificationReport("gw", rng_seed=-1)
    for a in range(1, 5):
        def check(a=a):
            for _ in range(trials):
                pt = random_sl2_point(a, rng)
                degK = rng.randint(0, 2 * a)
                K = UniPoly([Fraction(rng.randint(-5, 5)) for _ in range(degK)] + [Fraction(1)])
                res = verify_gw_w(pt, SuperData((K,)))
                if not res["ok"]:
                    return False, {"point": pt.to_json(), "K": K.to_json(),
                                   "lhs": str(res["lhs"]), "rhs": str(res["rhs"])}
            return True, None
        _timed(rep, f"gw-eq-w-a{a}-x{trials}", check)
    return rep


def run_logcanon(rng: random.Random, trials: int = 5) -> VerificationReport:
    rep = VerificationReport("logcanon", rng_seed=-1)
    for a in (2, 3, 4, 5, 6):
        def check(a=a):
            seed = initial_seed_sl2(None, a)
            table = BracketTable(datum("A1"), (a,), "trigonometric")
            res = log_canonicity_check(seed, table, trials=trials, rng=rng)
            bad = [p["pair"] for p in res["pairs"] if not p["constant"]]
            return res["ok"], bad or None
        _timed(rep, f"log-canonical-a{a}-x{trials}", check)
    return rep


_PROFILES = {
    "sl2hank": run_sl2hank,
    "kronecker": run_kronecker,
    "jacobi": run_jacobi,
    "descent": run_descent,
    "symplectic": run_symplectic,
    "gw": run_gw,
    "logcanon": run_logcanon,
}


def run_profile(profile: str, seed: int, **kwargs) -> VerificationReport:
    """Run one named suite (or "all") deterministically under the seed."""
    rng = random.Random(seed)
    if profile == "all":
        combined = VerificationReport("all", rng_seed=seed)
        for name, fn in _PROFILES.items():
            sub = fn(rng)
            combined.checks.extend(sub.checks)
        return combined
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    rep = _PROFILES[profile](rng, **kwargs)
    rep.rng_seed = seed
    return rep

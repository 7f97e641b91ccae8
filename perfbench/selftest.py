"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Checks that the metric lists match BENCHMARK.json and that a run prints
each metric with its unit, that each workload's configuration list is the
pinned one, that the tracer refuses a layer entry point it cannot find,
that count metrics repeat exactly across two traced runs, that each traced
run reproduces its workload's cost split, and that the benchmark fails
without printing a result when the package source is absent.  The traced
runs take a few minutes.  Exits nonzero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

run.import_package()
import workloads  # noqa: E402  (needs the package path set up by run)

PINNED = {
    "BUILD_DESCENT": (("A1", (3,)),),
    "BUILD_JACOBI": (("A2", (2, 1)),),
    "KINDS": ("rational", "trigonometric"),
    "EVAL_DEGREES": (2, 3),
    "EVAL_TRIALS": 5,
    "SL2HANK_DEGREES": (1, 2, 3, 4),
    "KRONECKER_DEGREES": (1, 2, 3, 4, 5),
    "GW_DEGREES": (1, 2, 3, 4),
    "SYMPLECTIC_CONFIGS": (("A1", (1,)), ("A1", (2,)), ("A2", (1, 1)), ("A2", (2, 1))),
    "SL2HANK_TRIALS": 25,
    "KRONECKER_TRIALS": 20,
    "GW_TRIALS": 50,
    "SYMPLECTIC_TRIALS": 20,
    "POINTWISE_INPUT_SETS": 16,
}

CHECK_IDS = {
    "symbolic_build": [
        "descent-A1-3-rational", "descent-A1-3-trigonometric",
        "jacobi-A2-2-1-rational", "jacobi-A2-2-1-trigonometric",
    ],
    "symbolic_eval": ["log-canonical-a2-x5", "log-canonical-a3-x5"],
    "pointwise": (
        [f"three-route-a{a}-x25" for a in (1, 2, 3, 4)]
        + [f"kronecker-a{a}-x20" for a in (1, 2, 3, 4, 5)]
        + [f"gw-eq-w-a{a}-x50" for a in (1, 2, 3, 4)]
        + ["symplectic-A1-1-x20", "symplectic-A1-2-x20",
           "symplectic-A2-1-1-x20", "symplectic-A2-2-1-x20"]
        + [f"round-trip-sl2-a{a}" for a in (1, 2, 3, 4)]
        + ["round-trip-A1-1", "round-trip-A1-2", "round-trip-A2-1-1", "round-trip-A2-2-1"]
    ),
}


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def bench_run(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        fail(f"run exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_lists() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END:
        fail(f"end_to_end metrics {e2e} differ from run.END_TO_END {run.END_TO_END}")
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if layers != run.PER_LAYER:
        fail("per_layer metrics in BENCHMARK.json differ from run.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        fail("workload names in BENCHMARK.json differ from workloads.WORKLOADS")


def test_pinned_configs() -> None:
    for name, value in PINNED.items():
        if getattr(workloads, name) != value:
            fail(f"workloads.{name} = {getattr(workloads, name)!r}, pinned {value!r}")
    refs = sorted(os.listdir(run.REFERENCE))
    expected = sorted(["symbolic_build.json", "symbolic_eval.json"]
                      + [f"pointwise-{k}.json" for k in range(PINNED["POINTWISE_INPUT_SETS"])])
    if refs != expected:
        fail(f"reference files {refs}, expected {expected}")
    for ref in refs:
        with open(os.path.join(run.REFERENCE, ref)) as fh:
            doc = json.load(fh)
        ids = [c["id"] for c in doc["checks"]]
        if ids != CHECK_IDS[doc["workload"]]:
            fail(f"{ref}: check ids {ids} differ from the pinned list")
        if any(c["status"] != "pass" for c in doc["checks"]):
            fail(f"{ref}: a reference check does not pass")


def test_strict_install() -> None:
    import spans
    from zastava import linalg, multirat

    tr = spans.Tracer()
    for wrap, owner in ((tr.wrap_method, multirat.MultiPoly), (tr.wrap_function, linalg)):
        try:
            wrap(owner, "no_such_entry_point", "x")
        except AttributeError:
            continue
        fail(f"{wrap.__name__} accepted a missing attribute of {owner}")
    tr.uninstall()


def test_printed_metrics() -> None:
    proc = bench_run("--workload", "pointwise", "--seed", "5", "--seconds", "1", "--trace", "0")
    res = result_of(proc)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(res)}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != run.END_TO_END:
        fail(f"untraced run printed {got}")
    summary = proc.stdout.strip().splitlines()[-2]
    for name in list(run.END_TO_END) + ["failed_frac"]:
        if f"{name}=" not in summary:
            fail(f"summary line lacks {name}: {summary}")
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        fail(f"untraced run not correct: {res}")


# Per workload: the span that must be reached, and the span whose self time
# must be the largest of the traced pass (None where no single layer leads).
COST_SPLIT = {
    "symbolic_build": ("multirat.poly_mul", "multirat.poly_mul"),
    "symbolic_eval": ("multirat.evaluate", "multirat.evaluate"),
    "pointwise": ("linalg.det.bareiss", None),
}


def check_cost_split(wl: str, metrics: dict) -> None:
    reached, leader = COST_SPLIT[wl]
    if metrics[f"{reached}.calls"]["value"] <= 0:
        fail(f"{wl}: traced run never reached {reached}")
    if leader is not None:
        self_s = {k: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
        top = max(self_s, key=self_s.get)
        if top != f"{leader}.self_s":
            fail(f"{wl}: largest self time is {top} ({self_s[top]:.3f} s), not {leader}")


def test_counts_repeat() -> None:
    counts = run.COUNT_METRICS
    for wl in workloads.WORKLOADS:
        seen = []
        for _ in range(2):
            res = result_of(bench_run("--workload", wl, "--seed", "7", "--seconds", "1",
                                      "--trace", "1"))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != dict(run.PER_LAYER):
                fail(f"{wl}: traced run printed {sorted(got)}")
            if not res["correct"]:
                fail(f"{wl}: traced run not correct: {res}")
            check_cost_split(wl, res["metrics"])
            seen.append({k: res["metrics"][k]["value"] for k in counts})
        if seen[0] != seen[1]:
            diff = {k: (seen[0][k], seen[1][k]) for k in counts if seen[0][k] != seen[1][k]}
            fail(f"{wl}: count metrics differ between two traced runs: {diff}")
        print(f"ok: {wl} counts repeat ({len(counts)} metrics), cost split holds")


def test_fails_without_source() -> None:
    bare = os.path.join(run.ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_run("--workload", "pointwise", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            fail("run without package source exited 0 or printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for test in (test_metric_lists, test_pinned_configs, test_strict_install,
                 test_printed_metrics, test_fails_without_source, test_counts_repeat):
        test()
        print(f"ok: {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pointwise --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout.  The run

1. runs the exactness preflight (``zastava.bench.preflight``) and the
   workload's negative control; if either goes wrong it records no timing;
2. runs passes in a closed loop in this single-threaded process for
   ``--seconds``, each pass compared check by check with the stored
   exact-output reference;
3. measures set-up (import, wedge calibration, inputs from the seed) in
   SETUP_SAMPLES fresh interpreters spread over the run, and keeps the
   median.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` counts
checks over all passes and ``failed`` those that failed, raised or changed
their exact output.  The span table of a traced run is also written to
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference")
TRACE_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "pass_s_p50": "s", "peak_rss_mb": "MB"}

# A name ending in .calls or .self_s reads that column of the span table;
# any other name is a counter kept by the tracer or computed below.
PER_LAYER = [
    ("multirat.poly_mul.calls", "count"),
    ("multirat.poly_mul.self_s", "s"),
    ("multirat.poly_mul.term_pairs", "count"),
    ("multirat.poly_mul.peak_terms", "count"),
    ("multirat.peak_coeff_bits", "bits"),
    ("multirat.evaluate.calls", "count"),
    ("multirat.evaluate.self_s", "s"),
    ("multirat.diff.self_s", "s"),
    ("multirat.subs.self_s", "s"),
    ("cluster.initial_seed_sl2.self_s", "s"),
    ("cluster.log_canonicity_check.self_s", "s"),
    ("cluster.sample_accept_ratio", "ratio"),
    ("poisson.bracket.calls", "count"),
    ("poisson.bracket.self_s", "s"),
    ("poisson.verify_descent.self_s", "s"),
    ("poisson.jacobi_report.self_s", "s"),
    ("poisson.symplectic_check_trig.self_s", "s"),
    ("linalg.det.bareiss.calls", "count"),
    ("linalg.det.bareiss.self_s", "s"),
    ("linalg.det.bareiss.max_n", "count"),
    ("linalg.det.cofactor.calls", "count"),
    ("linalg.det.cofactor.self_s", "s"),
    ("linalg.det.cofactor.max_n", "count"),
    ("linalg.hankel_minor.self_s", "s"),
    ("linalg.subresultant.self_s", "s"),
    ("series.series_expand.self_s", "s"),
    ("unipoly.poly_divmod.self_s", "s"),
    ("unipoly.poly_gcd.self_s", "s"),
    ("unipoly.rational_roots.self_s", "s"),
    ("points.from_coords.self_s", "s"),
    ("points.g_matrix.self_s", "s"),
    ("points.recover_coords.self_s", "s"),
    ("minors.crosscheck_three_routes.self_s", "s"),
    ("superpotential.verify_gw_w.self_s", "s"),
    ("minors.calibration_s", "s"),
    ("trace_overhead_frac", "ratio"),
]
COUNT_METRICS = [name for name, unit in PER_LAYER if unit == "count" or name.endswith("_bits")]


def import_package():
    """Import zastava from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "zastava", "__init__.py")):
        raise SystemExit(f"run.py: no package source at {SRC}/zastava")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import zastava

    if os.path.dirname(os.path.abspath(zastava.__file__)) != os.path.join(SRC, "zastava"):
        raise SystemExit(f"run.py: imported zastava from {zastava.__file__}, not {SRC}")


def setup(workload: str, seed: int):
    """Import, calibrate and make the inputs; return the workload and the
    (setup_s, calibration_s) this took in this process."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    t1 = time.perf_counter()
    workloads.calibrate()
    t2 = time.perf_counter()
    wl = workloads.Workload(workload, seed)
    t3 = time.perf_counter()
    return wl, t3 - t0, t2 - t1


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """(setup_s, calibration_s) of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    sample = json.loads(out.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["calibration_s"]


def load_reference(wl) -> list[dict]:
    with open(os.path.join(REFERENCE, wl.reference_name)) as fh:
        return json.load(fh)["checks"]


def normalise(records: list[dict]) -> list[dict]:
    """The records as they read back from JSON (tuples become lists)."""
    return json.loads(json.dumps(records))


def mismatches(records: list[dict], reference: list[dict]) -> int:
    """Checks that failed, raised, or differ from the reference."""
    got = {r["id"]: r for r in normalise(records)}
    bad = 0
    for ref in reference:
        rec = got.pop(ref["id"], None)
        if rec is None or rec["status"] != "pass" or rec != ref:
            bad += 1
    return bad + len(got)


def preflight(wl, reference) -> tuple[bool, list[str]]:
    from zastava import bench

    notes = []
    pre = bench.preflight()
    notes.append(f"preflight: {'ok' if pre['ok'] else 'FAILED'} {json.dumps(pre)}")
    ok_control, what = wl.negative_control(reference)
    notes.append(f"negative control: {'ok' if ok_control else 'FAILED'} ({what})")
    return pre["ok"] and ok_control, notes


def timed_pass(wl, reference, tally) -> float:
    t0 = time.perf_counter()
    records = wl.run_pass()
    elapsed = time.perf_counter() - t0
    tally[0] += len(reference)
    tally[1] += mismatches(records, reference)
    return elapsed


def layer_metrics(tr, calibration_s: float, overhead: float) -> dict[str, float]:
    table = tr.table()
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            values[name] = table.get(span, {}).get(field, 0.0 if field == "self_s" else 0)
        else:
            values[name] = tr.counts.get(name, 0)
    accepted = tr.counts.get("cluster.accepted_points", 0)
    drawn = table.get("cluster.sample_chart_point", {}).get("calls", 0)
    values["cluster.sample_accept_ratio"] = accepted / drawn if drawn else 0.0
    values["minors.calibration_s"] = calibration_s
    values["trace_overhead_frac"] = overhead
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl, own_setup_s, own_calibration_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s, "calibration_s": own_calibration_s}))
        return 0

    import spans

    reference = load_reference(wl)
    ok, notes = preflight(wl, reference)
    for line in notes:
        print(line)
    if not ok:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    tally = [0, 0]  # checks attempted, checks failed
    untraced: list[float] = []
    traced: list[float] = []
    tracers = []
    samples: list[tuple[float, float]] = []  # (setup_s, calibration_s)
    # Set-up samples are spread over the run, one per SETUP_SAMPLES-th of the
    # window, because the speed of a shared machine drifts over seconds.
    interval = args.seconds / SETUP_SAMPLES
    start = time.perf_counter()
    while True:
        while len(samples) < SETUP_SAMPLES and time.perf_counter() - start >= interval * len(samples):
            samples.append(setup_sample(args.workload, args.seed))
        t0 = time.perf_counter()
        untraced.append(timed_pass(wl, reference, tally))
        if args.trace:
            with spans.Tracer() as tr:
                traced.append(timed_pass(wl, reference, tally))
            tracers.append(tr)
        now = time.perf_counter()
        # Start another round only if one as long as the last ends in time.
        if (now - start) + (now - t0) > args.seconds:
            break
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_sample(args.workload, args.seed))
    setup_s = [s for s, _ in samples]
    calibration_s = [c for _, c in samples]
    attempted, failed = tally
    correct = failed == 0

    if args.trace:
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
        per_pass = [layer_metrics(tr, statistics.median(calibration_s), overhead) for tr in tracers]
        metrics = {}
        for name, unit in PER_LAYER:
            values = [p[name] for p in per_pass]
            value = values[0] if name in COUNT_METRICS else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "untraced_pass_s": untraced, "traced_pass_s": traced,
                       "spans": [tr.table() for tr in tracers],
                       "counts": [tr.counts for tr in tracers]}, fh, indent=1)
        print(f"{args.workload} seed={args.seed}: {len(traced)} traced and {len(untraced)} "
              f"untraced passes, span table in {os.path.relpath(path, ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "pass_s_p50": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        print(f"{args.workload} seed={args.seed}: "
              f"setup_s={metrics['setup_s']['value']:.4f} s (median of {len(setup_s)}), "
              f"pass_s_p50={metrics['pass_s_p50']['value']:.4f} s (median of {len(untraced)} passes), "
              f"peak_rss_mb={metrics['peak_rss_mb']['value']:.1f} MB, "
              f"failed_frac={failed / attempted:.4f} ({failed} of {attempted} checks)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

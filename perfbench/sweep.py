"""Run every workload over a range of seeds and summarise, one process a run.

    python3 perfbench/sweep.py --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --trace-seed 1 --out perfbench/trajectory/BENCH_1.json

Prints, per workload, setup_s, pass_s_p50, peak_rss_mb and failed_frac with
their units: the median over the seeds, the quartiles, and the spread (the
distance between the quartiles as a share of the median).  With
``--trace-seed`` it adds one traced run per workload for the per-layer
metrics.  With ``--out`` it writes the whole record as a trajectory entry.
Runs use ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not trace:
        print(f"  {lines[-2]}", flush=True)
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None, help="write the summary as a JSON trajectory entry")
    ap.add_argument("--label", default="", help="free text kept in the entry, e.g. a commit")
    args = ap.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    entry = {
        "label": args.label,
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for wl in (w["name"] for w in spec["workloads"]):
        print(f"{wl}: seeds {seeds[0]}..{seeds[-1]}, {seconds} s each", flush=True)
        runs = [one_run(wl, s, seconds, 0) for s in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {}
        for name, unit in run.END_TO_END.items():
            summary[name] = {"unit": unit, **summarise([r["metrics"][name]["value"] for r in runs])}
        summary["failed_frac"] = {"unit": "ratio", "value": failed / attempted,
                                  "failed": failed, "attempted": attempted}
        record = {"all_correct": all(r["correct"] for r in runs), "end_to_end": summary,
                  "runs": [{k: v["value"] for k, v in r["metrics"].items()} for r in runs]}
        if args.trace_seed is not None:
            traced = one_run(wl, args.trace_seed, seconds, 1)
            record["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            record["per_layer_seed"] = args.trace_seed
            record["all_correct"] &= traced["correct"]
        entry["workloads"][wl] = record
        for name, s in summary.items():
            if "median" in s:
                print(f"  {wl} {name}: median {s['median']:.4f} {s['unit']} "
                      f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, spread {s['spread']:.3f}, n={s['n']})")
            else:
                print(f"  {wl} failed_frac: {s['value']:.4f} ({failed} of {attempted} checks)")
        print(flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(entry, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write the exact-output references under perfbench/reference/.

    python3 perfbench/make_reference.py

One file per workload, and for pointwise one per input set (the seed modulo
POINTWISE_INPUT_SETS).  Each holds the records of one pass: check ids,
statuses, log-canonicity bracket constants and three-route minor values.
Regenerate them only when a pinned workload changes, never to make a
changed answer pass; the script refuses to write a reference in which any
check does not pass.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    run.import_package()
    import workloads

    workloads.calibrate()
    os.makedirs(run.REFERENCE, exist_ok=True)
    jobs = [("symbolic_build", 0), ("symbolic_eval", 0)]
    jobs += [("pointwise", k) for k in range(workloads.POINTWISE_INPUT_SETS)]
    for name, seed in jobs:
        wl = workloads.Workload(name, seed)
        records = run.normalise(wl.run_pass())
        bad = [r["id"] for r in records if r["status"] != "pass"]
        if bad:
            print(f"{name} seed {seed}: checks not passing: {bad}", file=sys.stderr)
            return 1
        path = os.path.join(run.REFERENCE, wl.reference_name)
        with open(path, "w") as fh:
            lines = ",\n".join(json.dumps(r) for r in records)
            fh.write(f'{{"workload": "{name}", "checks": [\n{lines}\n]}}\n')
        print(f"wrote {os.path.relpath(path, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

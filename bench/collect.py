"""Gather run records from bench/out/ into one BENCH_<label>.json.

    python3 bench/collect.py LABEL TRACE

TRACE is 0 (end-to-end records) or 1 (traced records).  The file lists every
run per workload, with its seed, metadata and metrics, and the median of each
metric over the runs.
"""

import json
import statistics
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
KEEP = ("seed", "seconds", "backend", "python", "nproc", "loadavg_start", "commit",
        "correct", "attempted", "failed", "ops_failed_frac", "samples")


def main(argv):
    label, trace = argv[1], int(argv[2])
    out = {"label": label, "trace": trace, "workloads": {}}
    for name in workloads.NAMES:
        paths = sorted((BENCH / "out").glob(f"{name}-seed*-trace{trace}.json"))
        runs = [json.loads(p.read_text()) for p in paths]
        if not runs:
            continue
        metrics = runs[0]["metrics"]
        out["workloads"][name] = {
            "median": {
                m: {"value": statistics.median(r["metrics"][m]["value"] for r in runs),
                    "unit": metrics[m]["unit"]}
                for m in metrics
            },
            "runs": [
                dict({k: r[k] for k in KEEP if k in r},
                     metrics={m: v["value"] for m, v in r["metrics"].items()})
                for r in runs
            ],
        }
    suffix = "_traced" if trace else ""
    path = BENCH / f"BENCH_{label}{suffix}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}: {sum(len(w['runs']) for w in out['workloads'].values())} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

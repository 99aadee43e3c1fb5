"""Run the benchmark once per seed and summarise each metric over the runs.

Usage:
    python3 perfbench/baseline.py --workload NAME --seeds 501-510 [--seconds 40]
                                  [--trace 0|1] [--write]

Each run is a separate ``run.py`` process, one after another.  For every
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound in ``BENCHMARK.json``.  ``--write`` stores the summary as the
workload's entry in ``BASELINE.json``: end-to-end quartiles for
``--trace 0``, per-layer medians for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "BASELINE.json"


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in args.seeds:
        res = run_once(args.workload, seed, seconds, args.trace)
        results.append(res)
        shown = {k: round(v["value"], 4) for k, v in res["metrics"].items()
                 if args.trace == 0 or k.endswith("total_s")}
        print(f"seed {seed}: correct {res['correct']} attempted {res['attempted']} "
              f"failed {res['failed']} {shown}", flush=True)

    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        entry = {"median": round(median, 6), "unit": first["unit"]}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            entry.update(q1=round(q1, 6), q3=round(q3, 6), spread=round(spread, 4))
            if name in bounds:
                print(f"  {name:12s} median {median:10.4f}  spread {spread:.4f}  "
                      f"bound {bounds[name]}")
        summary[name] = entry

    if args.write:
        baseline = json.loads(BASELINE.read_text())
        entry = baseline["workloads"].setdefault(args.workload, {})
        if args.trace:
            entry["per_layer"] = {k: v["median"] for k, v in summary.items()}
        else:
            entry.update(runs=len(results), failed=sum(r["failed"] for r in results),
                         attempted=sum(r["attempted"] for r in results), end_to_end=summary)
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())

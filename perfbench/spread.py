"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads suites kernels elements \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds 36] [--out FILE]

Runs run.py once per (workload, seed), one run at a time, and reports for
each metric the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median.  The
spread of every metric except setup_s must stay within a third of the
metric's bound in BENCHMARK.json for the benchmark to count as steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    steady = True
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(w, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  "correct" if result["correct"] else f"FAILED {result['failed']}", flush=True)
        record = json.loads((BENCH / "out" / f"result-{w}-seed{args.seeds[-1]}-trace0.json").read_text())
        summary[w] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "failed": [r["failed"] for r in runs],
            "provenance": record["provenance"],
            "metrics": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            summary[w]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "values": values,
            }
            print(f"  {w:<9} {name:<12} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  bound {bound}  {'ok' if ok else 'TOO WIDE'}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()

"""The workbench benchmark: seeded workloads, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload {suites,kernels,elements,all}
                             --seed N --seconds S --trace {0,1}

A run is a closed loop: one process at a time runs one operation at a time,
with BLAS/OpenMP threads pinned to 1.  Passes over the workload repeat, each
in a new interpreter, until the next one would end after `--seconds`, with
at least three passes unless one would end after RUN_LIMIT_S.  Every verdict
is checked against the verdict the theorems force, and every pass must
reproduce the first pass's report digests.  The end-to-end metrics are
medians over the passes; times are scaled to a calibration loop's nominal
speed (see passrun.py).

With `--trace 1` the run makes one untraced pass, then traced passes; it
reports the per-layer metrics (medians over the traced passes), the tracing
overhead, and writes the span store of the last traced pass to out/.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
summary.  A full record of the run, with provenance, goes to out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("suites", "kernels", "elements")
MIN_PASSES = 3
# no pass may end later than this, so every run ends well inside 180 s
RUN_LIMIT_S = 150
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class PassFailed(Exception):
    pass


def unit_of(name):
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("tuples_per_s"):
        return "1/s"
    if name.endswith(("_s", ".self_s", ".total_s")):
        return "s"
    if name.endswith("distinct_ratio"):
        return "ratio"
    if name.endswith("rows_per_call"):
        return "rows"
    return "count"


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_pass(workload, seed, trace, hard_deadline, spans=None):
    """One pass in a fresh interpreter; returns its JSON record."""
    started = time.monotonic()
    cmd = [
        sys.executable, "-B", "-s", str(BENCH / "passrun.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--spawned-at", repr(started),
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, hard_deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} pass exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{workload} pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["elapsed_s"] = time.monotonic() - started
    return record


def measure(workload, seed, seconds, trace):
    """Run passes until the next would end after `seconds`."""
    t0 = time.monotonic()
    hard = t0 + RUN_LIMIT_S
    spans = OUT / f"spans-{workload}-seed{seed}.json.gz" if trace else None
    plain, traced = [], []

    def room_for_another(done, minimum):
        if not done:
            return True
        end = time.monotonic() + done[-1]["elapsed_s"]
        return end <= hard and (len(done) < minimum or end <= t0 + seconds)

    if trace:
        plain.append(run_pass(workload, seed, 0, hard))
        while room_for_another(traced, 1):
            traced.append(run_pass(workload, seed, 1, hard, spans))
    else:
        while room_for_another(plain, MIN_PASSES):
            plain.append(run_pass(workload, seed, 0, hard))
    return plain, traced, time.monotonic() - t0


def check(passes):
    """Count verdicts attempted and failed: a verdict fails when it differs
    from the expected one, when its operation raised, or when its report
    digest differs from the first pass's (same seed, same code)."""
    ref = passes[0]["verdicts"]
    attempted = failed = 0
    failures = []
    for n, p in enumerate(passes):
        got = p["verdicts"]
        attempted += max(len(got), len(ref))
        failed += abs(len(ref) - len(got))
        for i, (label, verdict, want, digest) in enumerate(got):
            same = i < len(ref) and ref[i][0] == label and ref[i][3] == digest
            if verdict != want or not same:
                failed += 1
                reason = f"got {verdict}, want {want}" if verdict != want else "report digest changed"
                failures.append(f"pass {n}: {label}: {reason}")
    return attempted, failed, failures


def stream_digest(p):
    return hashlib.sha256("".join(v[3] for v in p["verdicts"]).encode()).hexdigest()


def provenance(first):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "azumaya").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def metric(name, value):
    return {"value": value, "unit": unit_of(name)}


def median_pass(passes, key="op_ref_s"):
    """Sum over operations of each operation's median time over the passes."""
    ops = passes[0][key]
    return sum(statistics.median(p[key][op] for p in passes) for op in ops)


def run_workload(workload, seed, seconds, trace):
    plain, traced, elapsed = measure(workload, seed, seconds, trace)
    attempted, failed, failures = check(plain + traced)
    med = statistics.median
    if trace:
        layers = {k: med(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        layers["trace.wall_s"] = median_pass(traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - median_pass(plain)
        metrics = {k: metric(k, v) for k, v in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": metric("setup_s", med(p["setup_s"] for p in plain)),
            "wall_s": metric("wall_s", median_pass(plain)),
            "peak_rss_mb": metric("peak_rss_mb", med(p["peak_rss_mb"] for p in plain)),
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    per_pass = len(plain[0]["verdicts"])
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"passes {len(plain)} untraced + {len(traced)} traced  in {elapsed:.1f} s")
    if not trace:
        for k, v in metrics.items():
            print(f"  {k:<16} {v['value']:10.4f} {v['unit']}")
        print(f"  {'measured_setup_s':<16} {med(p['measured_setup_s'] for p in plain):10.4f} s"
              f"  (median; setup_s and wall_s are scaled to the calibration loop's nominal speed)")
        walls = ", ".join(f"{p['measured_wall_s']:.2f}" for p in plain)
        print(f"  {'measured_wall_s':<16} {median_pass(plain, 'measured_op_s'):10.4f} s  (passes: {walls})")
    else:
        print(f"  trace.wall_s {metrics['trace.wall_s']['value']:.4f} s, "
              f"untraced {median_pass(plain):.4f} s, "
              f"overhead {metrics['trace.overhead_s']['value']:.4f} s")
    print(f"  {'ops':<16} {attempted:10d} count  ({per_pass} verdicts per pass)")
    print(f"  {'ops_failed':<16} {failed:10d} count")
    print(f"  digest           {stream_digest(plain[0])}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    prov = provenance(plain[0])
    print(f"  commit {prov['commit']}  src {prov['src_sha256'][:16]}  python {prov['python']}  "
          f"numpy {prov['numpy']}  nproc {prov['nproc']}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "result": result, "digest": stream_digest(plain[0]), "failures": failures,
        "provenance": prov,
        "passes": [{k: v for k, v in p.items() if k != "verdicts"} for p in plain + traced],
    }
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "azumaya" / "__init__.py").is_file():
        sys.exit(f"no workbench sources under {ROOT / 'src'}; nothing to benchmark")
    try:
        if args.workload == "all":
            results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
            print(json.dumps(results))
        else:
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
    except PassFailed as exc:
        sys.exit(f"benchmark pass failed: {exc}")


if __name__ == "__main__":
    main()

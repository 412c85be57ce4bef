"""One pass over a workload, in a fresh interpreter.

Started by run.py with the parent's monotonic clock reading taken just
before the process was spawned, so `setup_s` spans interpreter start-up,
`import azumaya` and seeded input generation.  Prints one JSON object.

The machine this runs on shares its cores: the same operation can take over
twice as long from one second or minute to the next, and CPU time moves
with wall time.  So the pass also times a fixed calibration loop, which
touches no workbench code, after set-up and after every operation.  Each
operation's time is scaled by the loop's nominal time over its mean time at
the two calibration points around the operation, and set-up time by the
first point: the reported times are seconds at the calibration loop's
nominal speed.  The measured times are reported too.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# the calibration loop's typical time on the baseline machine
CALIBRATION_NOMINAL_S = 0.010
CALIBRATIONS_PER_POINT = 3


def calibrate():
    """Geometric mean of the times of an interpreter loop and of an int64
    einsum, the two kinds of work the workbench does.  Against 119 samples
    of each of four workbench operations, the einsum part scaled with the
    operations' times at a log-log slope of 0.9-1.2, the loop part at 0.7-0.8."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(30000):
        key = (i % 7, i % 11, i % 13)
        seen[key] = seen.get(key, 0) + 1
        acc = (acc * 31 + i) % 1000003
    t1 = time.perf_counter()
    a = np.arange(24**3, dtype=np.int64).reshape(24, 24, 24) % 5
    np.einsum("ijk,klm->ijlm", a, a) % 7
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    import azumaya

    src = (ROOT / "src").resolve()
    if Path(azumaya.__file__).resolve().parent.parent != src:
        sys.exit(f"azumaya imported from {azumaya.__file__}, not from {src}")
    import workloads

    ops = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[workloads])

    points = [[calibrate() for _ in range(CALIBRATIONS_PER_POINT)]]
    verdicts = []
    op_s = {}
    for op in ops:
        t = time.perf_counter()
        try:
            verdicts.extend(op.run())
        except Exception as exc:  # a raising operation is a failed verdict
            verdicts.append(workloads.Verdict(op.name, f"raised {type(exc).__name__}: {exc}", "no error", ""))
        op_s[op.name] = time.perf_counter() - t
        points.append([calibrate() for _ in range(CALIBRATIONS_PER_POINT)])
    speeds = [CALIBRATION_NOMINAL_S / statistics.median(point) for point in points]
    op_ref_s = {
        name: t * (speeds[i] + speeds[i + 1]) / 2 for i, (name, t) in enumerate(op_s.items())
    }
    wall_s = sum(op_ref_s.values())

    out = {
        "setup_s": setup_s * speeds[0],
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_ref_s": op_ref_s,
        "measured_setup_s": setup_s,
        "measured_wall_s": sum(op_s.values()),
        "measured_op_s": op_s,
        "calibration_points": points,
        "verdicts": [[v.label, v.got, v.want, v.digest] for v in verdicts],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(workloads.SUITES)
        layers["trace.measured_wall_s"] = out["measured_wall_s"]
        layers["trace.unattributed_s"] = out["measured_wall_s"] - tracer.top_level_s()
        out["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

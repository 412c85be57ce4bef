"""Ungated frontier probe: where each kernel stops scaling.

    python3 perfbench/probe.py [--seed N]

Runs each rung alone in a child process with a wall-clock cap and an
address-space cap (RLIMIT_AS).  A rung that runs out of either is recorded
as `not_reached` instead of hanging or exhausting a shared machine's memory:
the env-map intermediate of is_azumaya is about 8*D^4 bytes, roughly 0.8 GB
for M_10 and 1.7 GB for W(11).

The last rung is the benchmark's one known wrong verdict: the s_6 witness
search on M_4(F_2) spends its whole default budget of 10,000 tuples in the
basis phase on tuples with a repeated entry, where the alternating s_6 is
zero, and reports not-found although Amitsur-Levitzki says s_6 does not
vanish on M_4.  It is kept here, at its default budget, so the failure stays
visible; the timed workloads hold only operations whose verdicts are met.

Nothing here is gated.  Results go to stdout and to out/probe-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import time

sys.dont_write_bytecode = True

import run  # noqa: E402  (the benchmark's own run.py, next to this file)

WALL_CAP_S = 150
AS_CAP_BYTES = 1536 * 2**20


def rungs(seed):
    """name -> (call, expected verdict); the calls import azumaya lazily.
    M_6(F_2) is the rung above the timed workloads' M_5(F_2)."""
    rng = random.Random(seed)
    w7 = (rng.randrange(7), rng.randrange(7))
    w11 = (rng.randrange(11), rng.randrange(11))
    s7 = (rng.randrange(7), rng.randrange(7))
    wseed = rng.randrange(2**31)

    def azumaya_matrix(n):
        import azumaya as az

        return az.is_azumaya(az.matrix_algebra(az.ZMod(2), n, check=False)).status

    def azumaya_weyl(p, a, b):
        import azumaya as az

        return az.is_azumaya(az.weyl_quotient(p, a, b)).status

    def split(p, a, b):
        from azumaya import homs

        rep = homs.isomorphism_check(homs.weyl_splitting(p, a, b))
        if rep.status != "pass":
            return rep.status
        return "iso" if rep.details.get("is_isomorphism") else "not-iso"

    def witness():
        import azumaya as az
        from azumaya import identities

        A = az.matrix_algebra(az.ZMod(2), 4, check=False)
        _, rep = identities.nonvanishing_witness(A, 6, seed=wseed)
        return "found" if rep.status == "pass" else rep.status

    return {
        "is_azumaya:M6(F_2)": (lambda: azumaya_matrix(6), "pass"),
        "is_azumaya:M8(F_2)": (lambda: azumaya_matrix(8), "pass"),
        "is_azumaya:M10(F_2)": (lambda: azumaya_matrix(10), "pass"),
        f"is_azumaya:W(7,{w7[0]},{w7[1]})": (lambda: azumaya_weyl(7, *w7), "pass"),
        f"is_azumaya:W(11,{w11[0]},{w11[1]})": (lambda: azumaya_weyl(11, *w11), "pass"),
        f"isomorphism_check:split-W(7,{s7[0]},{s7[1]})": (lambda: split(7, *s7), "iso"),
        "s6-witness:M4(F_2)": (witness, "found"),
    }


def run_rung(name, seed):
    """Child side: run one rung and print its record."""
    call, _ = rungs(seed)[name]
    start = time.perf_counter()
    try:
        verdict = call()
    except MemoryError:
        print(json.dumps({"status": "not_reached", "reason": "address-space cap"}))
        return
    print(json.dumps({
        "status": "reached",
        "verdict": verdict,
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--rung", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.rung:
        run_rung(args.rung, args.seed)
        return

    records = {}
    for name, (_, expected) in rungs(args.seed).items():
        cmd = [sys.executable, "-B", "-s", __file__, "--rung", name, "--seed", str(args.seed)]
        try:
            proc = subprocess.run(
                cmd, cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True,
                timeout=WALL_CAP_S, preexec_fn=cap_address_space,
            )
        except subprocess.TimeoutExpired:
            rec = {"status": "not_reached", "reason": f"wall cap {WALL_CAP_S} s"}
        else:
            if proc.returncode != 0:
                rec = {"status": "error", "stderr": proc.stderr[-2000:]}
            else:
                rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["expected"] = expected
        if rec["status"] == "reached":
            rec["verdict_ok"] = rec["verdict"] == expected
        records[name] = rec
        print(name, json.dumps(rec), flush=True)

    import numpy

    run.OUT.mkdir(exist_ok=True)
    doc = {
        "seed": args.seed,
        "wall_cap_s": WALL_CAP_S,
        "address_space_cap_bytes": AS_CAP_BYTES,
        "rungs": records,
        "provenance": run.provenance({"python": sys.version.split()[0], "numpy": numpy.__version__}),
    }
    (run.OUT / f"probe-seed{args.seed}.json").write_text(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()

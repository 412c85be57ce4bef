"""The benchmark's seeded workloads and the verdicts the theorems force.

A workload is a list of operations.  `build(name, seed)` derives every input
parameter from the seed (Weyl parameters, sampling seeds) and returns the
operations; the workbench receives only those inputs.  Running an operation
returns one `Verdict` per decision it made.  The expected verdicts come from
the paper's theorems and do not depend on the seed:

* M_n(R) and every W(p, a, b) are Azumaya; UT_n (n >= 2) is not.
* The enveloping map A (x) A^op -> End(A) is bijective iff A is Azumaya.
* A verified Weyl splitting W(p, a, b) -> M_p(F_p) is an isomorphism; the
  diagonal embedding M_2 -> M_4 is not.
* Amitsur-Levitzki: s_2n vanishes on M_n, and s_(2n-2) does not.
* Ring homomorphisms carry identities across; no element of M_n'(k) with
  n' < n has nilpotency index n.

Why each workload was chosen is written up in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import azumaya as az
from azumaya import homs, identities
from azumaya.algebras import env_map_bijective

# Seven of the ten builtin suites, in their builtin order.  The other three
# (azumaya-def21, al-thm26, split-cor29) take 66 of the 73 s of a full pass;
# their operations appear one by one in `kernels` and `elements`.
SUITES = (
    "matrixcenter-thm31",
    "jordan-lem32",
    "center-thm41",
    "rank-thm41",
    "iso-prop51-thm53",
    "endo-cor52",
    "tensor-env-rem23",
)


@dataclass
class Verdict:
    label: str
    got: str
    want: str
    digest: str


@dataclass
class Op:
    name: str
    run: Callable[[], list]


def digest(record):
    """Short hash of one deterministic record (a `comparable_dict`)."""
    text = json.dumps(record, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _verdict(label, got, want, record):
    return Verdict(label, got, want, digest(record))


def _report_op(name, call, want, verdict_of=lambda rep: rep.status):
    """An operation returning one CheckReport (or a (value, report) pair)."""

    def run():
        rep = call()
        if isinstance(rep, tuple):
            rep = rep[1]
        return [_verdict(name, verdict_of(rep), want, rep.comparable_dict())]

    return Op(name, run)


def _suite_op(name, seed):
    def run():
        return [
            _verdict(f"{name}/{rep.check}", rep.status, "pass", rep.comparable_dict())
            for rep in az.run_suite(name, seed=seed)
        ]

    return Op(f"suite:{name}", run)


def _mat(m, n):
    return az.matrix_algebra(az.ZMod(m), n, check=False)


def _iso_verdict(rep):
    if rep.status != "pass":
        return rep.status
    return "iso" if rep.details.get("is_isomorphism") else "not-iso"


def _witness_verdict(rep):
    return "found" if rep.status == "pass" else rep.status


def _vanishing_verdict(rep):
    return "vanishes" if rep.status == "pass" else rep.status


def suites_ops(seed):
    return [_suite_op(name, seed) for name in SUITES]


def kernels_ops(seed):
    rng = random.Random(seed)
    a, b = rng.randrange(5), rng.randrange(5)
    sa, sb = rng.randrange(5), rng.randrange(5)
    F2 = az.ZMod(2)
    azumaya_cases = [
        ("M5(F_2)", lambda: _mat(2, 5), "pass"),
        ("M4(GF(4))", lambda: az.matrix_algebra(az.GaloisField.default(2, 2), 4, check=False), "pass"),
        ("M5(Z/12)", lambda: _mat(12, 5), "pass"),
        (f"W(5,{a},{b})", lambda: az.weyl_quotient(5, a, b), "pass"),
        ("UT4(F_2)", lambda: az.upper_triangular_algebra(F2, 4), "fail"),
        ("UT3(Z/6)", lambda: az.upper_triangular_algebra(az.ZMod(6), 3), "fail"),
    ]
    ops = [
        _report_op(f"is_azumaya:{label}", lambda make=make: az.is_azumaya(make()), want)
        for label, make, want in azumaya_cases
    ]
    for label, make, want in [
        ("M5(Z/6)", lambda: _mat(6, 5), "bijective"),
        ("UT4(Z/4)", lambda: az.upper_triangular_algebra(az.ZMod(4), 4), "not-bijective"),
    ]:

        def run(label=label, make=make, want=want):
            got = "bijective" if env_map_bijective(make()) else "not-bijective"
            return [_verdict(f"env_map_bijective:{label}", got, want, {"env": label, "got": got})]

        ops.append(Op(f"env_map_bijective:{label}", run))
    ops.append(
        _report_op(
            f"isomorphism_check:split-W(5,{sa},{sb})",
            lambda: homs.isomorphism_check(homs.weyl_splitting(5, sa, sb)),
            "iso",
            _iso_verdict,
        )
    )
    ops.append(
        _report_op(
            "isomorphism_check:diag-M2-M4(F_5)",
            lambda: homs.isomorphism_check(homs.diagonal_embed(az.ZMod(5), 2, 2)),
            "not-iso",
            _iso_verdict,
        )
    )
    return ops


def elements_ops(seed):
    rng = random.Random(seed)

    def s():
        return rng.randrange(2**31)

    ops = [
        # wide batches: 4,096 tuples per product call
        _report_op(
            "s4-exhaustive:M2(F_2)",
            lambda: identities.al_vanishing_check(_mat(2, 2), 2),
            "vanishes",
            _vanishing_verdict,
        ),
        _report_op(
            "s4-exhaustive:W(2,1,0)",
            lambda: identities.al_vanishing_check(az.weyl_quotient(2, 1, 0), 2),
            "vanishes",
            _vanishing_verdict,
        ),
    ]
    for m in (2, 6, 12):
        ops.append(
            _report_op(
                f"s6-sampled:M3(Z/{m})",
                lambda m=m, sd=s(): identities.al_vanishing_check(
                    _mat(m, 3), 3, mode="samples", count=1000, seed=sd
                ),
                "vanishes",
                _vanishing_verdict,
            )
        )
    ops.append(
        _report_op(
            "s8-sampled:M4(F_2)",
            lambda sd=s(): identities.al_vanishing_check(
                _mat(2, 4), 4, mode="samples", count=200, seed=sd
            ),
            "vanishes",
            _vanishing_verdict,
        )
    )
    # single-tuple calls: one tuple per product call
    for label, make, k in [("M2(Z/4)", lambda: _mat(4, 2), 2), ("M3(F_3)", lambda: _mat(3, 3), 4)]:
        ops.append(
            _report_op(
                f"s{k}-witness:{label}",
                lambda make=make, k=k, sd=s(): identities.nonvanishing_witness(make(), k, seed=sd),
                "found",
                _witness_verdict,
            )
        )
    ops.append(
        _report_op(
            "s6-transfer:split-W(3,1,2)",
            lambda sd=s(): identities.identity_transfer_check(
                homs.weyl_splitting(3, 1, 2), az.standard_identity(6), seed=sd
            ),
            "pass",
        )
    )
    ops.append(
        _report_op(
            "s4-transfer:diag-M2-M4(F_5)",
            lambda sd=s(): identities.identity_transfer_check(
                homs.diagonal_embed(az.ZMod(5), 2, 2), az.standard_identity(4), seed=sd
            ),
            "pass",
        )
    )
    for p in (3, 5):
        ops.append(
            _report_op(
                f"jordan-probe:n=4:M3(F_{p})",
                lambda p=p, sd=s(): homs.jordan_obstruction_probe(
                    4, _mat(p, 3), samples=5000, seed=sd
                ),
                "pass",
            )
        )
    return ops


def build(workload, seed):
    return {"suites": suites_ops, "kernels": kernels_ops, "elements": elements_ops}[workload](seed)

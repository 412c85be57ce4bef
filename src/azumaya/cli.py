"""Command-line front end.

Subcommands: construct (validate a config and echo canonical forms),
check <name> (run one configured check), suite <name> (run a builtin theorem
suite).

Reports go to stdout as newline-delimited JSON restricted to the
deterministic fields, so identical (config, seed) runs are byte-identical;
a human-readable summary with timings goes to stderr.  Exit codes: 0 all
pass/not-found, 1 any fail, 2 invalid input, 3 contradicts-theorem.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import homs as homs_mod
from . import identities as idn
from .algebras import (
    AlgebraError,
    env_bijective_check,
    ideal_intersection_check,
    is_azumaya,
    square_rank_check,
)
from .configio import MAX_DENSE_ENTRIES, MAX_DRAWS, ConfigError, integer, load_run_config
from .reports import FAIL, PASS, CheckReport, worst_exit_code
from .rings import RingError, RingIdeal
from .suites import SuiteError, builtin_suites, run_suite

EXIT_INVALID = 2


def _emit(reports, as_json, started):
    if as_json:
        print(json.dumps({"reports": [r.comparable_dict() for r in reports]}, sort_keys=True))
    else:
        for r in reports:
            print(json.dumps(r.comparable_dict(), sort_keys=True))
    counts = {}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    print(
        f"{len(reports)} checks ({summary}) in {time.perf_counter() - started:.2f}s",
        file=sys.stderr,
    )
    for r in reports:
        if r.status not in (PASS, "not-found"):
            print(f"  {r.status.upper()}: {r.check}", file=sys.stderr)
    return worst_exit_code(reports)


def _invalid(message):
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


def _load(args):
    if not args.config:
        raise ConfigError("--config is required for this subcommand")
    return load_run_config(args.config, seed=args.seed)


def _hom_verification_reports(cfg):
    """Fail reports for configured homs that did not verify."""
    out = []
    for name, hom in cfg.homs.items():
        if not hom.is_verified:
            out.append(
                CheckReport(
                    check=f"verify_hom:{name}",
                    status=FAIL,
                    witness=hom.refutation,
                )
            )
    return out


def cmd_construct(args):
    started = time.perf_counter()
    cfg = _load(args)
    lines = []
    for name, ring in cfg.rings.items():
        lines.append({"object": name, "type": "ring", "canonical": ring.to_config()})
    for name, alg in cfg.algebras.items():
        lines.append(
            {
                "object": name,
                "type": "algebra",
                "canonical": {
                    "base": alg.base.to_config(),
                    "rank": alg.rank,
                    "unit": alg.unit_flat.tolist(),
                },
            }
        )
    for name, hom in cfg.homs.items():
        lines.append(
            {
                "object": name,
                "type": "hom",
                "canonical": {"matrix": hom.matrix.tolist(), "status": hom.status},
            }
        )
    for name, ident in cfg.identities.items():
        lines.append({"object": name, "type": "identity", "canonical": ident.to_config()})
    payload = lines if not args.json else [{"objects": lines}]
    for line in payload:
        print(json.dumps(line, sort_keys=True))
    print(f"{len(lines)} objects validated in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    bad = _hom_verification_reports(cfg)
    if bad:
        return _emit(bad, False, started)
    return 0


def _run_check(cfg, desc):
    kind = desc["check"]
    params = desc
    where = f"checks.{desc['name']}"

    def named(key, objects):
        name = params.get(key)
        if not isinstance(name, str) or name not in objects:
            raise ConfigError(f"unknown {key} {name!r}", where)
        return objects[name]

    def algebra():
        return named("algebra", cfg.algebras)

    def hom():
        return named("hom", cfg.homs)

    def parameter(key, default):
        return integer(params.get(key, default), where, key)

    def draws(key, default):
        # no draws at all would report a pass that tested nothing
        value = parameter(key, default)
        if not 1 <= value <= MAX_DRAWS:
            raise ConfigError(f"{key} must be between 1 and {MAX_DRAWS}, got {value}", where)
        return value

    if kind == "is_azumaya":
        return is_azumaya(algebra())
    if kind == "square_rank":
        return square_rank_check(algebra())
    if kind == "env_bijective":
        A = algebra()
        expected = params.get("expected", True)
        if not isinstance(expected, bool):
            raise ConfigError(f"expected must be true or false, got {expected!r}", where)
        entries = (A.rank**2 * A.base.flatten_len) ** 2  # the enveloping map's dense matrix
        if entries > MAX_DENSE_ENTRIES:
            msg = f"the enveloping map of rank {A.rank} needs {entries} dense entries, above the cap {MAX_DENSE_ENTRIES}"
            raise ConfigError(msg, where)
        return env_bijective_check(A, expected)
    if kind == "ideal_intersection":
        A = algebra()
        ideals = params.get("ideals", [])
        if not isinstance(ideals, list) or len(ideals) < 2:
            raise ConfigError("ideal_intersection needs a list of >= 2 ideals", where)
        return ideal_intersection_check(A, [RingIdeal(A.base, d) for d in ideals])
    if kind == "center_preservation":
        return homs_mod.center_preservation_check(hom())
    if kind == "rank_comparison":
        return homs_mod.rank_comparison_check(hom())
    if kind == "isomorphism":
        return homs_mod.isomorphism_check(hom())
    if kind == "endo_auto":
        return homs_mod.endo_auto_check(hom())
    if kind == "kernel_ideal":
        _, rep = homs_mod.kernel_ideal(hom())
        return rep
    if kind == "jordan_obstruction":
        return homs_mod.jordan_obstruction_probe(parameter("n", 2), algebra())
    if kind == "al_vanishing":
        return idn.al_vanishing_check(
            algebra(),
            parameter("n", 2),
            mode=params.get("mode", "exhaustive"),
            count=draws("count", 2000),
            seed=cfg.seed,
        )
    if kind == "nonvanishing_witness":
        _, rep = idn.nonvanishing_witness(
            algebra(), parameter("k", 2), budget=draws("budget", 10000), seed=cfg.seed
        )
        return rep
    if kind == "identity_transfer":
        return idn.identity_transfer_check(
            hom(), named("identity", cfg.identities), trials=draws("trials", 100), seed=cfg.seed
        )
    raise ConfigError(f"unknown check kind {kind!r}", where)


def cmd_check(args):
    started = time.perf_counter()
    cfg = _load(args)
    descs = [c for c in cfg.checks if args.name in (c["name"], "all")]
    if not descs:
        raise ConfigError(f"no configured check named {args.name!r}")
    reports = _hom_verification_reports(cfg)
    for desc in descs:
        try:
            rep = _run_check(cfg, desc)
        except (homs_mod.PreconditionUnmet, idn.BudgetExceeded) as e:
            rep = CheckReport(
                check=desc["name"], status="precondition-unmet", details={"reason": str(e)}
            )
        except (idn.IdentityError, AlgebraError) as e:
            # an arity out of range for s_k or an unknown mode (a malformed
            # check parameter), or a draw without a seed
            raise ConfigError(str(e), f"checks.{desc['name']}") from e
        rep.check = desc["name"]
        reports.append(rep)
    return _emit(reports, args.json, started)


def cmd_suite(args):
    started = time.perf_counter()
    return _emit(run_suite(args.name, seed=args.seed), args.json, started)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="azumaya",
        description="Exact-arithmetic checks for Azumaya algebras over finite rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="root seed for sampled checks")
        p.add_argument("--json", action="store_true", help="emit one JSON document instead of NDJSON")

    p = sub.add_parser("construct", help="validate a config and echo canonical forms")
    add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="run one configured check (or 'all')")
    p.add_argument("name")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("suite", help=f"run a builtin suite: {', '.join(builtin_suites())}")
    p.add_argument("name")
    add_common(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SuiteError, RingError, AlgebraError, homs_mod.HomError) as e:
        return _invalid(str(e))


if __name__ == "__main__":
    sys.exit(main())

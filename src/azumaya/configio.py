"""Config parsing, validation, and canonical serialization for the CLI.

Configs are JSON documents.  A run config names its objects once and refers
to them by name; every parse error carries the location path of the
offending field so the CLI can report it before exiting with code 2.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .algebras import (
    Algebra,
    matrix_algebra,
    opposite,
    structure_tensor,
    tensor_product,
    upper_triangular_algebra,
    weyl_quotient,
)
from .homs import AlgebraHom, compose, conjugation_auto, diagonal_embed, reduction_hom
from .identities import MultilinearIdentity, standard_identity
from .rings import RingError, RingIdeal, make_ring


class ConfigError(Exception):
    def __init__(self, message, location=""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def _require(cfg, key, location):
    if not isinstance(cfg, dict):
        raise ConfigError("expected an object", location)
    if key not in cfg:
        raise ConfigError(f"missing required field {key!r}", location)
    return cfg[key]


def make_ring_checked(cfg, location="ring"):
    try:
        ring = make_ring(cfg)
    except (RingError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(str(e), location) from e
    canon = ring.to_config()
    if json.dumps(cfg, sort_keys=True) != json.dumps(canon, sort_keys=True):
        # accept only canonical forms so round-trips are bit-exact
        raise ConfigError(f"non-canonical ring config; expected {canon}", location)
    return ring


def make_algebra(cfg, rings=None, location="algebra"):
    """Build an algebra from a config dict; named rings may be referenced."""
    rings = rings or {}
    kind = _require(cfg, "kind", location)

    def resolve_ring(sub, loc):
        if isinstance(sub, str):
            if sub not in rings:
                raise ConfigError(f"unknown ring name {sub!r}", loc)
            return rings[sub]
        return make_ring_checked(sub, loc)

    try:
        if kind == "matrix":
            n = int(_require(cfg, "n", location))
            if n < 1:
                raise ConfigError("matrix size must be >= 1", location)
            ring = resolve_ring(_require(cfg, "ring", location), location + ".ring")
            return matrix_algebra(ring, n)
        if kind == "upper_triangular":
            n = int(_require(cfg, "n", location))
            if n < 1:
                raise ConfigError("matrix size must be >= 1", location)
            ring = resolve_ring(_require(cfg, "ring", location), location + ".ring")
            return upper_triangular_algebra(ring, n)
        if kind == "weyl":
            p = int(_require(cfg, "p", location))
            return weyl_quotient(p, int(_require(cfg, "a", location)), int(_require(cfg, "b", location)))
        if kind == "tensor":
            left = make_algebra(_require(cfg, "left", location), rings, location + ".left")
            right = make_algebra(_require(cfg, "right", location), rings, location + ".right")
            return tensor_product(left, right)
        if kind == "opposite":
            return opposite(make_algebra(_require(cfg, "of", location), rings, location + ".of"))
        if kind == "structure_constants":
            ring = resolve_ring(_require(cfg, "ring", location), location + ".ring")
            d = int(_require(cfg, "rank", location))
            raw = _require(cfg, "table", location)
            unit_raw = _require(cfg, "unit", location)
            f = ring.flatten_len

            def coords(entry, loc):
                vals = [entry] if f == 1 and isinstance(entry, int) else list(entry)
                if len(vals) != f:
                    raise ConfigError(f"expected {f} ring coordinates", loc)
                # reduced here: a config integer may not fit in int64
                return [int(v) % m for v, m in zip(vals, ring.moduli)]

            table = [
                [
                    [coords(raw[i][j][k], f"{location}.table[{i}][{j}][{k}]") for k in range(d)]
                    for j in range(d)
                ]
                for i in range(d)
            ]
            unit = [coords(unit_raw[k], f"{location}.unit[{k}]") for k in range(d)]
            return Algebra(ring, *structure_tensor(ring, table, unit), label="custom")
        raise ConfigError(f"unknown algebra kind {kind!r}", location)
    except (IndexError, TypeError, ValueError) as e:
        raise ConfigError(str(e), location) from e


def make_hom(cfg, algebras, homs=None, location="hom"):
    """Build a hom from a config dict; source/target are algebra names."""
    homs = homs or {}
    kind = _require(cfg, "kind", location)

    def resolve(name, loc):
        if name not in algebras:
            raise ConfigError(f"unknown algebra name {name!r}", loc)
        return algebras[name]

    if kind == "compose":
        outer = _require(cfg, "outer", location)
        inner = _require(cfg, "inner", location)
        if outer not in homs or inner not in homs:
            raise ConfigError("compose refers to unknown hom names", location)
        return compose(homs[outer], homs[inner])

    source = resolve(_require(cfg, "source", location), location + ".source")
    if kind == "conjugation":
        u_rows = _require(cfg, "u", location)
        flat = np.asarray(u_rows, dtype=np.int64).reshape(-1)
        if flat.shape[0] != source.dim:
            raise ConfigError(
                f"unit has {flat.shape[0]} coordinates, algebra needs {source.dim}",
                location + ".u",
            )
        return conjugation_auto(source, source.element(flat))
    if kind == "reduction":
        return reduction_hom(source, RingIdeal(source.base, _require(cfg, "ideal", location)))
    if kind == "diagonal":
        k = int(_require(cfg, "k", location))
        m = math.isqrt(source.rank)
        if m * m != source.rank:
            raise ConfigError("diagonal embedding needs a matrix algebra source", location)
        return diagonal_embed(source.base, m, k)
    if kind == "explicit":
        target = resolve(_require(cfg, "target", location), location + ".target")
        matrix = np.asarray(_require(cfg, "matrix", location), dtype=np.int64)
        if matrix.shape != (target.dim, source.dim):
            raise ConfigError(
                f"matrix shape {matrix.shape} != {(target.dim, source.dim)}",
                location + ".matrix",
            )
        return AlgebraHom(source, target, matrix, label="explicit").verify()
    raise ConfigError(f"unknown hom kind {kind!r}", location)


def make_identity(cfg, location="identity"):
    if "standard" in cfg:
        k = int(cfg["standard"])
        try:
            return standard_identity(k)
        except Exception as e:
            raise ConfigError(str(e), location) from e
    arity = int(_require(cfg, "arity", location))
    raw_terms = _require(cfg, "terms", location)
    try:
        terms = [(t["coef"], t["word"]) for t in raw_terms]
        return MultilinearIdentity(arity, terms)
    except (KeyError, TypeError) as e:
        raise ConfigError(f"malformed terms: {e}", location) from e
    except Exception as e:
        raise ConfigError(str(e), location) from e


class RunConfig:
    """Validated run configuration: named objects plus an ordered check list."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise ConfigError("top-level config must be an object")
        objects = data.get("objects", {})
        self.seed = data.get("seed")
        if self.seed is not None:
            self.seed = int(self.seed)
        self.max_tuples = int(data.get("max_tuples", 10**7))
        self.rings = {}
        for name, cfg in objects.get("rings", {}).items():
            self.rings[name] = make_ring_checked(cfg, f"objects.rings.{name}")
        self.algebras = {}
        for name, cfg in objects.get("algebras", {}).items():
            self.algebras[name] = make_algebra(cfg, self.rings, f"objects.algebras.{name}")
        self.homs = {}
        for name, cfg in objects.get("homs", {}).items():
            self.homs[name] = make_hom(
                cfg, self.algebras, self.homs, f"objects.homs.{name}"
            )
        self.identities = {}
        for name, cfg in objects.get("identities", {}).items():
            self.identities[name] = make_identity(cfg, f"objects.identities.{name}")
        self.search = data.get("search")
        if self.search is not None and not isinstance(self.search, dict):
            raise ConfigError("search must be an object", "search")
        self.checks = []
        raw_checks = data.get("checks", [])
        if not isinstance(raw_checks, list):
            raise ConfigError("checks must be a list", "checks")
        names = set()
        for i, c in enumerate(raw_checks):
            loc = f"checks[{i}]"
            kind = _require(c, "check", loc)
            name = c.get("name", f"{kind}-{i}")
            if name in names:
                raise ConfigError(f"duplicate check name {name!r}", loc)
            names.add(name)
            self.checks.append(dict(c, name=name))
        sampled = {"al_vanishing", "nonvanishing_witness", "identity_transfer", "jordan_obstruction"}
        if self.seed is None and any(
            c["check"] in sampled and c.get("mode", "") != "exhaustive" for c in self.checks
        ):
            raise ConfigError("a seed is required whenever sampled checks are configured", "seed")


def load_run_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    return RunConfig(data)

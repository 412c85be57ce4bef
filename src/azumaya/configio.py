"""Config parsing, validation, and canonical serialization for the CLI.

Configs are JSON documents.  A run config names its objects once and refers
to them by name; every parse error carries the location path of the
offending field so the CLI can report it before exiting with code 2.

Loading validates the objects and the check list's names only.  Whether a
check needs a seed is known when it draws, so a config without one loads
whatever its checks, and a check that draws is refused at its first draw
(`algebras.random_rows`).
"""

from __future__ import annotations

import json

import numpy as np

from .algebras import (
    Algebra,
    _square_root,
    flat_entries,
    matrix_algebra,
    opposite,
    tensor_product,
    upper_triangular_algebra,
    weyl_quotient,
)
from .homs import AlgebraHom, compose, conjugation_auto, diagonal_embed, reduction_hom
from .identities import MultilinearIdentity, standard_identity
from .rings import RingError, RingIdeal, make_ring

# Cap on building a configured algebra of D flat coordinates, checked before
# anything is allocated.  D^3 bounds the dense table of a
# `structure_constants` config (d^3 f <= D^3 entries) and the entries a
# build emits, at most D^3 (2^26 int64 entries are 512 MiB).  A checked
# build is held to D^4.  The rule was written for a full associativity
# check; matrix and Weyl builds now check only their generators' middles
# (Light's test), so it bounds the identity-row builds, `upper_triangular`
# and `structure_constants`, whose check runs every middle: a dense table
# has up to D^3 nonzeros, each joined with a row of up to D^2, so D^5
# terms.  The rule is left as it was; changing it is a gate decision of
# its own.
MAX_DENSE_ENTRIES = 2**26

# Cap on the draws a configured check may ask for (`count`, `trials`), and
# on the generator subsets a witness search may walk (`budget`).  A draw or
# a subset costs microseconds to about a millisecond (an s_8 tuple of M_4),
# so a check within the cap ends in minutes, not hours.
MAX_DRAWS = 10**5


class ConfigError(Exception):
    def __init__(self, message, location=""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def integer(value, location, name):
    """int(value), or a ConfigError at `location` naming the field."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {value!r}", location) from None


def _require(cfg, key, location):
    if not isinstance(cfg, dict):
        raise ConfigError("expected an object", location)
    if key not in cfg:
        raise ConfigError(f"missing required field {key!r}", location)
    return cfg[key]


def _check_size(D, checked, location):
    """Refuse an algebra of D flat coordinates whose construction would
    exceed MAX_DENSE_ENTRIES."""
    entries = D**4 if checked else D**3
    if entries > MAX_DENSE_ENTRIES:
        msg = f"{D} flat coordinates need {entries} dense entries, above the cap {MAX_DENSE_ENTRIES}"
        raise ConfigError(msg, location)


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
            _check_size(n * n * ring.flatten_len, True, location)
            return matrix_algebra(ring, n)
        if kind == "upper_triangular":
            n = int(_require(cfg, "n", location))
            if n < 1:
                raise ConfigError("matrix size must be >= 1", location)
            ring = resolve_ring(_require(cfg, "ring", location), location + ".ring")
            _check_size(n * (n + 1) // 2 * ring.flatten_len, True, location)
            return upper_triangular_algebra(ring, n)
        if kind == "weyl":
            p = int(_require(cfg, "p", location))
            _check_size(p * p, True, location)
            return weyl_quotient(p, int(_require(cfg, "a", location)), int(_require(cfg, "b", location)))
        if kind == "tensor":
            left = make_algebra(_require(cfg, "left", location), rings, location + ".left")
            right = make_algebra(_require(cfg, "right", location), rings, location + ".right")
            _check_size(left.rank * right.rank * left.base.flatten_len, False, location)
            return tensor_product(left, right)
        if kind == "opposite":
            return opposite(make_algebra(_require(cfg, "of", location), rings, location + ".of"))
        if kind == "structure_constants":
            ring = resolve_ring(_require(cfg, "ring", location), location + ".ring")
            d = int(_require(cfg, "rank", location))
            if d < 1:
                raise ConfigError("rank must be >= 1", location)
            _check_size(d * ring.flatten_len, True, location)
            raw = _require(cfg, "table", location)
            unit_raw = _require(cfg, "unit", location)
            f = ring.flatten_len

            def coords(entry, loc):
                vals = [entry] if f == 1 and isinstance(entry, int) else list(entry)
                if len(vals) != f:
                    raise ConfigError(f"expected {f} ring coordinates", loc)
                # reduced here: a config integer may not fit in int64
                return [int(v) % m for v, m in zip(vals, ring.moduli)]

            def rows(entry, loc):
                if len(entry) != d:
                    raise ConfigError(f"rank {d} needs {d} entries, got {len(entry)}", loc)
                return enumerate(entry)

            t, table = f"{location}.table", np.zeros((d, d, d, f), dtype=np.int64)
            for i, a in rows(raw, t):
                for j, b in rows(a, f"{t}[{i}]"):
                    for k, c in rows(b, f"{t}[{i}][{j}]"):
                        table[i, j, k] = coords(c, f"{t}[{i}][{j}][{k}]")
            unit = [coords(u, f"{location}.unit[{k}]") for k, u in rows(unit_raw, f"{location}.unit")]
            index = np.nonzero(table.any(axis=3))  # the table's nonzero structure constants
            return Algebra(ring, flat_entries(ring, index, table[index]), np.ravel(unit), label="custom")
        raise ConfigError(f"unknown algebra kind {kind!r}", location)
    except (IndexError, TypeError, ValueError) as e:
        raise ConfigError(str(e), location) from e


def make_hom(cfg, algebras, homs=None, location="hom"):
    """Build a hom from a config dict; source/target are algebra names."""
    homs = homs or {}
    kind = _require(cfg, "kind", location)

    def resolve(name, loc):
        if not isinstance(name, str) or name not in algebras:
            raise ConfigError(f"unknown algebra name {name!r}", loc)
        return algebras[name]

    if kind == "compose":
        outer = _require(cfg, "outer", location)
        inner = _require(cfg, "inner", location)
        if not all(isinstance(h, str) and h in homs for h in (outer, inner)):
            raise ConfigError("compose refers to unknown hom names", location)
        return compose(homs[outer], homs[inner])

    source = resolve(_require(cfg, "source", location), location + ".source")
    if kind == "conjugation":
        u = np.asarray(_require(cfg, "u", location), dtype=object).reshape(-1)
        if len(u) != source.dim:
            raise ConfigError(f"unit has {len(u)} coordinates, algebra needs {source.dim}", location + ".u")
        # reduced as Python ints: a config integer may not fit in int64
        u = [integer(x, location + ".u", "a unit coordinate") % m for x, m in zip(u, source.moduli)]
        return conjugation_auto(source, source.element(u))
    if kind == "reduction":
        return reduction_hom(source, RingIdeal(source.base, _require(cfg, "ideal", location)))
    if kind == "diagonal":
        k = integer(_require(cfg, "k", location), location, "k")
        m = _square_root(source.rank)
        if m is None:
            raise ConfigError("diagonal embedding needs a matrix algebra source", location)
        _check_size((k * m) ** 2 * source.base.flatten_len, False, location)
        return diagonal_embed(source.base, m, k)
    if kind == "explicit":
        target = resolve(_require(cfg, "target", location), location + ".target")
        matrix = np.asarray(_require(cfg, "matrix", location), dtype=object)
        if matrix.shape != (target.dim, source.dim):
            raise ConfigError(
                f"matrix shape {matrix.shape} != {(target.dim, source.dim)}",
                location + ".matrix",
            )
        # row i reduced mod the modulus of target coordinate i, as Python ints
        matrix = matrix % np.asarray(target.moduli, dtype=object)[:, None]
        return AlgebraHom(source, target, matrix, label="explicit")
    raise ConfigError(f"unknown hom kind {kind!r}", location)


def make_identity(cfg, location="identity"):
    if isinstance(cfg, dict) and "standard" in cfg:
        k = integer(cfg["standard"], location, "standard")
        try:
            return standard_identity(k)
        except Exception as e:
            raise ConfigError(str(e), location) from e
    arity = integer(_require(cfg, "arity", location), location, "arity")
    raw_terms = _require(cfg, "terms", location)
    try:
        terms = [(t["coef"], t["word"]) for t in raw_terms]
        return MultilinearIdentity(arity, terms)
    except (KeyError, TypeError) as e:
        raise ConfigError(f"malformed terms: {e}", location) from e
    except Exception as e:
        raise ConfigError(str(e), location) from e


class RunConfig:
    """Validated run configuration: named objects plus an ordered check
    list.  `seed` is the config's seed or None; the checks' parameters are
    read when each check runs."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise ConfigError("top-level config must be an object")
        objects = data.get("objects", {})
        self.seed = data.get("seed")
        if self.seed is not None:
            self.seed = integer(self.seed, "seed", "seed")
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
        self.checks = []
        raw_checks = data.get("checks", [])
        if not isinstance(raw_checks, list):
            raise ConfigError("checks must be a list", "checks")
        names = set()
        for i, c in enumerate(raw_checks):
            loc = f"checks[{i}]"
            kind = _require(c, "check", loc)
            name = c.get("name", f"{kind}-{i}")
            if not isinstance(name, str):
                raise ConfigError(f"check name must be a string, got {name!r}", loc)
            if name in names:
                raise ConfigError(f"duplicate check name {name!r}", loc)
            names.add(name)
            self.checks.append(dict(c, name=name))


def load_run_config(path, seed=None):
    """The run config at `path`; a `seed` given here replaces the file's."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if seed is not None and isinstance(data, dict):
        data = dict(data, seed=seed)
    return RunConfig(data)

"""Spans and counters around the calls into each layer of the workbench.

The tracer wraps public functions and methods from outside the library: no
file under src/ changes.  Each wrapper records a span (name, parent, start,
end) in memory; a span's self time is its duration minus the time its direct
child spans cover.  Hot constructors (RingElem, AlgElem) are only counted,
so their cost lands in the self time of the span that called them.

Modules such as `homs`, `suites`, `corpus` and `cli` bind library functions
by value (`from .algebras import is_azumaya`), so a wrapper is rebound in
every module namespace that holds the original object; methods are wrapped
on their class.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute path): functions and methods recorded as spans
SPANNED = [
    ("rings", "BaseRingHom.apply"),
    ("rings", "residue_field"),
    ("algebras", "Algebra.__init__"),
    ("algebras", "Algebra.mul_batch"),
    ("algebras", "Algebra.__eq__"),
    ("algebras", "matrix_algebra"),
    ("algebras", "upper_triangular_algebra"),
    ("algebras", "weyl_quotient"),
    ("algebras", "opposite"),
    ("algebras", "tensor_product"),
    ("algebras", "base_change"),
    ("algebras", "rank_at"),
    ("algebras", "env_map_flat"),
    ("algebras", "center"),
    ("algebras", "commutant"),
    ("algebras", "is_azumaya"),
    ("linalg", "howell"),
    ("linalg", "rank_mod_p"),
    ("homs", "AlgebraHom.verify"),
    ("homs", "weyl_splitting"),
    ("homs", "diagonal_embed"),
    ("homs", "center_preservation_check"),
    ("homs", "rank_comparison_check"),
    ("homs", "isomorphism_check"),
    ("homs", "endo_auto_check"),
    ("homs", "jordan_obstruction_probe"),
    ("identities", "_evaluate_batch"),
    ("identities", "al_vanishing_check"),
    ("identities", "nonvanishing_witness"),
    ("identities", "identity_transfer_check"),
    ("corpus", "build_corpus"),
    ("suites", "run_suite"),
]

# (module, attribute path): hot calls recorded only as counts
COUNTED = [
    ("rings", "RingElem.__init__"),
    ("algebras", "AlgElem.__init__"),
    ("linalg", "Subgroup.contains"),
]

LAYERS = ("rings", "algebras", "linalg", "homs", "identities", "corpus", "suites")


_SINGLE = "algebras.Algebra.mul_batch.single"
_WIDE = "algebras.Algebra.mul_batch.wide"

# spans whose name depends on the call: one span name per suite, and
# mul_batch split by batch shape (one row against many)
_SPAN_NAMERS = {
    "suites.run_suite": lambda args: f"suites.{args[0]}",
    "algebras.Algebra.mul_batch": lambda args: _SINGLE if np.shape(args[1])[0] == 1 else _WIDE,
}


def _span_name(module, path):
    return f"{module}.{path.replace('.__init__', '.new')}"


def _algebra_key(A):
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(A.base.to_config()).encode())
    h.update(np.ascontiguousarray(A.struct).tobytes())
    h.update(np.ascontiguousarray(A.unit_flat).tobytes())
    return h.digest()


class Tracer:
    """In-memory span store plus per-name aggregates."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # one entry per span, in start order
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []  # [span index, child ns]
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.extra = Counter()
        self.algebra_keys = set()

    # -- installation

    def install(self, extra_modules=()):
        """Wrap every SPANNED and COUNTED target and rebind the wrappers."""
        modules = [m for n, m in sys.modules.items() if n == "azumaya" or n.startswith("azumaya.")]
        modules += list(extra_modules)
        for module, path in SPANNED + COUNTED:
            owner = sys.modules[f"azumaya.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            name = _span_name(module, path)
            wrapper = (self._span if (module, path) in SPANNED else self._count)(name, original)
            setattr(owner, attr, wrapper)
            if not cls_path:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        namer = _SPAN_NAMERS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_name = namer(args) if namer else name
            stack = self._stack
            idx = len(self.span_start)
            self.span_name.append(self._name_id(span_name))
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            self.span_start.append(t0)
            self.span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                self.span_end[idx] = t1
                if stack:
                    stack[-1][1] += dur
                self.calls[span_name] += 1
                self.total_ns[span_name] += dur
                self.self_ns[span_name] += dur - frame[1]
            if after is not None:
                after(args, result)
            return result

        return spanned

    # -- per-call measurements beyond time

    def _after_algebras_Algebra_new(self, args, result):
        self.algebra_keys.add(_algebra_key(args[0]))

    def _after_algebras_Algebra_mul_batch(self, args, result):
        self.extra["mul_batch.rows"] += np.shape(args[1])[0]

    def _after_linalg_howell(self, args, result):
        self.extra["howell.entries"] += np.size(args[0])

    def _after_linalg_rank_mod_p(self, args, result):
        self.extra["rank_mod_p.entries"] += np.size(args[0])

    def _after_identities__evaluate_batch(self, args, result):
        self.extra["tuples"] += np.shape(args[2])[0]

    def _after_identities_nonvanishing_witness(self, args, result):
        report = result[1]
        self.extra["witness.tried"] += report.details.get("tried", 0)
        self.extra["witness.found"] += int(report.status == "pass")

    # -- results

    def layer_metrics(self, suites):
        """Every per-layer metric; `suites` names the suite spans to report."""
        s = 1e-9
        c, tot, slf, x = self.calls, self.total_ns, self.self_ns, self.extra

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "rings.RingElem.new": self.counts["rings.RingElem.new"],
            "rings.BaseRingHom.apply.calls": c["rings.BaseRingHom.apply"],
            "rings.residue_field.calls": c["rings.residue_field"],
            "algebras.Algebra.new.calls": c["algebras.Algebra.new"],
            "algebras.Algebra.new.self_s": slf["algebras.Algebra.new"] * s,
            "algebras.Algebra.new.distinct_ratio": ratio(
                len(self.algebra_keys), c["algebras.Algebra.new"]
            ),
            "algebras.AlgElem.new": self.counts["algebras.AlgElem.new"],
            "algebras.base_change.total_s": tot["algebras.base_change"] * s,
            "algebras.rank_at.total_s": tot["algebras.rank_at"] * s,
            "algebras.env_map_flat.self_s": slf["algebras.env_map_flat"] * s,
            "algebras.center.total_s": tot["algebras.center"] * s,
            "algebras.is_azumaya.total_s": tot["algebras.is_azumaya"] * s,
            "algebras.Algebra.mul_batch.calls": c[_SINGLE] + c[_WIDE],
            "algebras.Algebra.mul_batch.self_s": (slf[_SINGLE] + slf[_WIDE]) * s,
            "algebras.Algebra.mul_batch.rows_per_call": ratio(
                x["mul_batch.rows"], c[_SINGLE] + c[_WIDE]
            ),
            "algebras.Algebra.mul_batch.single.calls": c[_SINGLE],
            "algebras.Algebra.mul_batch.single.self_s": slf[_SINGLE] * s,
            "algebras.Algebra.mul_batch.wide.calls": c[_WIDE],
            "algebras.Algebra.mul_batch.wide.self_s": slf[_WIDE] * s,
            "algebras.Algebra.__eq__.calls": c["algebras.Algebra.__eq__"],
            "algebras.Algebra.__eq__.self_s": slf["algebras.Algebra.__eq__"] * s,
            "linalg.howell.calls": c["linalg.howell"],
            "linalg.howell.self_s": slf["linalg.howell"] * s,
            "linalg.howell.entries": x["howell.entries"],
            "linalg.rank_mod_p.calls": c["linalg.rank_mod_p"],
            "linalg.rank_mod_p.self_s": slf["linalg.rank_mod_p"] * s,
            "linalg.rank_mod_p.entries": x["rank_mod_p.entries"],
            "linalg.Subgroup.contains.calls": self.counts["linalg.Subgroup.contains"],
            "homs.AlgebraHom.verify.self_s": slf["homs.AlgebraHom.verify"] * s,
            "homs.center_preservation_check.self_s": slf["homs.center_preservation_check"] * s,
            "homs.isomorphism_check.total_s": tot["homs.isomorphism_check"] * s,
            "homs.jordan_obstruction_probe.total_s": tot["homs.jordan_obstruction_probe"] * s,
            "identities.tuples": x["tuples"],
            "identities.tuples_per_s": ratio(
                x["tuples"], tot["identities._evaluate_batch"] * s
            ),
            "identities.nonvanishing_witness.total_s": tot["identities.nonvanishing_witness"] * s,
            "identities.nonvanishing_witness.tried": x["witness.tried"],
            "identities.nonvanishing_witness.found": x["witness.found"],
            "corpus.build_corpus.calls": c["corpus.build_corpus"],
            "corpus.build_corpus.total_s": tot["corpus.build_corpus"] * s,
        }
        for name in suites:
            m[f"suites.{name}.total_s"] = tot[f"suites.{name}"] * s
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                v for k, v in slf.items() if k.split(".")[0] == layer
            ) * s
        return m

    def top_level_s(self):
        """Time covered by spans without a parent."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] < 0
        ) * 1e-9

    def write(self, path):
        """Write the span store as gzipped JSON."""
        spans = [
            [self.span_name[i], self.span_parent[i], self.span_start[i], self.span_end[i]]
            for i in range(len(self.span_start))
        ]
        doc = {
            "names": self.names,
            "fields": ["name", "parent", "start_ns", "end_ns"],
            "spans": spans,
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))

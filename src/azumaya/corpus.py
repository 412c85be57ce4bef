"""Deterministic corpus of verified homomorphisms used by the theorem suites.

Enumeration order is fixed and documented: conjugations, reductions,
diagonal embeddings, CRT splittings, Weyl splittings, then binary
compositions up to depth 2.  Construction involves no randomness, so two
runs produce identical corpora; every hom is verified at build time.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebras import matrix_algebra
from .homs import (
    base_change_hom,
    compose,
    conjugation_auto,
    diagonal_embed,
    reduction_hom,
    weyl_splitting,
)
from .rings import GaloisField, RingIdeal, ZMod, crt_decompose, is_reduced


class CorpusEntry:
    def __init__(self, name, kind, hom):
        self.name = name
        self.kind = kind
        self.hom = hom

    @property
    def equal_rank_reduced(self):
        """The hypothesis set of the center-preservation theorem."""
        return self.hom.source.rank == self.hom.target.rank and is_reduced(
            self.hom.target.base
        )

    def __repr__(self):
        return f"CorpusEntry({self.name!r}, {self.kind!r})"


_RINGS = {
    "F2": lambda: ZMod(2),
    "F3": lambda: ZMod(3),
    "F5": lambda: ZMod(5),
    "Z4": lambda: ZMod(4),
    "Z6": lambda: ZMod(6),
    "Z12": lambda: ZMod(12),
    "Z30": lambda: ZMod(30),
    "GF4": lambda: GaloisField.default(2, 2),
}


@lru_cache(maxsize=None)
def _ring(key):
    return _RINGS[key]()


def _unit_matrix(A, n, entries):
    """Element of M_n from an integer matrix given as nested lists."""
    f = A.base.flatten_len
    flat = np.zeros(A.dim, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            v = entries[i][j]
            coords = (v,) + (0,) * (f - 1) if isinstance(v, int) else tuple(v)
            flat[(i * n + j) * f : (i * n + j + 1) * f] = A.base.element(coords).coords
    return A.element(flat)


# units used for the conjugation entries, per (ring, n)
_CONJ_UNITS = {
    ("F2", 2): [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [1, 0]]],
    ("F3", 2): [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 2]], [[1, 2], [0, 1]]],
    ("F5", 2): [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 2]], [[2, 1], [1, 1]]],
    ("Z6", 2): [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 5]], [[1, 2], [0, 1]]],
    ("Z4", 2): [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 3]]],
    ("Z12", 2): [[[1, 1], [0, 1]], [[1, 0], [0, 5]], [[1, 0], [0, 7]], [[0, 1], [1, 0]]],
    ("F2", 3): [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
    ],
    ("GF4", 2): [[[1, 1], [0, 1]], [[0, 1], [1, 0]]],
}

# reductions (ring, n, divisor)
_REDUCTIONS = [
    ("Z12", 2, 2),
    ("Z12", 2, 3),
    ("Z12", 2, 6),
    ("Z12", 2, 4),
    ("Z12", 3, 2),
    ("Z12", 3, 3),
    ("Z12", 3, 6),
    ("Z6", 2, 2),
    ("Z6", 2, 3),
    ("Z6", 3, 2),
    ("Z6", 3, 3),
    ("Z4", 2, 2),
]

# diagonal embeddings (ring, m, k)
_DIAGONALS = [
    ("F2", 1, 2),
    ("F2", 2, 2),
    ("F3", 1, 3),
    ("F3", 2, 2),
    ("F5", 2, 2),
    ("Z6", 2, 2),
]

# CRT splittings (ring, n)
_CRT = [("Z6", 2), ("Z6", 3), ("Z30", 2), ("Z12", 2)]

# Weyl splitting parameters (p, a, b): all pairs for p in {2, 3}
_WEYL = [(2, a, b) for a in range(2) for b in range(2)] + [
    (3, a, b) for a in range(3) for b in range(3)
]


def _base_entries():
    entries = []
    for (rk, n), units in _CONJ_UNITS.items():
        A = matrix_algebra(_ring(rk), n)
        for idx, u in enumerate(units):
            hom = conjugation_auto(A, _unit_matrix(A, n, u))
            entries.append(CorpusEntry(f"conj-M{n}({rk})-{idx}", "conjugation", hom))
    for rk, n, d in _REDUCTIONS:
        A = matrix_algebra(_ring(rk), n)
        hom = reduction_hom(A, RingIdeal(A.base, d))
        entries.append(CorpusEntry(f"red-M{n}({rk})-mod{d}", "reduction", hom))
    for rk, m, k in _DIAGONALS:
        hom = diagonal_embed(_ring(rk), m, k)
        entries.append(CorpusEntry(f"diag-M{m}({rk})-x{k}", "diagonal", hom))
    for rk, n in _CRT:
        _, fwd, _ = crt_decompose(_ring(rk))
        hom = base_change_hom(matrix_algebra(_ring(rk), n), fwd)
        entries.append(CorpusEntry(f"crt-M{n}({rk})", "crt", hom))
    for p, a, b in _WEYL:
        hom = weyl_splitting(p, a, b)
        entries.append(CorpusEntry(f"weylsplit-{p}-{a}-{b}", "weyl_splitting", hom))
    return entries


def _compositions(entries):
    """Depth-2: for each entry f, compose with the first later-or-equal-index
    entry g (g != f) whose source matches f's target."""
    out = []
    for i, e in enumerate(entries):
        for g in entries:
            if g is e:
                continue
            if g.hom.source == e.hom.target:
                hom = compose(g.hom, e.hom)
                out.append(
                    CorpusEntry(f"comp-{g.name}-after-{e.name}", "composition", hom)
                )
                break
    return out


def build_corpus():
    """The full deterministic corpus; every hom verified."""
    entries = _base_entries()
    entries += _compositions(entries)
    for e in entries:
        assert e.hom.is_verified, e.name
    return entries

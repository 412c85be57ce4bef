"""Multilinear polynomial identities and standard-identity checks.

The standard identity s_k is evaluated with a subset dynamic program
(k * 2^(k-1) products instead of k! * (k-1)), batched over tuples with the
algebra's sparse product kernel (`Algebra.mul_batch`); its k! signed terms
are built only when something reads them, and the alternating-sum
definition stays available as an independent oracle for tests.  Every
search (exhaustive or sampled tuples, generator subsets) goes through the
one batched first-hit search, `algebras.first_hit`, with its one batch-size
rule, and reports the first hit in the order a one-at-a-time loop would
meet it.

s_k is Z-multilinear and alternating, and the coordinate generators span A,
so s_k vanishes on A iff it vanishes on every k-subset of them.  The
witness search walks only those subsets, and `al_vanishing_check` decides a
pass on them before any tuple scan: exhaustively always, and in sampled
mode when there are no more subsets than samples.  Only when some subset
gives a nonzero value does it scan the tuples, to report the first failing
tuple in scan order.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from . import linalg
from .algebras import AlgElem, candidate_batches, first_hit, product_rows
from .reports import FAIL, NOT_FOUND, PASS, CheckReport

MAX_ARITY = 8
MODES = ("exhaustive", "samples")


class IdentityError(Exception):
    pass


class ArityMismatch(IdentityError):
    pass


class AlgebraMismatch(IdentityError):
    pass


class BudgetExceeded(IdentityError):
    pass


class MultilinearIdentity:
    """Sum of signed words, each word a permutation of the variables 1..k."""

    def __init__(self, arity, terms, label=""):
        if arity < 1:
            raise IdentityError("arity must be >= 1")
        self.arity = arity
        self.terms = []
        expected = set(range(1, arity + 1))
        for coef, word in terms:
            coef = int(coef)
            word = tuple(int(v) for v in word)
            if coef == 0:
                raise IdentityError("zero coefficient term")
            if set(word) != expected or len(word) != arity:
                raise IdentityError(f"word {word} is not a permutation of 1..{arity}")
            self.terms.append((coef, word))
        self.label = label or f"identity(arity={arity})"

    def to_config(self):
        return {
            "arity": self.arity,
            "terms": [{"coef": c, "word": list(w)} for c, w in self.terms],
        }

    def __repr__(self):
        return f"<{self.label}: {len(self.terms)} terms>"


class StandardIdentity(MultilinearIdentity):
    """s_k = sum over all permutations sigma of sgn(sigma) x_sigma(1)...x_sigma(k).

    Evaluation runs the subset DP and never reads `terms`, which are built
    on first use."""

    def __init__(self, k):
        self.arity = k
        self.label = f"s_{k}"

    @cached_property
    def terms(self):
        # itertools.permutations meets the permutations in lexicographic
        # order, and the Lehmer code of the i-th one is the factorial-base
        # digits of i; their sum is its number of inversions
        k = self.arity
        lehmer = product_rows(0, math.factorial(k), range(k, 0, -1))
        signs = 1 - 2 * (lehmer.sum(axis=1) & 1)
        return list(zip(signs.tolist(), itertools.permutations(range(1, k + 1))))


def standard_identity(k):
    """The standard identity s_k, for 1 <= k <= MAX_ARITY."""
    if k < 1:
        raise IdentityError("k must be >= 1")
    if k > MAX_ARITY:
        raise IdentityError(f"k capped at {MAX_ARITY} ({MAX_ARITY}! terms already)")
    return StandardIdentity(k)


def evaluate(identity, elems):
    """Exact value of the identity on a tuple of algebra elements."""
    if len(elems) != identity.arity:
        raise ArityMismatch(f"expected {identity.arity} elements, got {len(elems)}")
    A = elems[0].algebra
    for e in elems:
        if e.algebra != A:
            raise AlgebraMismatch("elements from different algebras")
    X = np.stack([e.flat for e in elems])
    return AlgElem(A, _evaluate_batch(identity, A, X[None, :, :])[0])


def _evaluate_batch(identity, A, X):
    """Identity values for a (T, k, D) array of flattened tuples."""
    if isinstance(identity, StandardIdentity):
        return _standard_batch(A, X)
    T = X.shape[0]
    acc = np.zeros((T, A.dim), dtype=A._sum_dtype)
    # coefficients reduced in Python first: a config integer may not fit int64
    coefs = np.asarray([[coef % m for m in A.moduli] for coef, _ in identity.terms], dtype=np.int64)
    for c, (_, word) in zip(coefs, identity.terms):
        prod = X[:, word[0] - 1, :]
        for v in word[1:]:
            prod = A.mul_batch(prod, X[:, v - 1, :])
        term = linalg.einsum_mod("k,tk->tk", c, prod, moduli=A._moduli_arr, N=A._N)
        acc = (acc + term) % A._moduli_arr
    return acc.astype(np.int64, copy=False)


def _standard_batch(A, X):
    """Subset DP: s_S = sum_{i in S} (-1)^(rank(i, S)+1) x_i * s_(S minus i).

    Only the subsets one smaller are kept while a size is computed.  A sum
    runs over at most k residues, in the dtype the exactness rule gives."""
    T, k, D = X.shape
    dtype = linalg._dtype(A._N, k, 1)
    table = {1 << i: X[:, i, :] for i in range(k)}
    for size in range(2, k + 1):
        bigger = {}
        for bits in itertools.combinations(range(k), size):
            S = sum(1 << b for b in bits)
            acc = np.zeros((T, D), dtype=dtype)
            for r, i in enumerate(bits):
                term = A.mul_batch(X[:, i, :], table[S & ~(1 << i)])
                acc = (acc - term) if r % 2 else (acc + term)
            bigger[S] = (acc % A._moduli_arr).astype(np.int64, copy=False)
        table = bigger
    return table[(1 << k) - 1]


def _tuples(A, k, count=None, seed=None):
    """Source of k-tuples of A for `first_hit`: every tuple in
    itertools.product order, or `count` seeded random tuples drawn element
    by element, tuple by tuple; as (T, k, D) arrays."""
    return lambda rows: (
        X.reshape(-1, k, A.dim) for X in candidate_batches(A.moduli * k, rows, count, seed)
    )


def _entries(k, D):
    """Entries per k-tuple while s_k is evaluated, for the batch rule: the
    subset table of _standard_batch holds under 2^k rows of D entries."""
    return (1 << k) * D


def _nonzero(identity, A):
    """Batch evaluator for `first_hit`: the identity's values, marked where
    nonzero."""

    def evaluate(X):
        vals = _evaluate_batch(identity, A, X)
        return vals, vals.any(axis=1)

    return evaluate


def _subset_hit(sk, A, budget=None):
    """`first_hit` over the k-subsets of the coordinate generators, in
    itertools.combinations order, at most `budget` of them: the first
    subset on which s_k is nonzero, its value and its position."""
    k = sk.arity
    basis = np.eye(A.dim, dtype=np.int64)  # the flat coordinate generators

    def subsets(rows):
        walk = itertools.islice(itertools.combinations(range(A.dim), k), budget)
        while batch := list(itertools.islice(walk, rows)):
            yield basis[np.asarray(batch, dtype=np.intp)]

    return first_hit(subsets, _entries(k, A.dim), _nonzero(sk, A))


def al_vanishing_check(A, n, mode="exhaustive", count=2000, seed=None, max_tuples=10**7):
    """Does s_(2n) vanish on A?  Over all 2n-tuples (`mode="exhaustive"`,
    within `max_tuples`) or `count` seeded random ones (`mode="samples"`);
    either way exact per tuple.  `tested` counts the tuples up to and
    including a witness, or all of them on a pass.

    A pass is decided on the 2n-subsets of the coordinate generators
    whenever the scan would meet every tuple or there are no more subsets
    than samples: s_(2n) vanishing on them means it vanishes on every tuple,
    so the scan is skipped and nothing is drawn.  Otherwise, or when a
    subset gives a nonzero value, the tuples are scanned in order; only a
    sampled scan draws, and only it needs a seed."""
    if mode not in MODES:
        raise IdentityError(f"unknown mode {mode!r}, expected one of {MODES}")
    k = 2 * n
    sk = standard_identity(k)
    if mode == "exhaustive":
        total = A.size**k
        if total > max_tuples:
            raise BudgetExceeded(f"{total} tuples exceed the exhaustive budget {max_tuples}")
        tuples = _tuples(A, k)
    else:
        total = count
        tuples = _tuples(A, k, count, seed)
    if (mode == "exhaustive" or math.comb(A.dim, k) <= count) and _subset_hit(sk, A)[0] is None:
        X, value, tested = None, None, total
    else:
        if mode == "samples" and seed is None:
            raise IdentityError("sampled mode requires a seed")
        X, value, tested = first_hit(tuples, _entries(k, A.dim), _nonzero(sk, A))
    details = {"k": k, "mode": mode, "tested": tested}
    if X is None:
        return CheckReport(check="al_vanishing", status=PASS, seed=seed, details=details)
    return CheckReport(
        check="al_vanishing",
        status=FAIL,
        witness={"tuple": X.tolist(), "value": value.tolist()},
        seed=seed,
        details=details,
    )


def nonvanishing_witness(A, k, budget=10000, seed=0):
    """A k-tuple with s_k != 0 among the k-subsets of the coordinate
    generators, evaluated in batches.

    s_k vanishes on A iff it vanishes on every such subset (see the module
    docstring): the search is complete, and nothing is drawn at random.
    `seed` is only recorded in the report.  `tried` counts the subsets up to
    and including the witness, or all that were walked: min(budget, C(dim, k)).

    Returns (tuple of AlgElem or None, CheckReport)."""
    X, value, tried = _subset_hit(standard_identity(k), A, max(budget, 0))
    if X is None:
        return None, CheckReport(
            check="nonvanishing_witness", status=NOT_FOUND, seed=seed, details={"k": k, "tried": tried}
        )
    return tuple(AlgElem(A, v) for v in X), CheckReport(
        check="nonvanishing_witness",
        status=PASS,
        seed=seed,
        witness={"tuple": X.tolist(), "value": value.tolist()},
        details={"k": k, "tried": tried, "phase": "basis"},
    )


def identity_transfer_check(f, identity, trials=100, seed=0):
    """phi(p(x_1..x_k)) = p(phi(x_1)..phi(x_k)) on seeded random tuples,
    evaluated in batches on each side."""
    f.require_verified()
    A, B = f.source, f.target
    k = identity.arity

    def differs(X):
        lhs = f.apply_flat(_evaluate_batch(identity, A, X))
        rhs = _evaluate_batch(identity, B, f.apply_flat(X))
        return lhs, (lhs != rhs).any(axis=1)

    X, _, trial = first_hit(_tuples(A, k, trials, seed), _entries(k, max(A.dim, B.dim)), differs)
    if X is None:
        return CheckReport(check="identity_transfer", status=PASS, seed=seed, details={"trials": trials})
    return CheckReport(
        check="identity_transfer",
        status=FAIL,
        witness={"tuple": X.tolist(), "trial": trial - 1},
        seed=seed,
        details={"trials": trials},
    )

"""Multilinear polynomial identities and standard-identity checks.

The standard identity s_k is evaluated with a subset dynamic program
(k * 2^(k-1) products instead of k! * (k-1)), batched over tuples with the
algebra's sparse product kernel (`Algebra.mul_batch`); the alternating-sum
definition stays available as an independent oracle for tests.  Every
search over tuples (exhaustive, sampled, generator subsets) evaluates them
in batches and reports the first hit in the order a one-at-a-time loop
would meet it.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from . import linalg
from .algebras import AlgElem, product_rows, random_rows
from .reports import FAIL, NOT_FOUND, PASS, CheckReport

MAX_ARITY = 8


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
        self.is_standard = False  # set by standard_identity()

    def to_config(self):
        return {
            "arity": self.arity,
            "terms": [{"coef": c, "word": list(w)} for c, w in self.terms],
        }

    def __repr__(self):
        return f"<{self.label}: {len(self.terms)} terms>"


def standard_identity(k):
    """s_k = sum over all permutations sigma of sgn(sigma) x_sigma(1)...x_sigma(k)."""
    if k < 1:
        raise IdentityError("k must be >= 1")
    if k > MAX_ARITY:
        raise IdentityError(f"k capped at {MAX_ARITY} ({MAX_ARITY}! terms already)")
    terms = []
    for perm in itertools.permutations(range(1, k + 1)):
        inversions = sum(
            1
            for a in range(k)
            for b in range(a + 1, k)
            if perm[a] > perm[b]
        )
        terms.append((-1 if inversions % 2 else 1, perm))
    ident = MultilinearIdentity(k, terms, label=f"s_{k}")
    ident.is_standard = True
    return ident


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
    if identity.is_standard:
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


def _random_tuples(rng, moduli, T, k):
    """(T, k, D) array of T seeded random k-tuples, drawn element by
    element, tuple by tuple."""
    return random_rows(rng, moduli, T * k).reshape(T, k, len(moduli))


def _tuple_batches(A, k, mode, max_tuples, seed, batch=4096):
    """Yield (T, k, D) integer arrays; exhaustive or seeded sampling."""
    if mode == "exhaustive":
        total = A.size**k
        if total > max_tuples:
            raise BudgetExceeded(
                f"{total} tuples exceed the exhaustive budget {max_tuples}"
            )
        radices = A.moduli * k
        for lo in range(0, total, batch):
            yield product_rows(lo, min(lo + batch, total), radices).reshape(-1, k, A.dim)
    else:
        rng = random.Random(seed)
        for lo in range(0, mode, batch):
            yield _random_tuples(rng, A.moduli, min(batch, mode - lo), k)


def _search_rows(k, D):
    """Largest batch in a first-hit search: the subset table of
    _standard_batch (under 2^k arrays of shape (T, D)) stays below 2^20
    entries."""
    return max(1, min(1024, (1 << 20) // ((1 << k) * D)))


def al_vanishing_check(A, n, mode="exhaustive", count=2000, seed=None, max_tuples=10**7):
    """Does s_(2n) vanish on A?  Exhaustive over all 2n-tuples when the count
    fits the budget, else seeded sampling; either way exact per tuple."""
    k = 2 * n
    sk = standard_identity(k)
    if mode == "samples" and seed is None:
        raise IdentityError("sampled mode requires a seed")
    gen_mode = "exhaustive" if mode == "exhaustive" else count
    tested = 0
    for X in _tuple_batches(A, k, gen_mode, max_tuples, seed):
        vals = _evaluate_batch(sk, A, X)
        nz = np.nonzero(vals.any(axis=1))[0]
        tested += X.shape[0]
        if nz.size:
            t = int(nz[0])
            return CheckReport(
                check="al_vanishing",
                status=FAIL,
                witness={
                    "tuple": X[t].tolist(),
                    "value": vals[t].tolist(),
                },
                seed=seed,
                details={"k": k, "mode": mode, "tested": tested},
            )
    return CheckReport(
        check="al_vanishing",
        status=PASS,
        seed=seed,
        details={"k": k, "mode": mode, "tested": tested},
    )


def nonvanishing_witness(A, k, budget=10000, seed=0):
    """A k-tuple with s_k != 0: k-subsets of the coordinate generators
    first, then seeded random tuples, evaluated in batches.

    s_k is alternating, so it vanishes on every tuple with a repeated entry
    and the basis phase walks only the subsets of distinct generators.
    `tried` counts the tuples up to and including the witness.

    Returns (tuple of AlgElem or None, CheckReport)."""
    sk = standard_identity(k)
    basis = np.asarray(
        [A.basis_flat(i, s) for i in range(A.rank) for s in range(A.base.flatten_len)]
    )
    subsets = itertools.combinations(range(len(basis)), k)
    rng = random.Random(seed)

    def next_subsets(T):
        idx = np.asarray(list(itertools.islice(subsets, T)), dtype=np.intp)
        return basis[idx.reshape(-1, k)]

    phases = (
        ("basis", next_subsets),
        ("random", lambda T: _random_tuples(rng, A.moduli, T, k)),
    )
    # batches double from one tuple, so a witness at position t costs
    # fewer than 2t evaluations
    rows, cap = 1, _search_rows(k, A.dim)
    tried = 0
    for phase, draw in phases:
        while tried < budget:
            X = draw(min(rows, budget - tried))
            rows = min(2 * rows, cap)
            if not len(X):
                break
            vals = _evaluate_batch(sk, A, X)
            hits = np.flatnonzero(vals.any(axis=1))
            if hits.size:
                t = int(hits[0])
                return tuple(AlgElem(A, v) for v in X[t]), CheckReport(
                    check="nonvanishing_witness",
                    status=PASS,
                    seed=seed,
                    witness={"tuple": X[t].tolist(), "value": vals[t].tolist()},
                    details={"k": k, "tried": tried + t + 1, "phase": phase},
                )
            tried += len(X)
    return None, CheckReport(
        check="nonvanishing_witness",
        status=NOT_FOUND,
        seed=seed,
        details={"k": k, "tried": tried},
    )


def identity_transfer_check(f, identity, trials=100, seed=0):
    """phi(p(x_1..x_k)) = p(phi(x_1)..phi(x_k)) on seeded random tuples,
    evaluated in batches on each side."""
    f.require_verified()
    A, B = f.source, f.target
    rng = random.Random(seed)
    k = identity.arity
    rows = _search_rows(k, max(A.dim, B.dim))
    for lo in range(0, trials, rows):
        X = _random_tuples(rng, A.moduli, min(rows, trials - lo), k)
        lhs = f.apply_flat(_evaluate_batch(identity, A, X))
        rhs = _evaluate_batch(identity, B, f.apply_flat(X))
        bad = np.flatnonzero((lhs != rhs).any(axis=1))
        if bad.size:
            t = int(bad[0])
            return CheckReport(
                check="identity_transfer",
                status=FAIL,
                witness={"tuple": X[t].tolist(), "trial": lo + t},
                seed=seed,
                details={"trials": trials},
            )
    return CheckReport(
        check="identity_transfer",
        status=PASS,
        seed=seed,
        details={"trials": trials},
    )

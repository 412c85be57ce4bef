"""Multilinear polynomial identities and standard-identity checks.

The standard identity s_k is evaluated with a subset dynamic program
(k * 2^(k-1) products instead of k! * (k-1)), batched over tuples with the
algebra's einsum multiplication; the alternating-sum definition stays
available as an independent oracle for tests.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .algebras import AlgElem
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
    acc = np.zeros((T, A.dim), dtype=np.int64)
    for coef, word in identity.terms:
        prod = X[:, word[0] - 1, :]
        for v in word[1:]:
            prod = A.mul_batch(prod, X[:, v - 1, :])
        acc = (acc + coef * prod) % A._moduli_arr
    return acc


def _standard_batch(A, X):
    """Subset DP: s_S = sum_{i in S} (-1)^(rank(i, S)+1) x_i * s_(S minus i)."""
    T, k, D = X.shape
    table = {0: None}
    for i in range(k):
        table[1 << i] = X[:, i, :]
    for size in range(2, k + 1):
        for bits in itertools.combinations(range(k), size):
            S = sum(1 << b for b in bits)
            acc = np.zeros((T, D), dtype=np.int64)
            for r, i in enumerate(bits):
                term = A.mul_batch(X[:, i, :], table[S & ~(1 << i)])
                acc = (acc - term) if r % 2 else (acc + term)
            table[S] = acc % A._moduli_arr
    return table[(1 << k) - 1]


def _tuple_batches(A, k, mode, max_tuples, seed, batch=4096):
    """Yield (T, k, D) integer arrays; exhaustive or seeded sampling."""
    if mode == "exhaustive":
        total = A.size**k
        if total > max_tuples:
            raise BudgetExceeded(
                f"{total} tuples exceed the exhaustive budget {max_tuples}"
            )
        coords = [range(m) for m in A.moduli] * k
        buf = []
        for flat in itertools.product(*coords):
            buf.append(np.asarray(flat, dtype=np.int64).reshape(k, A.dim))
            if len(buf) == batch:
                yield np.stack(buf)
                buf = []
        if buf:
            yield np.stack(buf)
    else:
        count = mode
        rng = random.Random(seed)
        buf = []
        for _ in range(count):
            buf.append(
                np.asarray(
                    [[rng.randrange(m) for m in A.moduli] for _ in range(k)],
                    dtype=np.int64,
                )
            )
            if len(buf) == batch:
                yield np.stack(buf)
                buf = []
        if buf:
            yield np.stack(buf)


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
    first, then seeded random tuples.

    s_k is alternating, so it vanishes on every tuple with a repeated entry
    and the basis phase walks only the subsets of distinct generators.

    Returns (tuple of AlgElem or None, CheckReport)."""
    sk = standard_identity(k)
    tried = 0
    basis = [A.basis_flat(i, s) for i in range(A.rank) for s in range(A.base.flatten_len)]
    for combo in itertools.combinations(basis, k):
        if tried >= budget:
            break
        tried += 1
        X = np.stack(combo)[None, :, :]
        val = _evaluate_batch(sk, A, X)[0]
        if val.any():
            elems = tuple(AlgElem(A, v) for v in combo)
            return elems, CheckReport(
                check="nonvanishing_witness",
                status=PASS,
                seed=seed,
                witness={"tuple": [v.tolist() for v in combo], "value": val.tolist()},
                details={"k": k, "tried": tried, "phase": "basis"},
            )
    rng = random.Random(seed)
    while tried < budget:
        tried += 1
        combo = [
            np.asarray([rng.randrange(m) for m in A.moduli], dtype=np.int64)
            for _ in range(k)
        ]
        X = np.stack(combo)[None, :, :]
        val = _evaluate_batch(sk, A, X)[0]
        if val.any():
            elems = tuple(AlgElem(A, v) for v in combo)
            return elems, CheckReport(
                check="nonvanishing_witness",
                status=PASS,
                seed=seed,
                witness={"tuple": [v.tolist() for v in combo], "value": val.tolist()},
                details={"k": k, "tried": tried, "phase": "random"},
            )
    return None, CheckReport(
        check="nonvanishing_witness",
        status=NOT_FOUND,
        seed=seed,
        details={"k": k, "tried": tried},
    )


def identity_transfer_check(f, identity, trials=100, seed=0):
    """phi(p(x_1..x_k)) = p(phi(x_1)..phi(x_k)) on seeded random tuples."""
    f.require_verified()
    A, B = f.source, f.target
    rng = random.Random(seed)
    for t in range(trials):
        xs = [
            np.asarray([rng.randrange(m) for m in A.moduli], dtype=np.int64)
            for _ in range(identity.arity)
        ]
        lhs = f.apply_flat(_evaluate_batch(identity, A, np.stack(xs)[None])[0])
        ys = np.stack([f.apply_flat(x) for x in xs])
        rhs = _evaluate_batch(identity, B, ys[None])[0]
        if not np.array_equal(lhs, rhs):
            return CheckReport(
                check="identity_transfer",
                status=FAIL,
                witness={"tuple": [x.tolist() for x in xs], "trial": t},
                seed=seed,
                details={"trials": trials},
            )
    return CheckReport(
        check="identity_transfer",
        status=PASS,
        seed=seed,
        details={"trials": trials},
    )

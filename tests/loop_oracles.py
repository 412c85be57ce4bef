"""Test-only oracles for the batched product kernel and the batched searches.

`dense_mul_batch` is the dense contraction over the whole structure tensor,
`standard_identity_terms_loop` builds the k! signed terms of s_k by
counting each permutation's inversions, and `nilpotency_indices_walk` is
the batched nilpotency walk without the powering screen.  The other
functions are the one-tuple-at-a-time loops that the library's batched searches replaced,
kept verbatim in behaviour: seeded tuple t is row t of
`algebras.random_rows`, drawn alone, and the reports are the same, so a
test can compare the two forms report by report.  The AL loop scans every
tuple, where the library decides a pass on the generator subsets first.
`largest_nilpotency_index_loop` walks elements one at a time, where the
jordan probe reads only the Jordan types.
"""

from __future__ import annotations

import itertools

import numpy as np

from azumaya.algebras import AlgElem, random_rows
from azumaya.identities import _evaluate_batch, standard_identity
from azumaya.reports import FAIL, NOT_FOUND, PASS, CheckReport


def dense_mul_batch(A, X, Y):
    """Row-wise products by einsum("ti,tj,ijk->tk") over the dense tensor,
    in exact Python ints once int64 could wrap."""
    N = max(A.moduli)
    dtype = np.int64 if A.dim**2 * N**3 < 2**63 else object
    X, Y, S = (np.asarray(a).astype(dtype) for a in (X, Y, A.struct))
    out = np.einsum("ti,tj,ijk->tk", X, Y, S) % np.asarray(A.moduli, dtype=dtype)
    return out.astype(np.int64)


def standard_identity_terms_loop(k):
    """The (sign, word) terms of s_k, signs by counting inversions, in
    itertools.permutations order."""
    terms = []
    for perm in itertools.permutations(range(1, k + 1)):
        inversions = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        terms.append((-1 if inversions % 2 else 1, perm))
    return terms


def _nilpotency_index_loop(x, cap):
    power = x
    for e in range(1, cap + 1):
        if power.is_zero():
            return e
        power = AlgElem(x.algebra, dense_mul_batch(x.algebra, power.flat[None], x.flat[None])[0])
    return None


def nilpotency_indices_walk(A, X, cap):
    """The batched walk `algebras.nilpotency_indices` used before its
    powering screen: one product per exponent, over the rows still
    undecided, the rows that are not nilpotent among them up to the cap."""
    index = np.zeros(len(X), dtype=np.int64)
    rows, power = np.arange(len(X)), X
    for e in range(1, cap + 1):
        zero = ~power.any(axis=1)
        index[rows[zero]] = e
        rows, power = rows[~zero], power[~zero]
        if e == cap or not len(rows):
            break
        power = A.mul_batch(power, X[rows])
    return index


def exhaustive_tuples_loop(A, k, batch=4096):
    """(T, k, D) batches of every k-tuple, one itertools.product row at a time."""
    coords = [range(m) for m in A.moduli] * k
    buf = []
    for flat in itertools.product(*coords):
        buf.append(np.asarray(flat, dtype=np.int64).reshape(k, A.dim))
        if len(buf) == batch:
            yield np.stack(buf)
            buf = []
    if buf:
        yield np.stack(buf)


def sampled_tuples_loop(A, k, count, seed, batch=4096):
    """(T, k, D) batches of seeded random k-tuples, drawn one tuple at a time."""
    buf = []
    for t in range(count):
        buf.append(random_rows(seed, A.moduli * k, t, t + 1).reshape(k, A.dim))
        if len(buf) == batch:
            yield np.stack(buf)
            buf = []
    if buf:
        yield np.stack(buf)


def al_vanishing_check_loop(A, n, mode="exhaustive", count=2000, seed=None):
    """s_(2n) on every tuple in itertools.product order, or on `count`
    seeded random tuples drawn one at a time, until the first nonzero value."""
    k = 2 * n
    sk = standard_identity(k)
    if mode == "exhaustive":
        tuples = exhaustive_tuples_loop(A, k, batch=1)
    else:
        tuples = sampled_tuples_loop(A, k, count, seed, batch=1)
    tested = 0
    for X in tuples:
        tested += 1
        val = _evaluate_batch(sk, A, X)[0]
        if val.any():
            return CheckReport(
                check="al_vanishing",
                status=FAIL,
                witness={"tuple": X[0].tolist(), "value": val.tolist()},
                seed=seed,
                details={"k": k, "mode": mode, "tested": tested},
            )
    return CheckReport(
        check="al_vanishing", status=PASS, seed=seed, details={"k": k, "mode": mode, "tested": tested}
    )


def largest_nilpotency_index_loop(A, samples, seed):
    """The largest nilpotency index, up to the rank, over every element of A
    when it has at most `samples`, else over `samples` seeded ones (row t of
    `algebras.random_rows`), one element at a time; 0 when none is
    nilpotent."""
    if A.size <= samples:
        rows = (np.asarray(x, dtype=np.int64) for x in itertools.product(*(range(m) for m in A.moduli)))
    else:
        rows = (random_rows(seed, A.moduli, t, t + 1)[0] for t in range(samples))
    return max(_nilpotency_index_loop(AlgElem(A, x), A.rank) or 0 for x in rows)


def nonvanishing_witness_loop(A, k, budget=10000, seed=0):
    sk = standard_identity(k)
    tried = 0
    basis = list(np.eye(A.dim, dtype=np.int64))
    for combo in itertools.combinations(basis, k):
        if tried >= budget:
            break
        tried += 1
        val = _evaluate_batch(sk, A, np.stack(combo)[None, :, :])[0]
        if val.any():
            return tuple(AlgElem(A, v) for v in combo), CheckReport(
                check="nonvanishing_witness",
                status=PASS,
                seed=seed,
                witness={"tuple": [v.tolist() for v in combo], "value": val.tolist()},
                details={"k": k, "tried": tried, "phase": "basis"},
            )
    return None, CheckReport(
        check="nonvanishing_witness", status=NOT_FOUND, seed=seed, details={"k": k, "tried": tried}
    )


def identity_transfer_check_loop(f, identity, trials=100, seed=0):
    A, B = f.source, f.target
    for t in range(trials):
        xs = random_rows(seed, A.moduli * identity.arity, t, t + 1).reshape(identity.arity, A.dim)
        lhs = f.apply_flat(_evaluate_batch(identity, A, xs[None])[0])
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
        check="identity_transfer", status=PASS, seed=seed, details={"trials": trials}
    )

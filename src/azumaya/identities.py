"""Multilinear polynomial identities and standard-identity checks.

The standard identity s_k is evaluated with a subset dynamic program
(k * 2^(k-1) products instead of k! * (k-1)), batched over tuples with the
algebra's sparse product kernel (`Algebra.mul_batch`); its k! signed terms
are built only when something reads them, and the alternating-sum
definition stays available as an independent oracle for tests.  Every
search (sampled tuples, generator subsets) goes through the
one batched first-hit search, `algebras.first_hit`, with its one batch-size
rule, and reports the first hit in the order a one-at-a-time loop would
meet it.

s_k is Z-multilinear and alternating, and the coordinate generators span A,
so s_k vanishes on A iff it vanishes on every k-subset of them.  The
witness search walks only those subsets, and so does `al_vanishing_check`
wherever the walk runs: when every smaller size's table fits, when
there are no subsets, or, sampled, when there are no more subsets than
samples.  Its verdict is then the walk's in either mode, a pass or the
first failing subset.  Past those tables a sampled check scans tuples and
an exhaustive one is refused.

Only a sampled tuple scan and the identity transfer draw.  Each takes its
seed as given, and without one it is refused at its first draw
(`algebras.random_rows` raises AlgebraError); nothing decides that earlier.

The subsets share their sub-subsets: s_S = sum over i in S of
+-e_i * s_(S minus i).  So the values on all m-subsets of the generators,
for m = 1, 2, ..., follow size by size, each row a signed sum of products
e_i * y read off the nonzeros of struct[i].  They are stored while two
adjacent sizes fit the search's entry budget (`algebras.SEARCH_ENTRIES`),
and the k-subsets are walked in first-hit batches and evaluated from the
deepest stored size: in one step when that is k - 1, by the subset DP from
there otherwise.  For s_8 on M_4(F_2) the sizes up to 7 fit, so each of
its 12,870 subsets takes one step from the stored 7-subsets.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .algebras import SEARCH_ENTRIES, AlgElem, first_hit, product_rows, random_rows, search_rows
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


def _tuples(A, k, count, seed):
    """Source of k-tuples of A for `first_hit`: the first `count` seeded
    random tuples, tuple t being row t of `random_rows` over k copies of
    A's coordinates, as (T, k, D) arrays of at most `rows` tuples.  A tuple
    is named by its index, so the batching does not change it; without a
    seed the first draw raises AlgebraError."""
    radices = A.moduli * k
    return lambda rows: (
        random_rows(seed, radices, lo, min(lo + rows, count)).reshape(-1, k, A.dim)
        for lo in range(0, count, rows)
    )


def _entries(k, D, depth=1):
    """Entries per k-tuple while s_k is evaluated from its values on the
    depth-subsets of the tuple, for the batch rule: the subset DP holds the
    values on two adjacent sizes m - 1 and m, C(k + 1, m) rows of D entries,
    for the m above `depth` (one row for s_1)."""
    return D * max([math.comb(k + 1, m) for m in range(depth + 1, k + 1)], default=1)


def _nonzero(identity, A):
    """Batch evaluator for `first_hit`: the identity's values, marked where
    nonzero."""

    def evaluate(X):
        vals = _evaluate_batch(identity, A, X)
        return vals, vals.any(axis=1)

    return evaluate


# -- s_k on the k-subsets of the coordinate generators


@lru_cache(maxsize=256)
def _binomials(D, m):
    """C(a, j) at [j, a], for j <= m and a < D; memoized, read-only."""
    table = np.asarray([[math.comb(a, j) for a in range(D)] for j in range(m + 1)], dtype=np.int64)
    table.setflags(write=False)
    return table


def _drop_ranks(D, G):
    """For each row of G, an increasing m-subset of range(D), and each
    r < m: the position of the row without G[:, r] among the (m-1)-subsets
    of range(D) in itertools.combinations order.  A subset (s_0, ..., s_j)
    sits at C(D, j + 1) - 1 minus the sum of C(D - 1 - s_i, j + 1 - i); here
    the entries before G[:, r] keep their place in it and those after move
    up one."""
    m = G.shape[1]
    binom = _binomials(D, m)
    before = binom[np.arange(m - 1, -1, -1), D - 1 - G]
    after = binom[np.arange(m, 0, -1), D - 1 - G]
    ahead = np.cumsum(before, axis=1) - before
    behind = after.sum(axis=1, keepdims=True) - np.cumsum(after, axis=1)
    return math.comb(D, m - 1) - 1 - ahead - behind


@lru_cache(maxsize=256)
def _positions(k, m):
    """The m-subsets of range(k) in combinations order, and their
    `_drop_ranks`; memoized, read-only."""
    P = next(_subsets(k, m, math.comb(k, m)))
    drop = _drop_ranks(k, P)
    P.setflags(write=False)
    drop.setflags(write=False)
    return P, drop


def _subsets(D, m, rows, budget=None):
    """The m-subsets of range(D) in itertools.combinations order, at most
    `budget` of them, as (T, m) arrays of at most `rows` rows.  The subset
    at position i has entries D - 1 - c_m < ... < D - 1 - c_1, where
    c_m > ... > c_1 write C(D, m) - 1 - i as the sum of C(c_j, j): each c_j
    is the largest c with C(c, j) at most what is left."""
    count = math.comb(D, m)
    stop = count if budget is None else min(budget, count)
    binom = _binomials(D, m)
    for lo in range(0, stop, rows):
        left = count - 1 - np.arange(lo, min(lo + rows, stop))
        S = np.empty((len(left), m), dtype=np.int64)
        for j in range(m, 0, -1):
            c = np.searchsorted(binom[j], left, side="right") - 1
            left -= binom[j, c]
            S[:, m - j] = D - 1 - c
        yield S


def _within(keys):
    """Each entry's index among the equal entries of `keys`, in order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    index = np.empty_like(keys)
    index[order] = np.arange(len(keys)) - np.repeat(first, np.diff(first, append=len(keys)))
    return index


def _by_generator(A):
    """The nonzeros of each struct[g], from `_sparse_struct`, laid out so
    that e_g * y for a g per row is one gather and one scatter per layer: a
    list of layers, each three (D, width) arrays of columns J, output
    coordinates K and coefficients C, layer l holding g's l-th nonzero
    towards each of its output coordinates, padded with zero coefficients
    towards the spare coordinate D."""
    I, J, C, outs, starts, _ = A._sparse_struct
    K = np.repeat(outs, np.diff(starts, append=len(C)))
    D = A.dim
    layer = _within(I * D + K)
    slot = _within(I * D + layer)
    shape = (int(layer.max(initial=-1)) + 1, D, int(slot.max(initial=-1)) + 1)
    Jp, Kp, Cp = np.zeros(shape, np.int64), np.full(shape, D), np.zeros(shape, np.int64)
    Jp[layer, I, slot], Kp[layer, I, slot], Cp[layer, I, slot] = J, K, C
    return list(zip(Jp, Kp, Cp))


def _step(A, gens, G, sub, below):
    """Values on a batch of m-subsets of the generators from the values
    `below` on (m-1)-subsets: row t is the sum over r of
    (-1)^r e_(G[t, r]) * below[sub[t, r]], where G[t] lists the subset in
    increasing order and sub[t, r] is the row of `below` that holds it
    without G[t, r].  Each product e_g * y is formed from the nonzeros of
    struct[g], reading only the coordinates of y they use: one gather and
    one scatter per position and layer.  An output coordinate sums m times
    `layers` products of two residues."""
    T, m = G.shape
    D = A.dim
    dtype = linalg._dtype(A._N, m * len(gens), 2)
    below, out = below.ravel(), np.zeros(T * (D + 1), dtype=dtype)
    rows = np.arange(T)[:, None] * (D + 1)
    for r in range(m):
        g, y = G[:, r], sub[:, r, None] * D
        for J, K, C in gens:
            terms = np.asarray(below[y + J[g]], dtype=dtype) * C[g]
            if r % 2:
                out[rows + K[g]] -= terms
            else:
                out[rows + K[g]] += terms
    out = out.reshape(T, D + 1)[:, :D] % A._moduli_arr
    return out.astype(np.int64, copy=False)


def _from_level(A, gens, S, level, depth):
    """s_k on the rows of S, increasing k-subsets of the coordinate
    generators: the subset DP over each row's k positions, seeded with
    `level`, the stored values on every depth-subset of the generators in
    combinations order.  The DP's rows are the (row, position subset) pairs,
    row-major, and its first step reads `level` by generator ranks."""
    T, k = S.shape
    values = level
    for m in range(depth + 1, k + 1):
        P, drop = _positions(k, m)
        G = S[:, P].reshape(-1, m)
        if m == depth + 1:
            sub = _drop_ranks(A.dim, G)
        else:
            sub = (np.arange(T)[:, None, None] * math.comb(k, m - 1) + drop).reshape(-1, m)
        values = _step(A, gens, G, sub, values)
    return values


def _depth(D, k, budget=None):
    """The deepest size below k whose values on every subset of the D
    generators are stored: building size m holds the values on the sizes
    m - 1 and m, within the search's entry budget.  A walk over at most
    `budget` k-subsets reads at most walk * C(k, m) of the m-subsets, so no
    size m is stored whose C(D, m) rows exceed that; without a budget the
    walk covers all C(D, k) subsets and this never binds."""
    walk = math.comb(D, k) if budget is None else min(budget, math.comb(D, k))
    d = 0
    while (
        d + 1 < k
        and (math.comb(D, d) + math.comb(D, d + 1)) * D <= SEARCH_ENTRIES
        and math.comb(D, d + 1) <= walk * math.comb(k, d + 1)
    ):
        d += 1
    return d


def _level(A, gens, depth):
    """s_depth on every depth-subset of the coordinate generators, in
    combinations order: size 0 is the unit (the empty product), and each
    larger size is one `_from_level` step from the size below, in batches."""
    D = A.dim
    level = A.unit_flat[None, :]
    for m in range(1, depth + 1):
        bigger = np.empty((math.comb(D, m), D), dtype=np.min_scalar_type(A._N - 1))
        lo = 0
        for S in _subsets(D, m, search_rows(_entries(m, D, m - 1))):
            bigger[lo : lo + len(S)] = _from_level(A, gens, S, level, m - 1)
            lo += len(S)
        level = bigger
    return level


def _subset_hit(sk, A, budget=None):
    """`first_hit` over the k-subsets of the coordinate generators, in
    itertools.combinations order, at most `budget` of them: the first
    subset on which s_k is nonzero (as its k generator rows), its value and
    its position.

    The values on all subsets of the sizes up to `_depth` (sized by the
    walk) are built once, and each batch of k-subsets is evaluated from the
    deepest of them: in one step when every size below k fits, and
    otherwise by the subset DP from there, which from size 1 is one DP per
    subset."""
    k, D = sk.arity, A.dim
    depth = _depth(D, k, budget)
    gens = _by_generator(A)
    level = _level(A, gens, depth)

    def evaluate(S):
        values = _from_level(A, gens, S, level, depth)
        return values, values.any(axis=1)

    S, value, position = first_hit(
        lambda rows: _subsets(D, k, rows, budget), _entries(k, D, depth), evaluate
    )
    return (None if S is None else np.eye(D, dtype=np.int64)[S]), value, position


def al_vanishing_check(A, n, mode="exhaustive", count=2000, seed=None):
    """Does s_(2n) vanish on A?  On all 2n-tuples (`mode="exhaustive"`) or
    on `count` seeded random ones (`mode="samples"`).

    The 2n-subsets of the coordinate generators decide it, and they give
    the verdict in either mode whenever they are walked: when every smaller
    size's table fits (`_depth`), when there are none (2n > dim, a vacuous
    pass), or, sampled, when there are no more of them than `count`.  A
    pass reports as `tested` every tuple or every sample; a failure reports
    the first subset with s_(2n) != 0 and, as `tested`, its 1-based
    position; nothing is drawn.  Past those tables an exhaustive check
    raises BudgetExceeded, and a sampled one scans its seeded tuples, exact
    per tuple, `tested` counting them up to and including a witness;
    without a seed its first draw raises AlgebraError."""
    if mode not in MODES:
        raise IdentityError(f"unknown mode {mode!r}, expected one of {MODES}")
    k, D = 2 * n, A.dim
    sk = standard_identity(k)
    subsets = math.comb(D, k)
    if not subsets or _depth(D, k) == k - 1 or (mode == "samples" and subsets <= count):
        X, value, tested = _subset_hit(sk, A)
        if X is None:
            tested = A.size**k if mode == "exhaustive" else count
    elif mode == "exhaustive":
        raise BudgetExceeded(
            f"exhaustive s_{k} on {D} generators needs their subset tables up to size {k - 1}, "
            "beyond the search's entry budget"
        )
    else:
        X, value, tested = first_hit(_tuples(A, k, count, seed), _entries(k, D), _nonzero(sk, A))
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


def nonvanishing_witness(A, k, budget=10000, seed=None):
    """A k-tuple with s_k != 0 among the k-subsets of the coordinate
    generators, evaluated in batches.

    s_k vanishes on A iff it vanishes on every such subset (see the module
    docstring): the search is complete, and nothing is drawn at random.
    `seed` is only recorded in the report.  `tried` counts the subsets up to
    and including the witness, or all that were walked: min(budget, C(dim, k)).
    A budget below 1 would walk no subset, so it raises IdentityError.

    Returns (tuple of AlgElem or None, CheckReport)."""
    if budget < 1:
        raise IdentityError(f"budget must be >= 1, got {budget}")
    X, value, tried = _subset_hit(standard_identity(k), A, budget)
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


def identity_transfer_check(f, identity, trials=100, seed=None):
    """phi(p(x_1..x_k)) = p(phi(x_1)..phi(x_k)) on seeded random tuples,
    evaluated in batches on each side.  Without a seed the first draw
    raises AlgebraError."""
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

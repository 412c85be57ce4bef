"""Exact linear algebra over Z/N and over finite abelian groups.

One routine reduces rows: `_echelon`, the forward pass of the Howell
elimination (Howell 1986), vectorized per pivot as in Storjohann-Mulders
("Fast algorithms for linear algebra modulo N", ESA 1998).  Column by
column it takes the entry with the smallest gcd with N as pivot and scales
its row so that the pivot is that gcd g, a divisor of N.  A unit pivot
clears every row below it in one update; a non-unit pivot clears the rows
whose entry g divides in one update and folds each other row into the pivot
row by xgcd, which shrinks g.  The annihilator (N/g) * row of each pivot row
is appended below, so the rows come out saturated: a vector of the span
that vanishes in the first c columns is a combination of the rows with
pivot column c or later.  So membership is decided by successive
leading-coefficient division, and the span has order prod N/g over the
pivots: orders, ranks over F_p and bijectivity are read off the forward
pass alone.  `howell` adds back-reduction of the entries above each pivot,
which makes the form canonical: two matrices over Z/N have the same row
span iff their Howell forms are equal.

One exactness rule covers every product of residues in the workbench
(`_dtype`, the delayed-reduction rule of FFLAS-FFPACK: Dumas, Giorgi,
Pernet, ACM TOMS 35(3), 2008): a sum of `terms` products of `factors`
residues mod N runs in int64 while terms * (N-1)^factors < 2^63, and over
exact Python ints (object arrays) beyond.  An elimination update reduces
each product of two residues before adding it, so its arrays mod N are
int64 while (N-1)^2 < 2^63; every other dense contraction is `einsum_mod`.
Contractions of structure tensors, which are mostly zero, run over their
nonzero entries instead: `sparse_rows` lists them by first index, and
`sparse_join` pairs each entry with the row its contracted index names.

Mixed moduli are handled by scaling every coordinate into Z/L for L the
lcm of the moduli; the scaling x_j -> (L/N_j) x_j embeds prod Z/N_j into
(Z/L)^n as a group.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class LinalgError(Exception):
    pass


class NoSolution(LinalgError):
    pass


class IllFormedMap(LinalgError):
    pass


def _xgcd(a, b):
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _unit_lift(a, N):
    """A unit u mod N with u*a = gcd(a, N) mod N."""
    g = math.gcd(a, N)
    b = a // g
    step = N // g
    while math.gcd(b, N) != 1:
        b += step
    return pow(b, -1, N)


def _dtype(N, terms=1, factors=2):
    """int64 while a sum of `terms` products of `factors` residues mod N
    fits, exact Python ints (object) beyond."""
    return np.int64 if terms * (N - 1) ** factors < 2**63 else object


@lru_cache(maxsize=None)
def _summed_axes(subscripts):
    """(operand, axis) of one occurrence of each summed index of an explicit
    einsum signature; axes after an ellipsis count from the end."""
    inputs, out = subscripts.split("->")
    axes = {}
    for i, term in enumerate(inputs.split(",")):
        head, _, tail = term.rpartition("...")
        for ax, c in [*enumerate(head), *((k - len(tail), c) for k, c in enumerate(tail))]:
            if c not in out:
                axes.setdefault(c, (i, ax))
    return tuple(axes.values())


def _contract_mod(contract, operands, terms, moduli, N):
    """`contract(*operands) % moduli` for arrays of residues below N whose
    sums run over `terms` products, exact by `_dtype`: int64 when every sum
    fits, else over Python ints, returned as int64 residues (object only
    for moduli beyond int64).  `moduli` broadcasts against the result."""
    if _dtype(N, terms, len(operands)) is np.int64:
        return (contract(*operands) % moduli).astype(np.int64, copy=False)
    out = contract(*(np.asarray(x, dtype=object) for x in operands)) % moduli
    return out.astype(_dtype(N, 1, 1))


def einsum_mod(subscripts, *operands, moduli, N):
    """`np.einsum(subscripts, *operands) % moduli`, exact (`_contract_mod`)."""
    terms = math.prod(operands[i].shape[ax] for i, ax in _summed_axes(subscripts))
    return _contract_mod(lambda *xs: np.einsum(subscripts, *xs), operands, terms, moduli, N)


def matmul_mod(a, b, *, moduli, N):
    """`np.matmul(a, b) % moduli`, exact (`_contract_mod`): a matrix product
    where `np.einsum` would run its generic loop."""
    return _contract_mod(np.matmul, (a, b), a.shape[-1], moduli, N)


def sparse_rows(T):
    """The nonzero entries of an integer array in row-major order: a tuple
    of index arrays (one per axis), their values, and the pointer `ptr` of
    the first axis, whose row r holds entries ptr[r]..ptr[r + 1] - 1."""
    index = np.nonzero(T)
    return index, T[index], np.searchsorted(index[0], np.arange(len(T) + 1))


def sparse_join(link, ptr, lo, hi, budget):
    """The pairs of a sparse join, as (outer, inner) entry-index arrays in
    chunks of at most `budget` pairs.

    Outer entry e, lo <= e < hi, meets the inner entries of the row that
    link[e] names, ptr[link[e]]..ptr[link[e] + 1] - 1.  Chunks run in outer
    order and end only between outer entries, so an entry whose row alone
    exceeds the budget is a chunk of its own.  A contraction
    sum_k X[.., k] Y[k, ..] over the nonzeros joins X's entries, linked by
    k, with Y's rows; the caller multiplies the paired values, in a dtype
    chosen by `_dtype`, and adds them up by key."""
    first, last = ptr[link[lo:hi]], ptr[link[lo:hi] + 1]
    counts = last - first
    ends = counts.cumsum()  # pairs of the outer entries up to each one
    start = 0
    while start < len(ends):
        done = ends[start] - counts[start]  # pairs before this chunk
        stop = max(start + 1, int(ends.searchsorted(done + budget, side="right")))
        outer, inner = ranges(first[start:stop], last[start:stop])
        yield outer + lo + start, inner
        start = stop


def ranges(lo, hi):
    """The pairs (q, e) with lo[q] <= e < hi[q], in order, as two arrays."""
    n = hi - lo
    q = np.repeat(np.arange(len(n)), n)
    return q, np.repeat(lo - np.cumsum(n) + n, n) + np.arange(len(q))


def sum_by_key(keys, values, moduli):
    """The sorted distinct keys whose values sum to nonzero, and the sums:
    key k sums mod moduli[k % len(moduli)], the modulus of its last
    coordinate."""
    order = np.argsort(keys, kind="stable")  # callers pass sorted runs
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    keys = keys[first]
    sums = np.add.reduceat(values[order], first) % moduli[keys % len(moduli)] if keys.size else values
    keep = np.flatnonzero(sums)
    return keys[keep], sums[keep]


def power(mul, X, e):
    """The e-th power (e >= 1) of X under an associative product `mul`, of
    rows or of matrices, by binary powering: at most 2 log2(e) products."""
    result, square = None, X
    while True:
        if e & 1:
            result = square if result is None else mul(result, square)
        e >>= 1
        if not e:
            return result
        square = mul(square, square)


def _residues(mat, N):
    """A new C-ordered array of the residues of the 2d `mat` mod N."""
    A = np.remainder(np.asarray(mat, dtype=_dtype(N)), N, order="C")
    if A.ndim != 2:
        raise LinalgError("expected a 2d array")
    return A


def _echelon(A, N):
    """Saturated echelon rows of the residues A mod N (a C-ordered array
    it overwrites), one per pivot, each pivot a divisor of N: the forward
    pass described above."""
    r, end = 0, len(A)  # rows [r, end) are still to be reduced
    for c in range(A.shape[1]):
        if r == end:
            break
        nz = r + A[r:end, c].nonzero()[0]
        if not nz.size:
            continue
        i = nz[0]
        a = int(A[i, c])
        g = math.gcd(a, N)
        if g > 1:
            i = nz[np.argmin(np.gcd(A[nz, c], N))]
            a = int(A[i, c])
            g = math.gcd(a, N)
        pivot = A[i] * _unit_lift(a, N) % N
        rest = nz[nz != i]
        while rest.size:
            block = A[rest, c:]
            A[rest, c:] = (block - block[:, :1] // g * pivot[c:]) % N
            if g == 1:
                break
            # fold a row the pivot does not divide into it: gcd(g, b) < g
            rest = rest[A[rest, c] != 0]
            if not rest.size:
                break
            j, rest = rest[0], rest[1:]
            b = int(A[j, c])
            d, s, t = _xgcd(g, b)
            pivot, A[j] = (
                (s % N * pivot % N + t % N * A[j] % N) % N,
                ((N - b // d) * pivot % N + g // d * A[j] % N) % N,
            )
            g = d
        A[i] = A[r]
        A[r] = pivot
        if g > 1:
            ann = pivot * (N // g) % N
            if ann.any():
                if end == len(A):
                    A = np.concatenate([A, np.zeros_like(A)])
                A[end] = ann
                end += 1
        r += 1
    return A[:r]


def _leads(E):
    """Pivot column of each row of an echelon form."""
    return (E != 0).argmax(axis=1) if len(E) else ()


def _order(E, N):
    """Order of the row span of saturated echelon rows over Z/N."""
    return math.prod(N // int(E[k, c]) for k, c in enumerate(_leads(E)))


def _reduce(v, E, N):
    """v reduced by saturated echelon rows E, row by row, to below each
    pivot: zero iff v is in their span, since a nonzero remainder at a
    pivot column is never cleared by the later rows."""
    for row, c in zip(E, _leads(E)):
        q = v[c] // row[c]
        if q:
            v = (v - q * row) % N
    return v


def howell(mat, N):
    """Howell normal form of the rows of `mat` over Z/N.

    Returns an array with zero rows pruned, rows ordered by pivot column,
    each pivot the gcd-normalized leading entry, and entries above a pivot
    reduced below it.  The row span (including the multiples contributed by
    zero divisors, via annihilator rows) is preserved exactly.
    """
    E = _echelon(_residues(mat, N), N)
    for k, c in enumerate(_leads(E)):
        if k:
            E[:k, c:] = (E[:k, c:] - (E[:k, c] // E[k, c])[:, None] * E[k, c:]) % N
    return E


def rank_mod_p(mat, p):
    """Rank over the field F_p: the number of pivots of the forward pass."""
    return len(_echelon(_residues(mat, p), p))


def _kernel_form(A, N):
    """Howell form of [A^T | I] over Z/N for an m x n matrix A.

    Each of its rows [a | x] has A x = a.  Returns the rows with a != 0,
    which solve A x = b by reduction, and the x of the rest, which generate
    the kernel."""
    A = np.asarray(A, dtype=_dtype(N))
    m, n = A.shape
    E = howell(np.concatenate([A.T, np.eye(n, dtype=A.dtype)], axis=1), N)
    k = int((E[:, :m] != 0).any(axis=1).sum())
    return E[:k], E[k:, m:]


def _solve(rows, b, N):
    """One x with A x = b from the solving rows of `_kernel_form`."""
    m = len(b)
    v = _reduce(np.concatenate([b, np.zeros(rows.shape[1] - m, dtype=rows.dtype)]), rows, N)
    if v[:m].any():
        raise NoSolution("right-hand side is not in the column span")
    return -v[m:] % N


def kernel_mod(A, N):
    """Generators of the right kernel {x : A x = 0} over Z/N, as rows."""
    return _kernel_form(A, N)[1]


@lru_cache(maxsize=256)
def _embedding(moduli, L):
    """For `_embed`: the moduli N_j as a read-only array, the scales L/N_j
    (None when every N_j is L), and the least N_j."""
    arr = np.asarray(moduli, dtype=_dtype(L))
    scale = None if all(m == L for m in moduli) else L // arr
    for shared in (arr, scale):
        if shared is not None:
            shared.setflags(write=False)
    return arr, scale, min(moduli, default=L)


def _embed(x, moduli, L):
    """Rows of x in prod Z/N_j, scaled into (Z/L)^n by x_j -> (L/N_j) x_j,
    as a new C-ordered array.  Input already reduced (every entry in
    [0, min N_j)) skips the remainder, and moduli all equal to L skip the
    scaling."""
    moduli, scale, least = _embedding(tuple(moduli), L)
    x = np.array(x, dtype=moduli.dtype, order="C")
    if x.size and (x.min() < 0 or x.max() >= least):
        np.remainder(x, moduli, out=x)
    if scale is not None:
        x *= scale
    return x


class Subgroup:
    """Subgroup of prod_j Z/N_j, canonically represented.

    Internally the group is embedded into (Z/L)^n by scaling coordinate j
    with L/N_j and stored as the Howell form of the embedded generators, so
    equality of subgroups is equality of arrays.
    """

    def __init__(self, gens, moduli):
        self.moduli = tuple(int(m) for m in moduli)
        self.L = math.lcm(*self.moduli) if self.moduli else 1
        gens = np.reshape(gens, (-1, len(self.moduli)))
        self.H = howell(_embed(gens, self.moduli, self.L), self.L)
        self.H.setflags(write=False)  # memoized subgroups are shared

    @property
    def order(self):
        return _order(self.H, self.L)

    def contains(self, vec):
        return not _reduce(_embed(vec, self.moduli, self.L), self.H, self.L).any()

    def generators(self):
        """Generators back in natural (unscaled) coordinates, as rows."""
        moduli = np.asarray(self.moduli, dtype=self.H.dtype)
        return self.H // (self.L // moduli) % moduli

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.moduli == other.moduli
            and np.array_equal(self.H, other.H)
        )

    def __hash__(self):
        return hash((self.moduli, tuple(self.H.ravel().tolist())))

    def intersection(self, other):
        """Intersection, via the kernel of (x, y) -> x G1 - y G2."""
        if self.moduli != other.moduli:
            raise LinalgError("subgroups of different ambient groups")
        G1 = self.generators()
        G2 = other.generators()
        # columns are combos
        A = _embed(np.concatenate([G1, -G2], axis=0), self.moduli, self.L).T
        combos = kernel_mod(A, self.L)[:, : len(G1)]
        moduli = np.asarray(self.moduli, dtype=G1.dtype)
        return Subgroup(einsum_mod("ij,jk->ik", combos, G1, moduli=moduli, N=self.L), self.moduli)

    def __repr__(self):
        return f"Subgroup(order={self.order}, moduli={self.moduli})"


def check_well_defined(H, src_moduli, tgt_moduli):
    """Whether N_j H[i][j] = 0 mod M_i for every entry, decided as
    H[i][j] = 0 mod M_i / gcd(N_j, M_i) so that no product is formed: one
    block of entries per pair of distinct moduli (M, N), tested only where
    that step exceeds 1.  Over one repeated modulus (Z/n, GF(q)) the step is
    1 and nothing is read."""
    H = np.asarray(H)
    if H.shape != (len(tgt_moduli), len(src_moduli)):
        raise IllFormedMap("matrix shape does not match the moduli vectors")
    src, tgt = np.asarray(src_moduli), np.asarray(tgt_moduli)
    for M in set(tgt_moduli):
        for N in set(src_moduli):
            step = int(M) // math.gcd(int(M), int(N))
            if step > 1 and np.any(H[np.ix_(tgt == M, src == N)] % step):
                return False
    return True


def _columns_over_lcm(H, src_moduli, tgt_moduli):
    """The columns of a well-defined map H, the images of the generators,
    as rows over Z/L for L the lcm of all moduli, and L.  Raises
    IllFormedMap if H is not well-defined."""
    if not check_well_defined(H, src_moduli, tgt_moduli):
        raise IllFormedMap("N_j * H[i][j] != 0 mod M_i for some entry")
    L = math.lcm(*(int(m) for m in (*src_moduli, *tgt_moduli)))
    return _embed(np.asarray(H).T, tgt_moduli, L), L


def image_order_and_kernel(H, src_moduli, tgt_moduli):
    """Order of the image and kernel (a Subgroup) of the additive map
    prod Z/N_j -> prod Z/M_i given by H, from one elimination.

    Requires the map to be well-defined (N_j H[i][j] = 0 mod M_i); raises
    IllFormedMap otherwise.  The solving rows of `_kernel_form`, cut to
    the target's columns, are saturated echelon rows of the image (the rows
    below them span the vectors of the form that vanish there), so their
    pivots give its order.
    """
    cols, L = _columns_over_lcm(H, src_moduli, tgt_moduli)
    rows, kernel = _kernel_form(cols.T, L)
    return _order(rows, L), Subgroup(kernel, src_moduli)


def kernel_additive(H, src_moduli, tgt_moduli):
    """Kernel of the additive map given by H, as a Subgroup; see
    `image_order_and_kernel`."""
    return image_order_and_kernel(H, src_moduli, tgt_moduli)[1]


def image_order(H, src_moduli, tgt_moduli):
    """Order of the image of the well-defined additive map given by H: the
    order of the span of its columns over Z/L, read off the forward pass,
    with no back-reduction.  Raises IllFormedMap if H is not well-defined."""
    cols, L = _columns_over_lcm(H, src_moduli, tgt_moduli)
    return _order(_echelon(cols, L), L)


def is_bijective_additive(H, src_moduli, tgt_moduli):
    """Decide bijectivity of a well-defined map of finite abelian groups:
    source and target have the same order, and the image (`image_order`)
    is the whole target."""
    order = math.prod(int(m) for m in tgt_moduli)
    return image_order(H, src_moduli, tgt_moduli) == order == math.prod(int(m) for m in src_moduli)


def solve_additive(H, b, src_moduli, tgt_moduli):
    """One solution x of H x = b over the coordinate moduli, plus the kernel.

    A (T, m) block of right-hand sides b gets the (T, n) block of
    solutions, row by row from one elimination.  Raises NoSolution when a
    right-hand side is not in the image.
    """
    cols, L = _columns_over_lcm(H, src_moduli, tgt_moduli)
    rows, kernel = _kernel_form(cols.T, L)
    B = _embed(b, tgt_moduli, L)
    x = np.stack([_solve(rows, v, L) for v in B.reshape(-1, B.shape[-1])])
    x = x % np.asarray(src_moduli, dtype=x.dtype)
    return x.reshape(*B.shape[:-1], -1), Subgroup(kernel, src_moduli)

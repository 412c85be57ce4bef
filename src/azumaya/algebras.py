"""Structure-constant algebras over finite commutative rings.

An algebra is a free module R^d with an R-bilinear product, stored as the
nonzero entries of its integer structure tensor plus the flat unit
`unit_flat`, over flat coordinates (rank d times the base ring's coordinate
length f) with a modulus per coordinate; the product is Z-bilinear on them.
Element products go through one sparse kernel over the nonzero entries
(`Algebra.mul_batch`) and multiplication matrices through one scatter
(`Algebra.mul_matrices`), so centers, commutants, radicals and the
enveloping map are kernel / bijectivity computations over the coordinate
moduli.  The tensor's contractions with itself are one sparse join
(`linalg.sparse_join`): the associativity check, (e_a e_s) e_c against
e_a (e_s e_c), and the enveloping map's triple products (eps_a e_t) e_j;
the hom check joins the same entries (`rings.hom_refutation`).  An algebra
also carries the rows that generate it as a ring (`Algebra.generators`):
2(n - 1) + f - 1 for M_n(R) (2(n - 1) + f over a product base), x and y
for a Weyl quotient, its factors' for a tensor product or an opposite,
their images and b_s 1 for a base change, and the D identity rows
otherwise.  The hom check and `center` run on them, |S| D products and an
|S| D x D commutator matrix rather than D^2 and D^2 x D.  `matrix_algebra`
and `weyl_quotient` also derive every coordinate from their generators,
so every build of theirs is checked by Light's test on the generators'
support alone (`Algebra._verify_axioms`), and memoized; the derived
constructors `opposite`, `tensor_product` and `base_change` inherit their
inputs' axioms and generators unchecked.  Searches over tuples or
subsets stop at the first hit through `first_hit`, in batches sized by the
one rule `search_rows`; a seeded tuple is a row of `random_rows`, a
counter-based hash of the seed and its entries' positions.

Every constructor emits the nonzero structure constants as entries, and no
dense table is formed: matrix and upper-triangular algebras E_ij E_jl = E_il,
the Weyl quotients their normal-ordering terms, `opposite` the entries
with their first two indices swapped, and tensor products and base changes
the ring-level entries of their factors (`_ring_entries`), multiplied out
over the base ring; structure constants given over the base ring (configs)
go through `flat_entries` as the constructors' do.

`is_azumaya` decides the rank first: a rank that is not a square fails at
once.  A pass is decided by a certificate when it can be: `splitting`
returns the matrix of an isomorphism A -> M_n(R), the identity unchecked
when A equals M_n(R), otherwise one searched inside A over any finite base
(idempotents of A/pA split by Berlekamp and Cantor-Zassenhaus, lifted and
joined by the CRT) that passes the one hom check and the one bijectivity
check.  On a miss each fiber A (x) R/m is decided by its center, then its
radical (Cohen-Ivanyos-Wales, `_radical`): D-vectors, and no enveloping
map.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache, partial

import numpy as np

from . import linalg
from .rings import BaseRingHom, ProductRing, ZMod, factorize
from .reports import CheckReport


class AlgebraError(Exception):
    pass


class BaseMismatch(AlgebraError):
    pass


class NotNilpotentWithinCap(AlgebraError):
    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"no vanishing power found up to the cap {cap}")


class Algebra:
    """Finite free algebra over a base ring, stored as the nonzero entries of
    its integer structure tensor S.

    With f the base ring's coordinate length and d >= 1 the rank, the flat
    coordinates number dim = d * f, coordinate (i, s) standing for b_s e_i
    (b_s the ring's s-th coordinate generator).  S[a, b, :] holds the flat
    coordinates of the product of coordinates a and b, and `unit_flat`
    those of 1, reduced mod the per-coordinate moduli.  The constructor
    takes S as entries ((I, J, K), V): flat indices in [0, dim) and int64
    values, in any order.  It sums repeats exactly, reduces each sum mod
    its output coordinate's modulus and keeps the nonzero ones in row-major
    order (`_sparse_rows`); `_sparse_struct` sorts them by output
    coordinate, and the view `struct` rebuilds S, read-only, on each read.
    Every array the algebra holds is read-only, so a memoized build can be
    shared.  `generators` are rows of flat coordinates whose products and
    sums, with 1, give every element: the identity rows unless a
    constructor passes fewer.  A constructor that passes them with
    `derivation` proves that they generate (`_underived`); only the derived
    constructors (`opposite`, `tensor_product`, `base_change`) pass them
    unproved, with `check` False.
    Unless `check` is False the two-sided unit law and associativity are
    verified (`_verify_axioms`), which refuses the first failing basis
    triple in lexicographic order, else the unit.
    """

    def __init__(self, base, entries, unit_flat, label="", check=True, generators=None, derivation=None):
        self.base = base
        self.label = label
        if generators is not None:
            generators = np.asarray(generators, dtype=np.int64)
            generators.setflags(write=False)
        self._generators = generators
        f = base.flatten_len
        self.dim = D = len(unit_flat)  # flattened Z-coordinate count
        self.rank = D // f
        self.moduli = tuple(base.moduli) * self.rank
        self._moduli_arr = np.asarray(self.moduli, dtype=np.int64)
        self._N = base._N  # every coordinate is a residue below it
        self._sum_dtype = linalg._dtype(self._N, 2, 1)  # of a sum of two residues
        if not D:
            raise AlgebraError("an algebra needs rank >= 1")
        I, J, K = IJK = np.asarray(entries[0], dtype=np.int64).reshape(3, -1)
        if D % f or (IJK.view(np.uint64) >= D).any():  # a negative index wraps above D
            raise AlgebraError(f"structure constants do not fit {D} flat coordinates over {base!r}")
        # repeats of an entry summed exactly, mod the modulus of its output
        # coordinate, in row-major order; zeros dropped
        keys, at = np.unique((I * D + J) * D + K, return_inverse=True)
        sums = np.zeros(len(keys), dtype=linalg._dtype(self._N, len(at), 1))
        np.add.at(sums, at, (np.asarray(entries[1], dtype=np.int64) % self._moduli_arr[K]).astype(sums.dtype))
        sums %= self._moduli_arr[keys % D]
        keep = np.flatnonzero(sums)
        index = np.unravel_index(keys[keep], (D,) * 3)
        self._sparse_rows = index, sums[keep].astype(np.int64), np.searchsorted(index[0], np.arange(D + 1))
        self.unit_flat = np.asarray(unit_flat, dtype=np.int64) % self._moduli_arr
        for a in (*index, *self._sparse_rows[1:], self.unit_flat, self._moduli_arr):
            a.setflags(write=False)
        if check:
            self._verify_axioms(derivation)

    @property
    def struct(self):
        """The dense structure tensor, rebuilt read-only on each read; no
        library code reads it."""
        index, values, _ = self._sparse_rows
        S = np.zeros((self.dim,) * 3, dtype=np.int64)
        S[index] = values
        S.setflags(write=False)
        return S

    def _verify_axioms(self, derivation=None):
        """Refuse the tensor unless `unit_flat` is a two-sided unit and it is
        associative: the first failing triple in lexicographic order, else
        the unit, else the derivation.

        With no `derivation` every triple of coordinates is checked.  With
        one that proves the generators generate (`_underived`), the check
        is on the triples (x, s, y), x and y coordinates and s in the
        generators' support.  That is complete (Light's associativity test;
        Clifford and Preston, The Algebraic Theory of Semigroups I, 1961):
        the t with [x, t, y] = (x t) y - x (t y) = 0 for all coordinates x, y
        form an additive subgroup T holding 1 and the generators, and
        [w t, t', z] - [w, t t', z] + [w, t, t' z] = w [t, t', z] + [w, t, t'] z,
        an identity of every nonassociative ring, puts t t' in T whenever t
        and t' are; so T is a subring, all of A.  A build that fails any
        part is scanned again with every middle, so it names what the full
        check names."""
        D, unit = self.dim, self._is_unit()
        underived = self._underived(derivation) if derivation is not None and unit else None
        every = np.arange(D)
        middles = every if derivation is None else np.flatnonzero(self.generators.any(axis=0))
        triple = self._first_unassociative(middles) if unit and underived is None else None
        if unit and underived is None and triple is None:
            return
        if triple is None or len(middles) < D:
            triple = self._first_unassociative(every)
        if triple is not None:
            raise AlgebraError(f"associativity fails on basis triple {triple}")
        raise AlgebraError("unit vector is not a two-sided unit" if not unit else underived)

    def _is_unit(self):
        """Whether `unit_flat` u is a two-sided unit: u e_j = e_j u = e_j for
        every coordinate j.  The terms u_i S[i, j, :] and u_i S[j, i, :] of
        u's nonzeros, less the identity rows, must sum to 0
        (`linalg.sum_by_key`), keyed (j, k) on the left and D^2 + (j, k) on
        the right."""
        D, u = self.dim, self.unit_flat
        (I, J, K), V, _ = self._sparse_rows
        V = V.astype(linalg._dtype(self._N, D + 1, 2))  # a coordinate sums at most D products
        left, right, ones = np.flatnonzero(u[I]), np.flatnonzero(u[J]), np.arange(D) * (D + 1)
        keys = [J[left] * D + K[left], D * D + I[right] * D + K[right], ones, D * D + ones]
        values = [u[I[left]] * V[left], u[J[right]] * V[right], np.full(2 * D, -1, dtype=V.dtype)]
        return not linalg.sum_by_key(np.concatenate(keys), np.concatenate(values), self._moduli_arr)[0].size

    def _underived(self, derivation):
        """None when `derivation` derives every coordinate from 1 and the
        generators, else what fails; the unit law is assumed.

        Step (c, p, g, left) records e_c = e_p x, or x e_p when left is 1,
        for x generator g; p = -1 and g = -1 stand for 1.  Each coordinate
        is the child of one step and each parent that of an earlier one, so
        by induction every coordinate lies in the subring that 1 and the
        generators generate.  The products join x's nonzeros x_i with the
        entries (p, i, .) or (i, p, .) of S, and each step's row less its
        child's identity row must sum to 0 (`linalg.sum_by_key`)."""
        D, G = self.dim, np.vstack([self.generators, self.unit_flat])  # generator -1 is 1
        child, parent, gen, left = np.asarray(derivation, dtype=np.int64).reshape(-1, 4).T
        if not np.array_equal(np.sort(child), np.arange(D)):
            return "the derivation does not record each coordinate once"
        if ((parent < -1) | (parent >= D) | (gen < -1) | (gen >= len(G) - 1)).any():
            return "the derivation names a parent or a generator that does not exist"
        place = np.empty(D, dtype=np.int64)
        place[child] = np.arange(D)
        if (place[parent[parent >= 0]] >= place[child[parent >= 0]]).any():
            return "the derivation records a parent after its child"
        (I, J, K), V, _ = self._sparse_rows
        V = V.astype(linalg._dtype(self._N, D + 1, 2))  # a coordinate sums at most D products
        rows, cols = np.nonzero(G)
        gptr = np.searchsorted(rows, np.arange(len(G) + 1))
        t, n = linalg.ranges(gptr[gen % len(G)], gptr[gen % len(G) + 1])  # step t meets x's nonzero n
        i, x = cols[n], G[rows[n], cols[n]].astype(V.dtype)
        one = parent[t] < 0  # 1 x = x
        keys, values = [t[one] * D + i[one], np.arange(D) * D + child], [x[one], np.full(D, -1, dtype=V.dtype)]
        t, i, x = t[~one], i[~one], x[~one]
        pair, row_major = np.where(left[t] == 1, i * D + parent[t], parent[t] * D + i), I * D + J
        q, e = linalg.ranges(np.searchsorted(row_major, pair), np.searchsorted(row_major, pair, side="right"))
        keys.append(t[q] * D + K[e])
        values.append(x[q] * V[e])
        bad = linalg.sum_by_key(np.concatenate(keys), np.concatenate(values), self._moduli_arr)[0]
        if bad.size:
            return f"coordinate row {int(child[bad[0] // D])} is not the product its derivation records"
        return None

    # products per piece of the associativity check, whose arrays follow them
    _PIECE = 1 << 17

    def _first_unassociative(self, middles):
        """The first triple (a, s, c) in lexicographic order, s in the sorted
        array `middles`, with (e_a e_s) e_c != e_a (e_s e_c), or None.

        The left side joins the entries (a, s, k) with row k, the right the
        entries (a, k, m) with the products (s, c) landing on k
        (`linalg.sparse_join`).  Left minus right is summed per key
        (a, s, c, m) over blocks of first factors, in pieces of at most
        _PIECE products (`linalg.sum_by_key`), so memory follows the
        products, not the |middles| D^2 keys of a first factor."""
        mod, D, g = self._moduli_arr, self.dim, len(middles)
        (I, J, K), V, ptr = self._sparse_rows
        place = np.full(D, -1, dtype=np.int64)
        place[middles] = np.arange(g)
        left = np.flatnonzero(place[J] >= 0)  # the entries (a, s, k)
        land = np.flatnonzero(place[I] >= 0)  # the products (s, c) landing on k, by k
        land = land[np.argsort(K[land], kind="stable")]
        lptr, kptr = np.searchsorted(I[left], np.arange(D + 1)), np.searchsorted(K[land], np.arange(D + 1))
        # a key is a residue plus at most D left or D right products
        dtype = linalg._dtype(self._N, 2 * D + 1, 2)
        V = V.astype(dtype)
        # the parts of a key each side reads off its entries: (a, s | c, m), (a, m | s, c)
        link, lkey, row = K[left], (I[left] * g + place[J[left]]) * D * D, J * D + K
        rkey, landed = I * g * D * D + K, (place[I[land]] * D + J[land]) * D
        per = np.bincount(I[left], np.diff(ptr)[link], D) + np.bincount(I, np.diff(kptr)[J], D)
        ends = per.cumsum()  # products up to each first factor
        a0 = 0
        while a0 < D:
            a1 = max(a0 + 1, int(ends.searchsorted(ends[a0] - per[a0] + self._PIECE, side="right")))
            keys, sums = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=dtype)
            for x, y in linalg.sparse_join(link, ptr, lptr[a0], lptr[a1], self._PIECE):
                keys, sums = linalg.sum_by_key(np.concatenate([keys, lkey[x] + row[y]]), np.concatenate([sums, V[left[x]] * V[y]]), mod)
            for x, y in linalg.sparse_join(J, kptr, ptr[a0], ptr[a1], self._PIECE):
                keys, sums = linalg.sum_by_key(np.concatenate([keys, rkey[x] + landed[y]]), np.concatenate([sums, -V[x] * V[land[y]]]), mod)
            if keys.size:
                a, s, c = np.unravel_index(keys[0] // D, (D, g, D))
                return int(a), int(middles[s]), int(c)
            a0 = a1
        return None

    # -- basic data

    @property
    def generators(self):
        """Rows that generate A as a ring (see the class docstring), read-only.
        Fewer than the identity rows are recorded only when a checked build
        proves them (`_underived`) or a derived build inherits them from
        its checked inputs, since the hom check and `center` rely on them."""
        if self._generators is None:
            return np.eye(self.dim, dtype=np.int64)
        return self._generators

    @property
    def size(self):
        return math.prod(self.moduli)

    def zero(self):
        return AlgElem(self, np.zeros(self.dim, dtype=np.int64))

    def one(self):
        return AlgElem(self, self.unit_flat)

    def element(self, flat):
        return AlgElem(self, flat)

    # -- multiplication

    # entries of a kernel temporary (nonzeros x rows), small enough for cache
    _CHUNK_ENTRIES = 1 << 16

    @cached_property
    def _sparse_struct(self):
        """The nonzero entries sorted by output coordinate k (then row-major):
        index arrays I, J and coefficients C with S[I, J, k] = C on the
        segment of k, the output coordinates that have a segment, each
        segment's start, and the dtype of the products: a sum runs over one
        segment of products of three residues (`linalg._dtype`).
        `mul_batch` sums each segment.  The arrays are read-only."""
        (I, J, K), V, _ = self._sparse_rows
        order = np.argsort(K, kind="stable")
        outs, starts = np.unique(K[order], return_index=True)
        longest = int(np.diff(starts, append=len(K)).max(initial=0))
        dtype = linalg._dtype(self._N, longest, 3)
        arrays = I[order], J[order], V[order].astype(dtype), outs, starts
        for a in arrays:
            a.setflags(write=False)
        return *arrays, dtype

    def mul_flat(self, x, y):
        return self.mul_batch(np.asarray(x)[None], np.asarray(y)[None])[0]

    def mul_batch(self, X, Y):
        """Row-wise products of two (T, dim) coordinate arrays.

        Sparse kernel: out[t, k] = sum over the nonzero S[i, j, k] of
        X[t, i] * Y[t, j] * S[i, j, k], reduced mod the moduli at the
        end.  The inputs are residues; the result is int64 residues.
        """
        I, J, C, outs, starts, dtype = self._sparse_struct
        X, Y = np.asarray(X, dtype=dtype), np.asarray(Y, dtype=dtype)
        T = X.shape[0]
        out = np.zeros((self.dim, T), dtype=dtype)
        if len(C):
            Xt, Yt, Ct = X.T, Y.T, C[:, None]
            rows = max(1, self._CHUNK_ENTRIES // len(C))
            for lo in range(0, T, rows):
                terms = Xt[I, lo : lo + rows] * Yt[J, lo : lo + rows]
                terms *= Ct
                out[outs, lo : lo + rows] = np.add.reduceat(terms, starts, axis=0)
        return (out.T % self._moduli_arr).astype(np.int64, copy=False)

    def mul_matrices(self, X, side):
        """The (T, dim, dim) residue matrices of y -> x * y (`side` "left")
        or y -> y * x ("right") for the rows x of X: [t, k, j] is (x_t e_j)_k
        or (e_j x_t)_k, by one scatter of x_i S[i, j, k] into [k, j], or of
        x_j S[i, j, k] into [k, i], over the nonzero entries."""
        (I, J, K), V, _ = self._sparse_rows
        read, col = (I, J) if side == "left" else (J, I)
        D = self.dim
        dtype = linalg._dtype(self._N, D, 2)  # an entry sums at most D products of two residues
        X = np.asarray(X, dtype=dtype)
        out = np.zeros(len(X) * D * D, dtype=dtype)
        keys = np.arange(len(X))[:, None] * (D * D) + (K * D + col)
        np.add.at(out, keys.ravel(), (X[:, read] * V.astype(dtype)).ravel())
        return (out.reshape(-1, D, D) % self._moduli_arr[:, None]).astype(np.int64, copy=False)

    def scalars_flat(self):
        """Rows b_s * 1 for the base ring's coordinate generators b_s; they
        span R*1.  Block i of row s is b_s times the unit's block i, one
        contraction with the ring's multiplication tensor."""
        base, unit = self.base, self.unit_flat.reshape(self.rank, -1)
        rows = linalg.einsum_mod("iv,svu->siu", unit, base.struct, moduli=base._moduli_arr, N=self._N)
        return rows.reshape(base.flatten_len, self.dim)

    @lru_cache(maxsize=256)
    def unit_span(self):
        """The subgroup R*1 of the flattened module, memoized by algebra
        equality like `center`."""
        return linalg.Subgroup(self.scalars_flat(), self.moduli)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Algebra)
            and self.base == other.base
            and self.rank == other.rank
            and np.array_equal(self._sparse_rows[1], other._sparse_rows[1])
            and all(map(np.array_equal, self._sparse_rows[0], other._sparse_rows[0]))
            and np.array_equal(self.unit_flat, other.unit_flat)
        )

    @cached_property
    def _hash(self):
        index, values, _ = self._sparse_rows
        return hash((self.base, self.rank, values.tobytes(), *(i.tobytes() for i in index)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        name = self.label or "Algebra"
        return f"<{name}: rank {self.rank} over {self.base!r}>"


class AlgElem:
    __slots__ = ("algebra", "flat")

    def __init__(self, algebra, flat):
        self.algebra = algebra
        self.flat = np.asarray(flat, dtype=np.int64) % algebra._moduli_arr

    def _check(self, other):
        if self.algebra != other.algebra:
            raise AlgebraError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        A = self.algebra
        return AlgElem(A, (self.flat.astype(A._sum_dtype) + other.flat) % A._moduli_arr)

    def __sub__(self, other):
        self._check(other)
        A = self.algebra
        return AlgElem(A, (self.flat.astype(A._sum_dtype) - other.flat) % A._moduli_arr)

    def __neg__(self):
        return AlgElem(self.algebra, -self.flat)

    def __mul__(self, other):
        self._check(other)
        return AlgElem(self.algebra, self.algebra.mul_flat(self.flat, other.flat))

    def is_zero(self):
        return not self.flat.any()

    def __eq__(self, other):
        return (
            isinstance(other, AlgElem)
            and self.algebra == other.algebra
            and np.array_equal(self.flat, other.flat)
        )

    def __hash__(self):
        return hash(self.flat.tobytes())

    def __repr__(self):
        return f"AlgElem({self.algebra!r}, {self.flat.tolist()})"


def product_rows(start, stop, radices):
    """Rows start..stop-1 of itertools.product(*map(range, radices)) as one
    (stop - start, len(radices)) int64 array: the mixed-radix digits of each
    index, the last digit running fastest."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((len(idx), len(radices)), dtype=np.int64)
    for c in range(len(radices) - 1, -1, -1):
        idx, out[:, c] = np.divmod(idx, radices[c])
    return out


# splitmix64's increment, the golden ratio times 2^64 (Steele, Lea and
# Flood, OOPSLA 2014)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix(z):
    """splitmix64's finalizer of a uint64 array, in place, in wrapping
    arithmetic."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


@lru_cache(maxsize=256)
def _stream(seed, radices):
    """The key and the uint64 radices of a `random_rows` stream."""
    if seed is None:
        raise AlgebraError("a seeded draw needs a seed")
    if not all(0 < r < 1 << 63 for r in radices):
        raise ValueError(f"radices must lie in [1, 2^63): {radices}")
    key = _splitmix(np.asarray([int(seed) % (1 << 64)], dtype=np.uint64))
    return key, np.asarray(radices, dtype=np.uint64)


def random_rows(seed, radices, start, stop):
    """Rows start..stop-1 of the seeded candidate stream over `radices`, as
    one (stop - start, len(radices)) int64 array.  Every radix lies in
    [1, 2^63); the seed is any integer, taken mod 2^64, and None raises
    AlgebraError.

    Entry c of row t is a counter-based hash, splitmix64's finalizer of
    key + (t m + c) * golden (m = len(radices)), taken mod radices[c].  The
    key is the finalizer of the seed: with key = seed * golden, seed s + 1
    would replay seed s shifted by one entry.  A row depends only on the
    seed, the radices and t, so batches of any size meet the same rows.  A
    remainder of a uniform 64-bit word mod r is within a factor 1.5 of
    uniform for r < 2^63, and within 1 + 2^-32 for r < 2^32."""
    key, r = _stream(seed, tuple(int(x) for x in radices))
    z = _splitmix(key + np.arange(start * len(r), stop * len(r), dtype=np.uint64) * _GOLDEN)
    return (z.reshape(stop - start, len(r)) % r).astype(np.int64)


# array entries a search may hold at once: a batch of candidates, or the
# stored tables a search is seeded from
SEARCH_ENTRIES = 1 << 20


def search_rows(entries):
    """Rows per batch of a first-hit search whose candidates each hold
    `entries` array entries while evaluated: at most 1024, and the batch
    stays below SEARCH_ENTRIES."""
    return max(1, min(1024, SEARCH_ENTRIES // entries))


def first_hit(source, entries, evaluate):
    """The first marked candidate of a search, evaluated in batches.

    `source(rows)` yields the candidates in batches of at most
    rows = search_rows(entries) (`entries` per candidate), and
    `evaluate(X)` returns the values of a batch and the mask of its marked
    rows.  Returns the first marked row, its value and its 1-based position
    in the source's order, or (None, None, n) when none of the n
    candidates is marked."""
    seen = 0
    for X in source(search_rows(entries)):
        values, marked = evaluate(X)
        hits = np.flatnonzero(marked)
        if hits.size:
            t = int(hits[0])
            return X[t], values[t], seen + t + 1
        seen += len(X)
    return None, None, seen


# ---------------------------------------------------------------------------
# constructors


def flat_entries(base, index, values):
    """The entries of an algebra's flat structure constants from those over
    its base ring: row n of `values` (or its one row, for every n) holds the
    ring coordinates of r, the e_k-coefficient of e_i * e_j, for
    (i, j, k) = index[:, n].  The entry ((i, s), (j, t), (k, u)) is
    ((b_s b_t) r)_u: one contraction of the rows with the ring's triple
    products ((b_s b_t) b_w)_u, of which the nonzeros are kept."""
    f, N, moduli, M = base.flatten_len, base._N, base._moduli_arr, base.struct
    triple = linalg.einsum_mod("stv,vwu->wstu", M, M, moduli=moduli, N=N)
    values = np.asarray(values, dtype=np.int64).reshape(-1, f) % moduli
    products = linalg.einsum_mod("nw,wstu->nstu", values, triple, moduli=moduli, N=N)
    products = np.broadcast_to(products, (len(index[0]),) + (f,) * 3)
    n, s, t, u = np.nonzero(products)
    i, j, k = (np.asarray(x, dtype=np.int64)[n] * f for x in index)
    return (i + s, j + t, k + u), products[n, s, t, u]


def _ring_entries(A):
    """A's structure constants over its base ring, as `flat_entries` takes
    them, read off the nonzero entries of S: with c the coordinates of the
    ring's 1, e_i * e_j = sum_(s, t) c_s c_t S[(i, s), (j, t), :]."""
    (I, J, K), V, _ = A._sparse_rows
    f, d, c = A.base.flatten_len, A.rank, A.base.unit_flat
    (i, s), (j, t), (k, u) = np.divmod(I, f), np.divmod(J, f), np.divmod(K, f)
    dtype = linalg._dtype(A._N, f * f, 3)  # a coordinate sums f^2 products of three residues
    keys, at = np.unique((i * d + j) * d + k, return_inverse=True)
    values = np.zeros((len(keys), f), dtype=dtype)
    np.add.at(values, (at, u), c[s].astype(dtype) * c[t] * V)
    return np.unravel_index(keys, (d,) * 3), (values % A.base._moduli_arr).astype(np.int64)


def _scalar_generators(ring):
    """The b_s a generating set names beside 1: all but the first with
    coefficient 1 in 1, which is 1 less the others' multiples."""
    first = ring.unit_flat.tolist().index(1)
    return [s for s in range(ring.flatten_len) if s != first]


def _matrix_generators(ring, n):
    """The rows that generate M_n(R), n >= 2, and the derivation
    (`Algebra._underived`) of every coordinate from them.

    The rows are E_(i,i+1) and E_(i+1,i), then b_s E_11 for each
    coordinate generator b_s but 1 (for every b_s over a product base,
    where 1 is no coordinate generator).  b_s E_11 is 1 times its row, or
    E_12 E_21 when b_s is 1, with E_21 = 1 E_21 first; then
    b_s E_(i+1,1) = E_(i+1,i) (b_s E_i1) down the first column, and
    b_s E_(i,j+1) = (b_s E_ij) E_(j,j+1) along each row."""
    f, unit = ring.flatten_len, ring.unit_flat
    one = int(np.flatnonzero(unit)[0]) if np.count_nonzero(unit) == 1 else None  # 1 = b_one
    scalars = [s for s in range(f) if s != one]
    blocks = [e for i in range(n - 1) for e in (i * n + i + 1, (i + 1) * n + i)]
    rows = np.zeros((len(blocks) + len(scalars), n * n, f), dtype=np.int64)
    rows[np.arange(len(blocks)), blocks] = unit
    rows[len(blocks) + np.arange(len(scalars)), 0, scalars] = 1
    steps = []  # (child, parent, generator, left); generator 2i is E_(i,i+1), 2i + 1 is E_(i+1,i)
    for s in range(f):
        at = np.arange(n * n).reshape(n, n) * f + s
        if s == one:
            steps += [(at[1, 0], -1, 1, 0), (at[0, 0], at[1, 0], 0, 1)]
        else:
            steps.append((at[0, 0], -1, len(blocks) + scalars.index(s), 0))
        steps += [(at[i, 0], at[i - 1, 0], 2 * i - 1, 1) for i in range(2 if s == one else 1, n)]
        steps += [(at[i, j], at[i, j - 1], 2 * j - 2, 0) for i in range(n) for j in range(1, n)]
    return rows.reshape(len(rows), -1), np.asarray(steps, dtype=np.int64)


def matrix_algebra(ring, n, check=True):
    """The algebra of n x n matrices, basis E_ij ordered row-major.

    For n >= 2 it records the generators of `_matrix_generators` and
    derives every coordinate from them, so the check runs on their support
    (`Algebra._verify_axioms`); M_1 keeps the identity rows and the full
    check.  Every build is checked and memoized by its arguments (256
    builds; `matrix_algebra.cache_clear` empties the memo), so equal
    arguments return one object, whose arrays are read-only.  `check` is
    unread: it stays for callers that still pass it."""
    return _matrix_algebra(ring, n)


@lru_cache(maxsize=256)
def _matrix_algebra(ring, n):
    if n < 1:
        raise AlgebraError("matrix size must be >= 1")
    i, j, l = np.unravel_index(np.arange(n**3), (n,) * 3)
    entries = flat_entries(ring, (i * n + j, j * n + l, i * n + l), ring.unit_flat)  # E_ij E_jl = E_il
    unit = np.outer(np.eye(n, dtype=np.int64), ring.unit_flat).ravel()
    generators, derivation = _matrix_generators(ring, n) if n > 1 else (None, None)
    return Algebra(ring, entries, unit, label=f"M_{n}({ring!r})", generators=generators, derivation=derivation)


matrix_algebra.cache_clear = _matrix_algebra.cache_clear


def upper_triangular_algebra(ring, n):
    """Upper-triangular n x n matrices; not Azumaya for n >= 2 (the strictly
    upper-triangular matrices form a proper two-sided ideal)."""
    pos = {p: a for a, p in enumerate((i, j) for i in range(n) for j in range(i, n))}
    index = [(pos[i, j], pos[j, l], pos[i, l]) for i, j, l in itertools.combinations_with_replacement(range(n), 3)]
    entries = flat_entries(ring, np.reshape(index, (-1, 3)).T, ring.unit_flat)
    unit = np.outer([i == j for i, j in pos], ring.unit_flat).ravel()
    return Algebra(ring, entries, unit, label=f"UT_{n}({ring!r})")


@lru_cache(maxsize=None)
def _y_times_x_pow(c):
    """Normal form of y x^c as {(xexp, yexp): integer coeff}, from the single
    rewriting rule y x = x y + 1 (exact integers, reduced mod p later)."""
    if c == 0:
        return {(0, 1): 1}
    prev = _y_times_x_pow(c - 1)
    out = {}
    for (a, b), coeff in prev.items():
        out[(a + 1, b)] = out.get((a + 1, b), 0) + coeff
    out[(c - 1, 0)] = out.get((c - 1, 0), 0) + 1
    return out


def _normal_order(j, k):
    """Normal form of y^j x^k as {(xexp, yexp): coeff} over Z."""
    cur = {(k, 0): 1}
    for _ in range(j):
        nxt = {}
        for (a, b), coeff in cur.items():
            for (a2, b2), c2 in _y_times_x_pow(a).items():
                key = (a2, b2 + b)
                nxt[key] = nxt.get(key, 0) + coeff * c2
        cur = nxt
    return cur


@lru_cache(maxsize=256)
def weyl_quotient(p, a, b):
    """Rank-p^2 algebra over F_p with basis x^i y^j (0 <= i, j < p) and
    relations y x = x y + 1, x^p = a, y^p = b.

    Structure constants come from memoized normal-ordering rewriting; the
    closed-form commutation formula is used only as a test oracle.  It
    records the generators x and y and derives every coordinate from them
    (`_weyl_generators`), so the check runs on the middles x and y
    (`Algebra._verify_axioms`).  Every build is checked and memoized by its
    arguments, like `matrix_algebra`.
    """
    ring = ZMod(p)
    a %= p
    b %= p
    # x^i y^j * x^k y^l = x^i (y^j x^k) y^l, one term per (i, l) and term of
    # y^j x^k; repeats are summed by `Algebra`
    i, l = np.divmod(np.arange(p * p), p)
    terms = []
    for j in range(p):
        for k in range(p):
            for (c, e), coeff in _normal_order(j, k).items():
                # fold exponents >= p into the scalars a, b
                qx, rx = np.divmod(i + c, p)
                qy, ry = np.divmod(e + l, p)
                terms.append((i * p + j, k * p + l, rx * p + ry, coeff % p * a**qx * b**qy))
    I, J, K, V = map(np.concatenate, zip(*terms))
    unit = np.eye(1, p * p, dtype=np.int64)[0]
    xy, derivation = _weyl_generators(p)
    return Algebra(ring, ((I, J, K), V), unit, label=f"W({p},{a},{b})", generators=xy, derivation=derivation)


def _weyl_generators(p):
    """The rows x = x^1 y^0 and y = x^0 y^1 of a Weyl quotient, and the
    derivation (`Algebra._underived`) of every coordinate from them, all
    right products: 1 = 1 1, x^i = x^(i-1) x and x^i y^j = x^i y^(j-1) y."""
    c = np.arange(p * p)
    steps = np.stack([c, np.where(c % p, c - 1, c - p), np.where(c % p, 1, 0), 0 * c], axis=1)
    steps[0, 1:3] = -1
    return np.eye(p * p, dtype=np.int64)[[p, 1]], steps


def opposite(A):
    """Same module, reversed multiplication.  A's generators generate it:
    a subset closed under every product of A is closed under the reversed
    ones.  A derived build, it is not checked: its associativity is A's
    read backwards and its unit A's, so its axioms and generators follow
    from those of the checked A."""
    (I, J, K), V, _ = A._sparse_rows
    return Algebra(A.base, ((J, I, K), V), A.unit_flat, label=f"op({A.label})", check=False, generators=A._generators)


def tensor_product(A, B):
    """A tensor B over the common base; basis e_i (x) f_j ordered with the
    A-index major.  It records the generators s (x) 1 and 1 (x) t, for s
    and t those of A and B: a (x) b = (a (x) 1)(1 (x) b).  A derived build,
    it is not checked: A (x) B is associative with unit 1 (x) 1 when A and B
    are, so its axioms and generators follow from those of A and B."""
    if A.base != B.base:
        raise BaseMismatch("tensor factors must share the base ring")
    f, M, moduli, dB = A.base.flatten_len, A.base.struct, A.base._moduli_arr, B.rank
    # (e_i1 f_j1)(e_i2 f_j2) = sum (e_i1 e_i2)_k (f_j1 f_j2)_l e_k f_l, one
    # ring product per pair of A's and B's ring-level entries
    (a1, a2, k), x = _ring_entries(A)
    (b1, b2, l), y = _ring_entries(B)
    values = linalg.einsum_mod("nv,mw,vwu->nmu", x, y, M, moduli=moduli, N=A._N)
    index = [(r[:, None] * dB + c).ravel() for r, c in ((a1, b1), (a2, b2), (k, l))]
    # the rows x (x) y of the unit 1 (x) 1, then of the generators s (x) 1 and
    # 1 (x) t: (b_v e_k) (x) (b_w f_l) = (b_v b_w) e_k (x) f_l
    SA, SB, uA, uB = A.generators, B.generators, A.unit_flat[None], B.unit_flat[None]
    X = np.concatenate([uA, SA, np.repeat(uA, len(SB), axis=0)]).reshape(-1, A.rank, f)
    Y = np.concatenate([uB, np.repeat(uB, len(SA), axis=0), SB]).reshape(-1, dB, f)
    rows = linalg.einsum_mod("tkv,tlw,vwu->tklu", X, Y, M, moduli=moduli, N=A._N).reshape(len(X), -1)
    entries, label = flat_entries(A.base, index, values), f"{A.label}(x){B.label}"
    return Algebra(A.base, entries, rows[0], label=label, check=False, generators=rows[1:])


def base_change(A, hom):
    """Push the structure constants through a verified base-ring hom.  The
    images of A's recorded generators, and b_s 1 for the target's
    `_scalar_generators`, generate the result: the images over the image of
    A's base, the b_s with 1 every scalar.  A derived build, it is not
    checked: the axioms are identities in the structure constants, which a
    ring hom preserves, so they and the generators follow from A's."""
    if not isinstance(hom, BaseRingHom):
        raise AlgebraError("base_change expects a BaseRingHom")
    if hom.source != A.base:
        raise BaseMismatch("hom source does not match the algebra base")
    H, R, N = hom.matrix, hom.target, hom._N
    index, values = _ring_entries(A)
    values = linalg.einsum_mod("ns,ts->nt", values, H, moduli=R._moduli_arr, N=N)
    rows = np.concatenate([A.unit_flat[None], A.generators]).reshape(-1, A.rank, A.base.flatten_len)
    rows = linalg.einsum_mod("ris,ts->rit", rows, H, moduli=R._moduli_arr, N=N)
    generators = None
    if A._generators is not None:  # the images, then b_s 1
        scalars = linalg.einsum_mod("iv,svu->siu", rows[0], R.struct, moduli=R._moduli_arr, N=N)
        generators = np.concatenate([rows[1:], scalars[_scalar_generators(R)]]).reshape(-1, A.rank * R.flatten_len)
    return Algebra(R, flat_entries(R, index, values), rows[0].ravel(), label=A.label, check=False, generators=generators)


# ---------------------------------------------------------------------------
# structural computations


@lru_cache(maxsize=256)
def center(A):
    """Z(A), a read-only `linalg.Subgroup` of the flat coordinates: the
    commutant of A's generators (`Algebra.generators`).  The elements that
    commute with z form a subring, and it holds R*1; so z commutes with
    every element once it commutes with a set that generates A as a ring.

    Memoized by algebra equality (`Algebra.__eq__`), not by object: equal
    algebras share one entry, and the subgroup is canonical, so it is the
    same whichever generators computed it.  `center.__wrapped__` computes it
    afresh."""
    return commutant(A, A.generators)


def is_central(A):
    return center(A) == A.unit_span()


def commutator_matrix(A, X):
    """The maps z -> x z - z x for the rows x of the (T, dim) array X,
    stacked by rows into a (T * dim, dim) matrix of residues: row (t, k),
    column j holds (x_t e_j - e_j x_t)_k, by `Algebra.mul_matrices`."""
    C = (A.mul_matrices(X, "left") - A.mul_matrices(X, "right")) % A._moduli_arr[:, None]
    return C.reshape(-1, A.dim)


def commutant(A, X):
    """The elements commuting with every row of the (T, dim) array X, as a
    `linalg.Subgroup`: the kernel of `commutator_matrix`.  With no rows it
    is all of A.

    It is always a subring: if x and y commute with s, then
    (xy)s = x(sy) = s(xy).
    """
    return linalg.kernel_additive(commutator_matrix(A, X), A.moduli, A.moduli * len(X))


def env_map_flat(A):
    """Flattened integer matrix of the enveloping map, plus its moduli.

    Row ((u, t), s') and column ((i, j), s) hold the s'-coordinate of e_u in
    (b_s e_i) e_t e_j.  The right multiplications by the basis vectors e_t
    give B[a, t, m] = (eps_a e_t)_m for every flat coordinate generator
    eps_a = b_s e_i (`Algebra.mul_matrices`).  Then (eps_a e_t) e_j =
    sum_k B[a, t, k] B[k, j, :] is the sparse join of B's nonzero entries
    with B's rows (`linalg.sparse_join`), in pieces of at most D^3 products,
    each added straight into its entry of the matrix; a piece reduces the
    entries it touched.
    """
    d, f, D = A.rank, A.base.flatten_len, A.dim
    E = np.kron(np.eye(d, dtype=np.int64), A.base.unit_flat)  # row t is e_t
    B = A.mul_matrices(E, "right").transpose(2, 0, 1)
    (a, t, k), v, ptr = linalg.sparse_rows(B)
    # an entry is a residue plus at most D products
    dtype = linalg._dtype(A._N, D + 1, 2)
    v, side = v.astype(dtype), d * d * f
    # the entry's index split into the parts each side of the join reads
    # off: (i, s) and t of eps_a e_t, then j and m = (u, s') of e_j
    (i, s), (u, s2) = np.divmod(a, f), np.divmod(k, f)
    outer, inner = t * f * side + i * d * f + s, (u * d * f + s2) * side + t * f
    at = A.base._moduli_arr[s2]
    F = np.zeros(side * side, dtype=dtype)
    for x, y in linalg.sparse_join(k, ptr, 0, len(v), D**3):
        key = outer[x] + inner[y]
        np.add.at(F, key, v[x] * v[y])
        F[key] %= at[y]
    moduli = tuple(A.base.moduli) * (d * d)
    return F.reshape(side, side).astype(np.int64, copy=False), moduli, moduli


def env_map_bijective(A):
    F, src, tgt = env_map_flat(A)
    return linalg.is_bijective_additive(F, src, tgt)


def env_bijective_check(A, expected):
    """Whether A's enveloping map is bijective, against `expected`: a pass
    when the two agree, otherwise a fail naming both."""
    bij = env_map_bijective(A)
    ok = bij == expected
    return CheckReport(
        check="env_bijective",
        status="pass" if ok else "fail",
        witness=None if ok else {"bijective": bij, "expected": expected},
        details={"bijective": bij},
    )


# The search's fixed seed (x is drawn under it, z under the next one) and
# its number of draws: of x in all, and of z per x.
_SPLIT_SEED = 0
_SPLIT_DRAWS = 32


def _primitive_idempotent(A, p, n):
    """An idempotent e of A/pA with A e of F_p-dimension n f and the reduced
    echelon rows of A e, or two Nones, where R/pR is the field F of size p^f.

    While A e is larger, with m = dim(A e) / (n f), it draws x in
    eAe = M_m(F) and takes F[x], spanned by the rows b_s x^i, i < m, in its
    own coordinates: the reduced echelon rows V of the span, at pivots P,
    and the tensor (V_a V_b)[P].  F[x] is a product of c local rings, one
    per irreducible factor of x's minimal polynomial (of degree m at most),
    and the Frobenius y -> y^(p^f) fixes F^c in it (Berlekamp, Math. Comp.
    24, 1970).  For c > 1 a drawn fixed point z gives an idempotent t
    (Cantor and Zassenhaus, Math. Comp. 36, 1981): for odd p,
    w = z^((p^f - 1)/2) is 0 or +-1 on each factor and t = (w^2 + w)/2; for
    p = 2, t is the trace z + z^2 + ... + z^(2^(f-1)).  For a cyclic x,
    F^m = F[x] as F[x]-modules, so dim(A t) = n dim(t F[x]); the search
    goes on with the smaller of A t and A (e - t), halving m."""
    f, d, D = A.base.flatten_len, A.rank, A.dim
    matmul = partial(linalg.matmul_mod, moduli=p, N=p)
    e, dim = A.unit_flat % p, D  # dim is that of A e over F_p
    L = R = np.eye(D, dtype=np.int64)  # y -> e y and y -> y e
    for row in range(_SPLIT_DRAWS):
        if dim <= n * f:
            break
        x = matmul(L, matmul(R, random_rows(_SPLIT_SEED, (p,) * D, row, row + 1)[0]))
        Rx, X = A.mul_matrices(x[None], "right")[0] % p, [e]
        for _ in range(dim // (n * f) - 1):
            X.append(matmul(Rx, X[-1]))
        # (b_s y)_(k, u) = y_(k, v) (b_s b_v)_u
        rows = linalg.einsum_mod("tkv,svu->tsku", np.reshape(X, (-1, d, f)), A.base.struct, moduli=p, N=p)
        V = linalg.howell(rows.reshape(-1, D), p)
        P, r = (V != 0).argmax(axis=1), len(V)
        if r < dim // n:
            continue  # x is not cyclic on F^m
        S = matmul(A.mul_matrices(V, "left")[:, P] % p, V.T).reshape(r, r * r)  # [a, (c, b)]: (V_a V_b)[P_c]

        def mul(Y, Z):
            return matmul(matmul(Y, S).reshape(-1, r, r), Z[:, :, None])[:, :, 0]

        eye = np.eye(r, dtype=np.int64)
        Qp = linalg.power(mul, eye, p)  # y^p = y Qp: row a of Qp is V_a^p
        fixed = linalg.kernel_mod((linalg.power(matmul, Qp, f) - eye).T % p, p)
        if len(fixed) <= f:
            continue  # F[x] is local
        Z = matmul(random_rows(_SPLIT_SEED + 1, (p,) * len(fixed), row * _SPLIT_DRAWS, (row + 1) * _SPLIT_DRAWS), fixed)
        if p == 2:
            T = Z
            for _ in range(f - 1):
                T = (Z + matmul(T, Qp)) % 2
        else:
            W = linalg.power(mul, Z, (p**f - 1) // 2)
            T = linalg.einsum_mod("ts,->ts", mul(W, W) + W, np.asarray((p + 1) // 2), moduli=p, N=2 * p)
        split = np.flatnonzero(T.any(axis=1) & (T != e[P]).any(axis=1))
        if not split.size:
            continue
        rank = n * linalg.rank_mod_p(matmul(T[split[:1]], S).reshape(r, r), p)  # n dim(t F[x])
        t = matmul(T[split[0]], V)
        Lt, Rt = (A.mul_matrices(t[None], side)[0] % p for side in ("left", "right"))
        if 2 * rank > dim:  # keep e - t
            t, Lt, Rt, rank = (e - t) % p, (L - Lt) % p, (R - Rt) % p, dim - rank
        e, L, R, dim = t, Lt, Rt, rank
    ell = linalg.howell(R.T, p)  # reduced echelon rows of A e over F_p
    return (e, ell) if dim == len(ell) == n * f else (None, None)


def _local_splitting(A, p, k):
    """The (n*n*f, dim) matrix, mod q = p^k, of a ring hom
    A/qA -> M_n(R/qR), or None.  A has rank n^2 over R, and R/pR is the
    field F of size p^f: R is Z/N with q | N (f = 1), or GF(p^f) (k = 1).

    Newton's step e <- 3e^2 - 2e^3 lifts the idempotent e of A/pA from
    `_primitive_idempotent` to one mod q (Lam, A First Course in
    Noncommutative Rings, section 21).  The reduced echelon rows of L = A e
    mod p (the Howell form of the rows e_j e) hold an F-basis of it: an
    F-subspace takes all f coordinates of a block (one e_i) as pivots or
    none, so the pivots P are n whole blocks, and the rows l_j pivoted on
    each block's first coordinate are 1 on their own block and 0 on the
    others.  So y in L has coordinates y[P], and b_j = l_j e is an R-basis
    of Ae by Nakayama, with b_j[P] = l_j[P] mod p.  The hom sends a to its
    left multiplication on Ae in the basis b, normalized mod q so that b[P]
    is the identity (Newton's inverse; f = 1 wherever k > 1)."""
    f, q, n = A.base.flatten_len, p**k, math.isqrt(A.rank)
    e, ell = _primitive_idempotent(A, p, n)
    if e is None:
        return None
    steps = (k - 1).bit_length()  # Newton doubles the p-adic precision
    for _ in range(steps):
        e2 = A.mul_batch(e[None], e[None]) % q
        e3 = A.mul_batch(e2, e[None]) % q
        e = linalg.einsum_mod("s,std->td", np.asarray([3, q - 2]), np.stack([e2, e3]), moduli=q, N=q)[0]
    P = (ell != 0).argmax(axis=1)  # ell is the identity at its pivots
    B = A.mul_batch(ell[::f], np.tile(e, (n, 1))).T % q  # column j is b_j = l_j e
    # B[P] = I mod p when k > 1 (f = 1): Newton's X <- X (2I - B[P] X) inverts it mod q
    X = eye_n = np.eye(n, dtype=np.int64)
    for _ in range(steps):
        BX = linalg.einsum_mod("ij,jk->ik", B[P], X, moduli=q, N=q)
        X = linalg.einsum_mod("ij,jk->ik", X, (2 * eye_n - BX) % q, moduli=q, N=q)
    # normalized basis: B[P] = I, so y in Ae has coordinates y[P]
    B = linalg.einsum_mod("dj,jk->dk", B, X, moduli=q, N=q)
    # entry (i, j), coordinate s, of the image of a: (e_a b_j)[P_(i, s)]
    phi = A.mul_matrices(B.T, "right")[:, P].transpose(1, 0, 2) % q
    return phi.reshape(n, f, n, A.dim).transpose(0, 2, 1, 3).reshape(n * n * f, A.dim)


def _searched_splitting(A):
    """The matrix of a candidate hom A -> M_n(R) from the search, or None:
    over Z/N one `_local_splitting` per prime power q of N, joined by the
    CRT; over GF(p^f) one; over a product one per factor R_i, searched on
    A (x) R_i and placed in R_i's coordinate block."""
    base = A.base
    if isinstance(base, ProductRing):
        d, f = A.rank, base.flatten_len
        H = np.zeros((d, f, d, f), dtype=np.int64)
        for r, block in zip(base.factors, base._blocks):
            piece = _searched_splitting(base_change(A, BaseRingHom(base, r, np.eye(f, dtype=np.int64)[block])))
            if piece is None:
                return None
            H[:, block, :, block] = piece.reshape(d, r.flatten_len, d, r.flatten_len)
        return H.reshape(d * f, d * f)
    N, factors = (base.n, factorize(base.n)) if isinstance(base, ZMod) else (base.p, [(base.p, 1)])
    parts, coeffs = [], []
    for p, k in factors:
        phi = _local_splitting(A, p, k)
        if phi is None:
            return None
        q = p**k
        parts.append(phi)
        coeffs.append(N // q * pow(N // q, -1, q) % N)  # 1 mod q, 0 mod N/q
    return linalg.einsum_mod("s,sij->ij", np.asarray(coeffs), np.stack(parts), moduli=N, N=N)


def splitting(A):
    """The (D, D) matrix (target by source coordinates) of an isomorphism
    A -> M_n(R) of R-algebras, or None when the search misses.

    An Azumaya algebra of rank n^2 over a finite commutative ring R is
    M_n(R): the Brauer group of a commutative Artin ring is the sum of those
    of its residue fields (the paper's Theorem 2.8), and finite fields have
    trivial Brauer groups (Wedderburn).  When A equals M_n(R), however it
    was built, the identity is an isomorphism and nothing is checked.  A
    candidate from the search (`_searched_splitting`) is kept only when its
    `homs.AlgebraHom` verifies and is bijective, two complete checks.  A
    miss proves nothing: a rank that is not a square, no hom within the
    fixed draws of the fixed seed, or a hom that fails either check."""
    from .homs import AlgebraHom

    n = _square_root(A.rank)
    if n is None:
        return None
    M = matrix_algebra(A.base, n)
    if A == M:
        return np.eye(A.dim, dtype=np.int64)
    H = _searched_splitting(A)
    if H is None:
        return None
    hom = AlgebraHom(A, M, H)
    return hom.matrix if hom.is_verified and hom.is_bijective() else None


def _radical(A):
    """J(A), for A over a field of characteristic p (read off the moduli), as
    Howell rows over F_p, by Cohen, Ivanyos and Wales (JPAA 117/118, 1997):
    with L~_x the left multiplication by x lifted to [0, p) and
    g_i(x) = tr(L~_x^(p^i)) / p^i mod p, I_-1 = A and
    I_i = {x in I_(i-1) : g_i(x e_b) = 0 for every b} are ideals, g_i is
    linear on I_(i-1), and I_i = J(A) for the last i with p^i <= D.  Each
    step takes g_i on the reduced echelon rows v_a of I_(i-1), at pivots P,
    and g_i(v_k e_b) = sum_a (v_k e_b)[P_a] g_i(v_a)."""
    p, V, i = A.moduli[0], np.eye(A.dim, dtype=np.int64), 0
    while len(V) and p**i <= A.dim:
        q, L = p ** (i + 1), A.mul_matrices(V, "left")  # [k, c, b]: (v_k e_b)_c
        powered = linalg.power(partial(linalg.matmul_mod, moduli=q, N=q), L, p**i)
        g = linalg.einsum_mod("kaa->k", powered, moduli=q, N=q) // p**i  # p^i divides the trace on I_(i-1)
        G = linalg.einsum_mod("kab,a->bk", L[:, (V != 0).argmax(axis=1)], g, moduli=p, N=p)
        V, i = linalg.howell(linalg.matmul_mod(linalg.kernel_mod(G, p), V, moduli=p, N=p), p), i + 1
    return V


def is_azumaya(A):
    """Decide whether A is Azumaya over its base ring R.

    A is free of rank d over R, so it is Azumaya iff d = n^2 and every
    A (x) R/m, m maximal, is central simple over the field R/m
    (Auslander-Goldman).  The rank is decided first (`square_rank_check`):
    a rank that is not a square fails with the witness {"rank": d} before
    any certificate, quotient or contraction.  A pass is then decided by an
    isomorphism A -> M_n(R) from `splitting`; one exists whenever
    A is Azumaya, so only the fixed draws of its search can miss it.  On a
    miss the fibers decide, each over its residue field: A (x) R/m is
    central simple iff its center is the scalars and its radical is zero
    (`_radical`).  The first fiber that fails is reported with m and a
    witness: a non-scalar central generator, else the first row of the
    radical and its dimension over F_p.  No enveloping map is formed.
    """
    from .rings import maximal_ideals

    preconditions = {"base": repr(A.base.to_config()), "rank": A.rank}
    rank = square_rank_check(A)
    if rank.status != "pass":
        return CheckReport(check="is_azumaya", status="fail", witness=rank.witness, preconditions=preconditions)
    if splitting(A) is not None:
        return CheckReport(check="is_azumaya", status="pass", preconditions=preconditions)
    for m in maximal_ideals(A.base):
        Am, _ = quotient_algebra(A, m)
        us = Am.unit_span()
        nonscalar = next((g for g in center(Am).generators() if not us.contains(g)), None)
        if nonscalar is not None:
            witness = {"nonscalar_central_element": nonscalar.tolist()}
        elif len(J := _radical(Am)):
            witness = {"radical_element": J[0].tolist(), "radical_dimension": len(J)}
        else:
            continue
        witness = {"maximal_ideal": repr(m.data), **witness}
        return CheckReport(check="is_azumaya", status="fail", witness=witness, preconditions=preconditions)
    return CheckReport(check="is_azumaya", status="pass", preconditions=preconditions)


def rank_at(A, m):
    """Free rank of A (x) R/m over the residue field R/m.

    A is free of rank d over R, so A (x) R/m is free of rank d over R/m;
    `m` is validated through residue_field, nothing is base-changed."""
    from .rings import residue_field

    residue_field(A.base, m)
    return A.rank


def _square_root(d):
    """The n with n^2 = d, or None: the one test of a square rank."""
    n = math.isqrt(d)
    return n if n * n == d else None


def square_rank_check(A):
    """The rank, constant since A is free, must be a perfect square for an
    Azumaya algebra."""
    r, n = A.rank, _square_root(A.rank)
    if n is None:
        return CheckReport(check="square_rank", status="fail", witness={"rank": r})
    return CheckReport(check="square_rank", status="pass", details={"n": n, "rank": r})


def expand_ideal(A, ideal):
    """The two-sided ideal I*A, as a `linalg.Subgroup`.  A is free on the
    e_i and I is closed under the ring's coordinate generators, so I*A is
    I's subgroup in every coordinate block."""
    blocks = np.kron(np.eye(A.rank, dtype=np.int64), ideal.group.generators())
    return linalg.Subgroup(blocks, A.moduli)


def quotient_algebra(A, ideal):
    """A / I*A as a free algebra over R/I of the same rank."""
    target, proj = ideal.quotient()
    return base_change(A, proj), proj


def ideal_intersection_check(A, ideals):
    """The intersection of the I_i A must equal (intersect I_i) A."""
    from .rings import intersect_ideals

    lhs, *rest = [expand_ideal(A, I) for I in ideals]
    for sub in rest:
        lhs = lhs.intersection(sub)
    rhs = expand_ideal(A, intersect_ideals(ideals))
    if lhs == rhs:
        return CheckReport(check="ideal_intersection", status="pass")
    return CheckReport(
        check="ideal_intersection",
        status="fail",
        witness={
            "lhs_order": lhs.order,
            "rhs_order": rhs.order,
            "ideals": [repr(I.data) for I in ideals],
        },
    )


def nilpotency_index(x, cap=None):
    """Least e <= cap with x^e = 0; raises NotNilpotentWithinCap otherwise.

    The default cap is the algebra rank, a pragmatic cutoff that is always
    reported, never silently assumed.
    """
    cap = cap if cap is not None else x.algebra.rank
    if cap < 1:
        raise AlgebraError("cap must be >= 1")
    e = int(nilpotency_indices(x.algebra, x.flat[None], cap)[0])
    if not e:
        raise NotNilpotentWithinCap(cap)
    return e


def nilpotency_indices(A, X, cap):
    """For each row x of the (T, dim) array X, the least e <= cap with
    x^e = 0, or 0 when there is none; cap >= 1.

    x^cap = 0 iff that e exists, so x^cap, by binary powering, screens out
    the rows whose index is 0; the others walk one batched product per
    exponent, over the rows still undecided, and all end by e = cap."""
    index = np.zeros(len(X), dtype=np.int64)
    rows = np.flatnonzero(~linalg.power(A.mul_batch, X, cap).any(axis=1))
    power = X[rows]
    for e in range(1, cap + 1):
        zero = ~power.any(axis=1)
        index[rows[zero]] = e
        rows, power = rows[~zero], power[~zero]
        if not len(rows):
            break
        power = A.mul_batch(power, X[rows])
    return index


def jordan_flat(ring, blocks):
    """Flat coordinates of the Jordan matrix J_blocks in M_n(ring),
    n = sum(blocks): one nilpotent block per part, with ones on the
    superdiagonal inside each block and zeros elsewhere."""
    n = sum(blocks)
    inside = np.ones(n - 1, dtype=bool)
    inside[np.cumsum(blocks)[:-1] - 1] = False  # the last row of a block
    i = np.flatnonzero(inside)
    flat = np.zeros((n * n, ring.flatten_len), dtype=np.int64)
    flat[i * n + i + 1] = ring.one().coords
    return flat.ravel()


def jordan_cell(ring, n):
    """Element of M_n(ring) sending e_i to e_{i-1}: the one Jordan block
    J_(n)."""
    return AlgElem(matrix_algebra(ring, n), jordan_flat(ring, (n,)))

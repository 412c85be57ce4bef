"""Structure-constant algebras over finite commutative rings.

An algebra is a free module R^d with an R-bilinear product given by
structure constants.  Internally everything is flattened to integer
coordinates (rank d times the base ring's coordinate length), where the
product is Z-bilinear and stored as a dense integer tensor; that makes
centers, commutants and the enveloping map plain kernel / bijectivity
computations over the coordinate moduli.  Products of elements go through
one sparse kernel over the tensor's nonzero entries (`Algebra.mul_batch`).
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .rings import BaseRingHom, RingError, ZMod
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
    """Finite free algebra given by structure constants over a base ring.

    `table[i][j]` is the coordinate vector (length d, entries RingElem) of
    e_i * e_j; `unit` is the coordinate vector of 1.  Associativity on all
    basis triples and the two-sided unit law are verified at construction.
    On flattened coordinates the product is the dense integer tensor
    `struct` (x * y = sum x_i y_j struct[i, j, :]); element products are
    computed from its nonzero entries only (see `mul_batch`).
    """

    def __init__(self, base, table, unit, label="", check=True):
        self.base = base
        self.rank = len(table)
        self.label = label
        f = base.flatten_len
        d = self.rank
        self.dim = d * f  # flattened Z-coordinate count
        self.moduli = tuple(base.moduli) * d
        self._moduli_arr = np.asarray(self.moduli, dtype=np.int64)
        self.table = table
        self.unit = tuple(unit)
        self.struct = self._flatten_table()
        self.unit_flat = self._flatten_coords(unit)
        if check:
            self._verify_axioms()

    # -- flattening helpers

    def _flatten_coords(self, ring_coords):
        out = np.zeros(self.dim, dtype=np.int64)
        f = self.base.flatten_len
        for i, r in enumerate(ring_coords):
            out[i * f : (i + 1) * f] = r.coords
        return out

    def ring_coords(self, flat):
        f = self.base.flatten_len
        return [
            self.base.element(tuple(int(c) for c in flat[i * f : (i + 1) * f]))
            for i in range(self.rank)
        ]

    def _flatten_table(self):
        d, f, D = self.rank, self.base.flatten_len, self.dim
        base = self.base
        S = np.zeros((D, D, D), dtype=np.int64)
        basis = [base.basis_elem(s) for s in range(f)]
        for i in range(d):
            for j in range(d):
                cij = self.table[i][j]
                for s in range(f):
                    for t in range(f):
                        scalar = basis[s] * basis[t]
                        row = np.zeros(D, dtype=np.int64)
                        for k, c in enumerate(cij):
                            prod = scalar * c
                            row[k * f : (k + 1) * f] = prod.coords
                        S[i * f + s, j * f + t] = row
        return S

    def _verify_axioms(self):
        S = self.struct
        left = np.einsum("abk,kcm->abcm", S, S) % self._moduli_arr
        right = np.einsum("bck,akm->abcm", S, S) % self._moduli_arr
        if np.any(left != right):
            bad = np.argwhere((left != right).any(axis=3))[0]
            raise AlgebraError(
                f"associativity fails on basis triple {tuple(int(x) for x in bad)}"
            )
        u = self.unit_flat
        lu = np.einsum("i,ijk->jk", u, S) % self._moduli_arr
        ru = np.einsum("j,ijk->ik", u, S) % self._moduli_arr
        eye = np.eye(self.dim, dtype=np.int64) % self._moduli_arr
        if np.any(lu != eye) or np.any(ru != eye):
            raise AlgebraError("unit vector is not a two-sided unit")

    # -- basic data

    @property
    def size(self):
        return math.prod(self.moduli)

    def zero(self):
        return AlgElem(self, np.zeros(self.dim, dtype=np.int64))

    def one(self):
        return AlgElem(self, self.unit_flat)

    def element(self, flat):
        return AlgElem(self, flat)

    def from_ring_coords(self, ring_coords):
        return AlgElem(self, self._flatten_coords(ring_coords))

    def basis_flat(self, i, s=None):
        """Flat vector of e_i (times the s-th ring coordinate generator)."""
        v = np.zeros(self.dim, dtype=np.int64)
        f = self.base.flatten_len
        if s is None:
            v[i * f : (i + 1) * f] = self.base.one().coords
        else:
            v[i * f + s] = 1
        return v

    # -- multiplication

    # entries of a kernel temporary (nonzeros x rows), small enough for cache
    _CHUNK_ENTRIES = 1 << 16

    @cached_property
    def _sparse_struct(self):
        """Nonzero entries of `struct` sorted by output coordinate: index
        arrays I, J and coefficients C with struct[I, J, k] = C on the
        segment of k, the output coordinates that have a segment, and each
        segment's start."""
        K, I, J = np.nonzero(self.struct.transpose(2, 0, 1))
        outs, starts = np.unique(K, return_index=True)
        return I, J, self.struct[I, J, K], outs, starts

    def mul_flat(self, x, y):
        return self.mul_batch(np.asarray(x)[None], np.asarray(y)[None])[0]

    def mul_batch(self, X, Y):
        """Row-wise products of two (T, dim) coordinate arrays.

        Sparse kernel: out[t, k] = sum over the nonzero struct[i, j, k] of
        X[t, i] * Y[t, j] * struct[i, j, k], reduced mod the moduli at the
        end.  With inputs and coefficients below N (the largest modulus),
        each term is below N^3 and a sum has at most dim^2 terms, so the
        int64 sums are exact while dim^2 * N^3 < 2^63 -- the same bound as a
        dense contraction over the whole tensor.
        """
        X, Y = np.asarray(X, dtype=np.int64), np.asarray(Y, dtype=np.int64)
        I, J, C, outs, starts = self._sparse_struct
        T = X.shape[0]
        out = np.zeros((self.dim, T), dtype=np.int64)
        if len(C):
            Xt, Yt, Ct = X.T, Y.T, C[:, None]
            rows = max(1, self._CHUNK_ENTRIES // len(C))
            for lo in range(0, T, rows):
                terms = Xt[I, lo : lo + rows] * Yt[J, lo : lo + rows]
                terms *= Ct
                out[outs, lo : lo + rows] = np.add.reduceat(terms, starts, axis=0)
        return out.T % self._moduli_arr

    def scalar_mul_flat(self, r, x):
        """Flat coordinates of r*x for a base-ring element r."""
        f = self.base.flatten_len
        block = self.base.mul_matrix(r.coords)
        out = np.zeros_like(x)
        for i in range(self.rank):
            out[i * f : (i + 1) * f] = block @ x[i * f : (i + 1) * f]
        return out % self._moduli_arr

    def left_mul_matrix(self, x):
        """Matrix of y -> x*y on flattened coordinates."""
        return (np.einsum("i,ijk->kj", x, self.struct)) % self._moduli_arr[:, None]

    def right_mul_matrix(self, x):
        """Matrix of y -> y*x on flattened coordinates."""
        return (np.einsum("j,ijk->ki", x, self.struct)) % self._moduli_arr[:, None]

    def unit_span(self):
        """The subgroup R*1 of the flattened module."""
        f = self.base.flatten_len
        gens = [
            self.scalar_mul_flat(self.base.basis_elem(s), self.unit_flat)
            for s in range(f)
        ]
        return linalg.Subgroup(np.asarray(gens), self.moduli)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Algebra)
            and self.base == other.base
            and self.rank == other.rank
            and np.array_equal(self.struct, other.struct)
            and np.array_equal(self.unit_flat, other.unit_flat)
        )

    def __hash__(self):
        return hash((self.base, self.rank, self.struct.tobytes()))

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
        return AlgElem(self.algebra, self.flat + other.flat)

    def __sub__(self, other):
        self._check(other)
        return AlgElem(self.algebra, self.flat - other.flat)

    def __neg__(self):
        return AlgElem(self.algebra, -self.flat)

    def __mul__(self, other):
        self._check(other)
        return AlgElem(self.algebra, self.algebra.mul_flat(self.flat, other.flat))

    def scale(self, r):
        return AlgElem(self.algebra, self.algebra.scalar_mul_flat(r, self.flat))

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


class Submodule:
    """Submodule of an algebra's underlying module, canonically represented
    as a Subgroup of the flattened coordinates."""

    def __init__(self, algebra, gens_flat):
        self.algebra = algebra
        self.group = linalg.Subgroup(np.asarray(gens_flat).reshape(-1, algebra.dim), algebra.moduli)

    @property
    def order(self):
        return self.group.order

    def generators(self):
        return [AlgElem(self.algebra, g) for g in self.group.generators()]

    def contains(self, elem):
        return self.group.contains(elem.flat)

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.algebra == other.algebra
            and self.group == other.group
        )

    def __hash__(self):
        return hash(self.group)

    def __repr__(self):
        return f"Submodule(order={self.order} of {self.algebra!r})"


def product_rows(start, stop, radices):
    """Rows start..stop-1 of itertools.product(*map(range, radices)) as one
    (stop - start, len(radices)) int64 array: the mixed-radix digits of each
    index, the last digit running fastest."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((len(idx), len(radices)), dtype=np.int64)
    for c in range(len(radices) - 1, -1, -1):
        idx, out[:, c] = np.divmod(idx, radices[c])
    return out


def random_rows(rng, radices, T):
    """(T, len(radices)) int64 array of draws rng.randrange(r), row by row,
    in the order a loop drawing one row at a time would make them."""
    draws = (rng.randrange(r) for _ in range(T) for r in radices)
    return np.fromiter(draws, dtype=np.int64, count=T * len(radices)).reshape(T, len(radices))


# ---------------------------------------------------------------------------
# constructors


def matrix_algebra(ring, n, check=True):
    """The algebra of n x n matrices, basis E_ij ordered row-major."""
    if n < 1:
        raise AlgebraError("matrix size must be >= 1")
    d = n * n
    zero, one = ring.zero(), ring.one()
    table = [[None] * d for _ in range(d)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        row = [zero] * d
        if j == k:
            row[i * n + l] = one
        table[i * n + j][k * n + l] = row
    unit = [zero] * d
    for i in range(n):
        unit[i * n + i] = one
    return Algebra(ring, table, unit, label=f"M_{n}({ring!r})", check=check)


def upper_triangular_algebra(ring, n):
    """Upper-triangular n x n matrices; not Azumaya for n >= 2 (the strictly
    upper-triangular matrices form a proper two-sided ideal)."""
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {p: a for a, p in enumerate(idx)}
    d = len(idx)
    zero, one = ring.zero(), ring.one()
    table = []
    for (i, j) in idx:
        row_tab = []
        for (k, l) in idx:
            row = [zero] * d
            if j == k:
                row[pos[(i, l)]] = one
            row_tab.append(row)
        table.append(row_tab)
    unit = [zero] * d
    for i in range(n):
        unit[pos[(i, i)]] = one
    return Algebra(ring, table, unit, label=f"UT_{n}({ring!r})")


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


def weyl_quotient(p, a, b):
    """Rank-p^2 algebra over F_p with basis x^i y^j (0 <= i, j < p) and
    relations y x = x y + 1, x^p = a, y^p = b.

    Structure constants come from memoized normal-ordering rewriting; the
    closed-form commutation formula is used only as a test oracle.
    """
    ring = ZMod(p)
    a %= p
    b %= p
    d = p * p
    zero = ring.zero()

    def reduce_pair(xe, ye, coeff):
        # fold exponents >= p into the scalars a, b
        qx, rx = divmod(xe, p)
        qy, ry = divmod(ye, p)
        return rx, ry, coeff * pow(a, qx, p) * pow(b, qy, p)

    table = []
    for i in range(p):
        for j in range(p):
            row_tab = []
            for k in range(p):
                for l in range(p):
                    row = [0] * d
                    for (c, e), coeff in _normal_order(j, k).items():
                        rx, ry, cf = reduce_pair(i + c, e + l, coeff)
                        row[rx * p + ry] = (row[rx * p + ry] + cf) % p
                    row_tab.append([ring.element((v,)) for v in row])
            table.append(row_tab)
    unit = [zero] * d
    unit[0] = ring.one()
    return Algebra(ring, table, unit, label=f"W({p},{a},{b})")


def opposite(A):
    """Same module, reversed multiplication."""
    d = A.rank
    table = [[A.table[j][i] for j in range(d)] for i in range(d)]
    unit = [A.base.element(u.coords) for u in A.unit]
    return Algebra(A.base, table, unit, label=f"op({A.label})", check=False)


def tensor_product(A, B):
    """A tensor B over the common base; basis e_i (x) f_j ordered with the
    A-index major."""
    if A.base != B.base:
        raise BaseMismatch("tensor factors must share the base ring")
    base = A.base
    da, db = A.rank, B.rank
    d = da * db
    zero = base.zero()
    table = []
    for i1, j1 in itertools.product(range(da), range(db)):
        row_tab = []
        for i2, j2 in itertools.product(range(da), range(db)):
            ca = A.table[i1][i2]
            cb = B.table[j1][j2]
            row = [zero] * d
            for k, ra in enumerate(ca):
                if ra.is_zero():
                    continue
                for l, rb in enumerate(cb):
                    if rb.is_zero():
                        continue
                    row[k * db + l] = row[k * db + l] + ra * rb
            row_tab.append(row)
        table.append(row_tab)
    unit = [zero] * d
    for k, ra in enumerate(A.unit):
        for l, rb in enumerate(B.unit):
            unit[k * db + l] = ra * rb
    return Algebra(base, table, unit, label=f"{A.label}(x){B.label}", check=False)


def base_change(A, hom):
    """Push the structure constants through a verified base-ring hom."""
    if not isinstance(hom, BaseRingHom):
        raise AlgebraError("base_change expects a BaseRingHom")
    if hom.source != A.base:
        raise BaseMismatch("hom source does not match the algebra base")
    d = A.rank
    table = [
        [[hom.apply(c) for c in A.table[i][j]] for j in range(d)]
        for i in range(d)
    ]
    unit = [hom.apply(u) for u in A.unit]
    return Algebra(hom.target, table, unit, label=A.label, check=False)


# ---------------------------------------------------------------------------
# structural computations


def center(A):
    """Z(A) as the kernel of z -> (z e_a - e_a z)_a over all coordinate
    generators."""
    D = A.dim
    mats = []
    for alpha in range(D):
        # (z * e_alpha)_k = sum_i z_i S[i, alpha, k]
        mats.append((A.struct[:, alpha, :] - A.struct[alpha, :, :]).T)
    stacked = np.concatenate(mats, axis=0)
    tgt = A.moduli * D
    ker = linalg.kernel_additive(stacked, A.moduli, tgt)
    return Submodule(A, ker.generators())


def is_central(A):
    return center(A).group == A.unit_span()


def center_bruteforce(A):
    """Oracle: scan all elements for commutation with every basis vector."""
    elems = np.asarray(
        list(itertools.product(*(range(m) for m in A.moduli))), dtype=np.int64
    )
    mask = np.ones(len(elems), dtype=bool)
    for alpha in range(A.dim):
        M = A.struct[:, alpha, :] - A.struct[alpha, :, :]
        mask &= ~((elems @ M) % A._moduli_arr).any(axis=1)
    return [AlgElem(A, v) for v in elems[mask]]


def commutant(A, gens, check_closure=True):
    """Elements commuting with every generator, as a Submodule.

    When the generators span a unital subalgebra the result is closed under
    multiplication; this is verified unless check_closure is False.
    """
    mats = []
    for g in gens:
        flat = g.flat if isinstance(g, AlgElem) else np.asarray(g, dtype=np.int64)
        mats.append(A.left_mul_matrix(flat) - A.right_mul_matrix(flat))
    if not mats:
        mats = [np.zeros((A.dim, A.dim), dtype=np.int64)]
    stacked = np.concatenate(mats, axis=0)
    tgt = A.moduli * (len(stacked) // A.dim)
    ker = linalg.kernel_additive(stacked, A.moduli, tgt)
    sub = Submodule(A, ker.generators())
    if check_closure:
        gs = sub.group.generators()
        for u in gs:
            for v in gs:
                if not sub.group.contains(A.mul_flat(u, v)):
                    raise AlgebraError("commutant is not closed under products")
    return sub


def env_map(A):
    """Matrix over the base ring of A (x) A^op -> End_R(A), a (x) b acting as
    x -> a x b.  Size d^2 x d^2; column (i, j) is the endomorphism e_i _ e_j,
    row (u, t) the coefficient of e_u in the image of e_t."""
    d = A.rank
    base = A.base
    cols = []
    for i in range(d):
        ei = A.basis_flat(i)
        for j in range(d):
            ej = A.basis_flat(j)
            col = []
            for t in range(d):
                v = A.mul_flat(A.mul_flat(ei, A.basis_flat(t)), ej)
                col.append(A.ring_coords(v))
            # entry at row (u, t) is col[t][u]
            cols.append([col[t][u] for u in range(d) for t in range(d)])
    entries = [cols[c][r] for r in range(d * d) for c in range(d * d)]
    return linalg.Matrix(base, d * d, d * d, entries)


def env_map_flat(A):
    """Flattened integer matrix of the enveloping map, plus its moduli.

    Vectorized equivalent of env_map(A).flattened(): row ((u, t), s') and
    column ((i, j), s) hold the s'-coordinate of e_u in (b_s e_i) e_t e_j.
    Two reduced contractions: B[a, t, m] = (eps_a e_t)_m for every flat
    coordinate generator eps_a, then (eps_a e_t) e_j = sum_k B[a, t, k]
    B[k, j, :] as one integer matmul whose sums stay below D * N^2.
    """
    d, f, D = A.rank, A.base.flatten_len, A.dim
    E = np.asarray([A.basis_flat(t) for t in range(d)], dtype=np.int64)  # (d, D)
    B = np.einsum("tj,ajk->atk", E, A.struct) % A._moduli_arr
    C = (B.reshape(D * d, D) @ B.reshape(D, d * D)).reshape(D, d, d, D) % A._moduli_arr
    # C axes: (alpha=(i,s), t, j, m=(u,s')) -> rows (u,t,s'), cols (i,j,s)
    C6 = C.reshape(d, f, d, d, d, f)
    F = C6.transpose(4, 2, 5, 0, 3, 1).reshape(d * d * f, d * d * f)
    moduli = tuple(A.base.moduli) * (d * d)
    return F, moduli, moduli


def env_map_bijective(A):
    F, src, tgt = env_map_flat(A)
    return linalg.is_bijective_additive(F, src, tgt)


def _residue_field_witness(A):
    """First maximal ideal m at which A (x) R/m is not central simple, with
    its witness: a non-scalar central generator, or else a kernel vector of
    the enveloping map over R/m.  None when every residue field passes."""
    from .rings import maximal_ideals, residue_field

    for m in maximal_ideals(A.base):
        _, proj = residue_field(A.base, m)
        Am = base_change(A, proj)
        zc = center(Am)
        us = Am.unit_span()
        if zc.group != us:
            witness = next(
                g.flat.tolist() for g in zc.generators() if not us.contains(g.flat)
            )
            return m, {"nonscalar_central_element": witness}
        flat, src_mod, tgt_mod = env_map_flat(Am)
        if not linalg.is_bijective_additive(flat, src_mod, tgt_mod):
            gens = linalg.kernel_additive(flat, src_mod, tgt_mod).generators()
            witness_vec = gens[0].tolist() if len(gens) else "order-mismatch"
            return m, {"env_kernel_vector": witness_vec}
    return None


def is_azumaya(A):
    """Decide whether A is Azumaya over its base ring R.

    A is free over R, so it is Azumaya iff its enveloping map
    A (x) A^op -> End_R(A) is bijective over R itself: the determinant is a
    unit iff it is a unit modulo every maximal ideal m (Auslander-Goldman),
    i.e. iff every A (x) R/m is central simple.  That one check decides the
    verdict.  Only when it fails are the residue fields visited, to report
    the offending ideal and a witness (a non-scalar central generator or an
    enveloping-map kernel vector of A (x) R/m).
    """
    preconditions = {"base": repr(A.base.to_config()), "rank": A.rank}
    if env_map_bijective(A):
        return CheckReport(check="is_azumaya", status="pass", preconditions=preconditions)
    found = _residue_field_witness(A)
    if found is None:
        raise AlgebraError(
            "enveloping map is not bijective over the base ring, yet every "
            "residue field is central simple"
        )
    m, witness = found
    return CheckReport(
        check="is_azumaya",
        status="fail",
        witness={"maximal_ideal": repr(m.locator), **witness},
        preconditions=preconditions,
    )


def rank_at(A, m):
    """Free rank of A (x) R/m over the residue field R/m.

    A is free of rank d over R, so A (x) R/m is free of rank d over R/m;
    `m` is validated through residue_field, nothing is base-changed."""
    from .rings import residue_field

    residue_field(A.base, m)
    return A.rank


def has_constant_rank(A):
    from .rings import maximal_ideals

    ranks = {rank_at(A, m) for m in maximal_ideals(A.base)}
    if len(ranks) == 1:
        return True, ranks.pop()
    return False, None


def square_rank_check(A):
    """Constant rank must be a perfect square for an Azumaya algebra."""
    const, r = has_constant_rank(A)
    if not const:
        return CheckReport(check="square_rank", status="fail", witness={"ranks": "non-constant"})
    n = math.isqrt(r)
    if n * n != r:
        return CheckReport(check="square_rank", status="fail", witness={"rank": r})
    return CheckReport(check="square_rank", status="pass", details={"n": n, "rank": r})


def expand_ideal(A, ideal):
    """The two-sided ideal I*A, as a Submodule."""
    gens = []
    for g in ideal.generators():
        for i in range(A.rank):
            for s in range(A.base.flatten_len):
                gens.append(A.scalar_mul_flat(g, A.basis_flat(i, s)))
    if not gens:
        gens = [np.zeros(A.dim, dtype=np.int64)]
    return Submodule(A, np.asarray(gens))


def quotient_algebra(A, ideal):
    """A / I*A as a free algebra over R/I of the same rank."""
    target, proj = ideal.quotient()
    return base_change(A, proj), proj


def ideal_intersection_check(A, ideals):
    """Submodule intersection of the I_i A must equal (intersect I_i) A."""
    from .rings import intersect_ideals

    subs = [expand_ideal(A, I) for I in ideals]
    lhs = subs[0].group
    for s in subs[1:]:
        lhs = lhs.intersection(s.group)
    rhs = expand_ideal(A, intersect_ideals(ideals)).group
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
    x^e = 0, or 0 when there is none; one batched product per exponent,
    over the rows still undecided."""
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


def jordan_cell(ring, n):
    """Element of M_n(ring) sending e_i to e_{i-1}: first column zero, then
    column i equal to the (i-1)-th standard basis vector."""
    A = matrix_algebra(ring, n, check=False)
    flat = np.zeros(A.dim, dtype=np.int64)
    f = ring.flatten_len
    one = ring.one().coords
    for i in range(1, n):
        # entry (i-1, i) = 1
        slot = (i - 1) * n + i
        flat[slot * f : (slot + 1) * f] = one
    return AlgElem(A, flat)

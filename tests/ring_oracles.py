"""Test-only oracles over RingElem entries.

The library stores an algebra as the nonzero entries of its integer
structure tensor only.  The functions here keep the older representation -- nested lists of RingElem
structure constants and ring-entry matrices -- as independent references:

- the table constructors (`matrix_table`, `upper_triangular_table`,
  `weyl_table`, `opposite_table`, `tensor_table`, `base_change_table`) build
  e_i * e_j ring element by ring element, and `flatten_table` turns a table
  into the (struct, unit_flat) pair the library's constructors must emit;
- `env_map` is the enveloping map as a matrix over the base ring, checked
  against the library's flattened `env_map_flat`;
- `center_bruteforce` scans every element of a small algebra, and
  `twisted` changes an algebra's coordinates over Z/N or GF(q) (by an
  R-linear `r_linear` matrix), giving algebras that are isomorphic to a
  constructor's but not equal to it;
- `Matrix` and `howell_form` are ring-entry matrices and the Howell form
  with its transformation certificate;
- `howell_rowloop` and `rank_mod_p_rowloop` are the row-at-a-time
  eliminations the library used before its single vectorized forward pass,
  kept as references for it;
- `mul_coords`, `inv_coords` and `base_hom_refutation` are the per-kind
  base-ring arithmetic the library used before it stored every ring as its
  multiplication tensor: Z/n by Python ints, GF(p^k) by polynomial
  multiplication reduced mod f (`poly_mul_mod`) and inversion by x^(q-2),
  products factor by factor, and the pairwise loop over coordinate
  generators that checked a base-ring hom;
- `is_prime_trial` and `factorize_trial` are the trial division the
  library factored moduli by before Miller-Rabin and Brent's rho;
- `ideal_elements`, `all_ideals` and `nilpotent_elements` decide ideals of
  a small ring on its element set: an ideal is its generators closed under
  multiplication by every element and under addition;
- `expand_ideal_loop`, `scalars_flat_loop` and
  `center_preservation_loop` are the library's older bodies: I*A from
  every product g * b_s e_i (`scalar_mul_flat`), R*1 one scalar product at
  a time, and the commutator check one center generator at a time;
- `verify_axioms_dense`, `env_map_flat_dense` and `hom_refutation_dense`
  are the dense contractions of the structure tensor the library used
  before its sparse join: the axiom check one first factor at a time, the
  enveloping map as two einsums and a transpose, and the hom check's left
  side as one (D^2, D) by (D, T) product; `hom_refutation_full` is the
  library's hom check over all D^2 pairs of coordinate generators, as it
  ran before algebras recorded their ring generators;
- `left_mul_matrix_dense`, `right_mul_matrix_dense`, `center_dense`,
  `commutator_matrix_dense`, `env_b_dense` and `splitting_phi_dense` are
  the dense contractions the library made before it stored only the
  tensor's nonzero entries and formed every multiplication matrix by one
  scatter (`Algebra.mul_matrices`): one einsum per multiplication matrix,
  the center's D^2 x D matrix from two transposes, the commutator maps
  from the antisymmetrized tensor, the enveloping map's B = (eps_a e_t)_m
  and the splitting certificate's phi;
- `check_well_defined_spread` is the well-definedness test the library
  used before it read one block per pair of distinct moduli: one gcd per
  pair, spread over every entry by `np.unique` and `np.ix_`;
- `irreducible_trial` decides irreducibility over F_p by the root scan and
  trial division by every monic polynomial of degree at most k/2
  (`poly_divides`), as `GaloisField` did before Berlekamp's criterion, and
  `gf_default_search` is the search `GaloisField.default` made before it
  decided candidates without building them: one ring per candidate;
- `structure_tensor_dense` and `ring_table_dense` are the library's
  dense paths before its constructors emitted nonzero entries: the
  (d f)^3 tensor of a (d, d, d, f) table over the base ring, one matrix
  product with the ring's triple products, and the (d, d, d, f) table of
  an algebra from one batched product over all pairs of basis vectors;
  `entries` and `table_algebra` build an `Algebra` from a dense tensor or
  table through them;
- `structure_tensor_einsum` and `embed_remainder` are the bodies
  `structure_tensor_dense` and `linalg._embed` had before their fast
  paths: two einsums, and a remainder and a scaling pass on every input;
- `fiber_loop` decides `is_azumaya` by the enveloping map of every fiber,
  as the library did when its certificate missed, before it decided a fiber
  by its center and its radical; `ideal_closure`, `is_nilpotent_ideal` and
  `trace_form_radical` are references for that radical: the ideal rows
  generate, whether it is nilpotent, and Dickson's trace-form radical;
- `identity_hom`, `certified_hom` (`splitting`'s matrix re-verified as a
  bijective hom into M_n(R)), `solve_mod`, `unit_basis`, `basis_elem` and
  `ring_elements` are helpers only tests use.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from azumaya import linalg, rings
from azumaya.algebras import (
    AlgebraError,
    AlgElem,
    Algebra,
    _normal_order,
    center,
    env_map_flat,
    matrix_algebra,
    quotient_algebra,
    splitting,
)
from azumaya.homs import AlgebraHom, _azumaya_preconditions
from azumaya.linalg import LinalgError, howell
from azumaya.reports import CONTRADICTS, FAIL, PASS, CheckReport
from azumaya.rings import GaloisField, NotAUnit, ProductRing, ReduciblePolynomial, ZMod, factorize


# ---------------------------------------------------------------------------
# RingElem structure tables: table[i][j] is the coordinate vector (length d,
# entries RingElem) of e_i * e_j, unit the coordinate vector of 1


def matrix_table(ring, n):
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
    return table, unit


def upper_triangular_table(ring, n):
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
    return table, unit


def weyl_table(p, a, b):
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
    return table, unit


def opposite_table(base, table, unit):
    d = len(table)
    table = [[table[j][i] for j in range(d)] for i in range(d)]
    unit = [base.element(u.coords) for u in unit]
    return table, unit


def tensor_table(base, table_a, unit_a, table_b, unit_b):
    da, db = len(table_a), len(table_b)
    d = da * db
    zero = base.zero()
    table = []
    for i1, j1 in itertools.product(range(da), range(db)):
        row_tab = []
        for i2, j2 in itertools.product(range(da), range(db)):
            ca = table_a[i1][i2]
            cb = table_b[j1][j2]
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
    for k, ra in enumerate(unit_a):
        for l, rb in enumerate(unit_b):
            unit[k * db + l] = ra * rb
    return table, unit


def base_change_table(hom, table, unit):
    d = len(table)
    table = [[[hom.apply(c) for c in table[i][j]] for j in range(d)] for i in range(d)]
    unit = [hom.apply(u) for u in unit]
    return table, unit


def flatten_table(base, table, unit):
    """(struct, unit_flat) of a RingElem table: struct[(i, s), (j, t)] holds
    the flat coordinates of (b_s e_i)(b_t e_j) for the ring's coordinate
    generators b_s."""
    d, f = len(table), base.flatten_len
    D = d * f
    S = np.zeros((D, D, D), dtype=np.int64)
    basis = [basis_elem(base, s) for s in range(f)]
    for i in range(d):
        for j in range(d):
            cij = table[i][j]
            for s in range(f):
                for t in range(f):
                    scalar = basis[s] * basis[t]
                    row = np.zeros(D, dtype=np.int64)
                    for k, c in enumerate(cij):
                        prod = scalar * c
                        row[k * f : (k + 1) * f] = prod.coords
                    S[i * f + s, j * f + t] = row
    unit_flat = np.zeros(D, dtype=np.int64)
    for i, r in enumerate(unit):
        unit_flat[i * f : (i + 1) * f] = r.coords
    return S, unit_flat


# ---------------------------------------------------------------------------
# enveloping map and center


def ring_coords(A, flat):
    f = A.base.flatten_len
    return [
        A.base.element(tuple(int(c) for c in flat[i * f : (i + 1) * f]))
        for i in range(A.rank)
    ]


def env_map(A):
    """Matrix over the base ring of A (x) A^op -> End_R(A), a (x) b acting as
    x -> a x b.  Size d^2 x d^2; column (i, j) is the endomorphism e_i _ e_j,
    row (u, t) the coefficient of e_u in the image of e_t."""
    d = A.rank
    base = A.base
    cols = []
    for i in range(d):
        ei = unit_basis(A, i)
        for j in range(d):
            ej = unit_basis(A, j)
            col = []
            for t in range(d):
                v = A.mul_flat(A.mul_flat(ei, unit_basis(A, t)), ej)
                col.append(ring_coords(A, v))
            # entry at row (u, t) is col[t][u]
            cols.append([col[t][u] for u in range(d) for t in range(d)])
    entries = [cols[c][r] for r in range(d * d) for c in range(d * d)]
    return Matrix(base, d * d, d * d, entries)


def center_bruteforce(A):
    """Scan all elements for commutation with every basis vector."""
    elems = np.asarray(
        list(itertools.product(*(range(m) for m in A.moduli))), dtype=np.int64
    )
    mask = np.ones(len(elems), dtype=bool)
    for alpha in range(A.dim):
        M = A.struct[:, alpha, :] - A.struct[alpha, :, :]
        mask &= ~((elems @ M) % A._moduli_arr).any(axis=1)
    return [AlgElem(A, v) for v in elems[mask]]


def twisted(A, T):
    """A with its coordinates changed by the invertible T over Z/N, every
    coordinate's modulus (Z/N or GF(q), N = p): the new generator a is
    sum_i T[i, a] e_i.  Exact over Python ints.  Over GF(q) the new
    coordinates keep their ring structure only for T from `r_linear`."""
    N = A._N
    T = np.asarray(T, dtype=object) % N
    Tinv = inverse_mod(T, N)
    S = np.einsum("ijk,ck->ijc", A.struct.astype(object), Tinv)
    S = np.einsum("ia,ijc->ajc", T, S)
    S = np.einsum("jb,ajc->abc", T, S) % N
    unit = Tinv.dot(A.unit_flat.astype(object)) % N
    return Algebra(A.base, entries(S.astype(np.int64)), unit.astype(np.int64), label=f"twist {A.label}", check=False)


def r_linear(ring, T):
    """The flat (d f, d f) matrix over the coordinate moduli of the R-linear
    map with matrix T over `ring` (shape (d, d, f)): column (a, t), the
    generator b_t e_a, goes to sum_i (T[i, a] b_t) e_i."""
    d, f = len(T), ring.flatten_len
    flat = np.einsum("iav,vts->isat", np.asarray(T, dtype=np.int64), ring.struct) % ring._moduli_arr[:, None, None]
    return flat.reshape(d * f, d * f)


def inverse_mod(T, N):
    """T^-1 over Z/N, for T invertible mod every prime of N: by Gauss-Jordan
    over Python ints mod each prime power q of N, where every column has a
    unit pivot (Z/q is local), joined by the CRT.  Over Z/N itself a column
    can have none: mod 6 a first column (0, 0, 3, 0, 0, 2)."""
    D = len(T)
    inverse = np.zeros((D, D), dtype=object)
    for p, k in factorize(N):
        q = p**k
        M = [[int(T[i, j]) % q for j in range(D)] + [int(i == j) for j in range(D)] for i in range(D)]
        for c in range(D):
            r = next(r for r in range(c, D) if M[r][c] % p)
            M[c], M[r] = M[r], M[c]
            inv = pow(M[c][c], -1, q)
            M[c] = [v * inv % q for v in M[c]]
            for r in range(D):
                if r != c and M[r][c]:
                    f = M[r][c]
                    M[r] = [(v - f * w) % q for v, w in zip(M[r], M[c])]
        crt = N // q * pow(N // q, -1, q)  # 1 mod q, 0 mod N/q
        inverse += np.asarray([row[D:] for row in M], dtype=object) * crt
    return inverse % N


# ---------------------------------------------------------------------------
# submodules and center preservation, one generator at a time


def unit_basis(A, i):
    """Flat vector of e_i = 1 e_i."""
    v = np.zeros(A.dim, dtype=np.int64)
    f = A.base.flatten_len
    v[i * f : (i + 1) * f] = A.base.unit_flat
    return v


def basis_flat(A, i, s):
    """Flat vector of b_s e_i, the s-th ring coordinate generator times e_i."""
    v = np.zeros(A.dim, dtype=np.int64)
    v[i * A.base.flatten_len + s] = 1
    return v


def scalar_mul_flat(A, r, x):
    """Flat coordinates of r*x for a base-ring element r."""
    block = A.base.mul_matrix(r.coords)
    x = np.reshape(x, (A.rank, -1))
    out = linalg.einsum_mod("uv,iv->iu", block, x, moduli=A._moduli_arr.reshape(x.shape), N=A._N)
    return out.reshape(-1)


def scalars_flat_loop(A):
    """Rows b_s * 1 for the base ring's coordinate generators b_s."""
    gens = (basis_elem(A.base, s) for s in range(A.base.flatten_len))
    return np.asarray([scalar_mul_flat(A, b, A.unit_flat) for b in gens])


def expand_ideal_loop(A, ideal):
    """The two-sided ideal I*A, spanned by every g * b_s e_i."""
    gens = []
    for g in ideal.generators():
        for i in range(A.rank):
            for s in range(A.base.flatten_len):
                gens.append(scalar_mul_flat(A, g, basis_flat(A, i, s)))
    if not gens:
        gens = [np.zeros(A.dim, dtype=np.int64)]
    return linalg.Subgroup(np.asarray(gens), A.moduli)


def center_preservation_loop(f):
    """Images of source-center generators must commute with the whole
    target, checked one generator at a time."""
    pre = _azumaya_preconditions(f)
    pre_met = (
        pre["hom_verified"]
        and pre["source_azumaya"]
        and pre["target_azumaya"]
        and pre["source_constant_rank"] == pre["target_constant_rank"]
        and pre["target_base_reduced"]
    )
    tgt = f.target
    for g in center(f.source).generators():
        img = f.apply_flat(g)
        # column alpha is img * eps_alpha - eps_alpha * img
        comm = (left_mul_matrix_dense(tgt, img) - right_mul_matrix_dense(tgt, img)) % tgt._moduli_arr[:, None]
        bad = np.flatnonzero(comm.any(axis=0))
        if bad.size:
            alpha = int(bad[0])
            return CheckReport(
                check="center_preservation",
                status=CONTRADICTS if pre_met else FAIL,
                witness={
                    "center_generator": g.tolist(),
                    "image": img.tolist(),
                    "noncommuting_coordinate": alpha,
                    "commutator": comm[:, alpha].tolist(),
                },
                preconditions=pre,
            )
    return CheckReport(check="center_preservation", status=PASS, preconditions=pre)


# ---------------------------------------------------------------------------
# the dense contractions of the structure tensor that the sparse join
# replaced: the axiom check, the enveloping map and the hom check


def verify_axioms_dense(A):
    """The checked build's axiom check as one D^3 einsum pair per first
    factor; raises AlgebraError at the first failing triple."""
    S, mod, N = A.struct, A._moduli_arr, A._N
    for a in range(A.dim):
        left = linalg.einsum_mod("bk,kcm->bcm", S[a], S, moduli=mod, N=N)
        right = linalg.einsum_mod("bck,km->bcm", S, S[a], moduli=mod, N=N)
        bad = np.argwhere((left != right).any(axis=2))
        if bad.size:
            raise AlgebraError(f"associativity fails on basis triple {tuple(int(x) for x in (a, *bad[0]))}")
    u = A.unit_flat
    lu = linalg.einsum_mod("i,ijk->jk", u, S, moduli=mod, N=N)
    ru = linalg.einsum_mod("j,ijk->ik", u, S, moduli=mod, N=N)
    eye = np.eye(A.dim, dtype=np.int64) % mod
    if np.any(lu != eye) or np.any(ru != eye):
        raise AlgebraError("unit vector is not a two-sided unit")


def env_map_flat_dense(A):
    """`env_map_flat` from two dense contractions, B[a, t, m] =
    (eps_a e_t)_m and (eps_a e_t) e_j = sum_k B[a, t, k] B[k, j, :], then
    one transpose into the flattened layout."""
    d, f, D = A.rank, A.base.flatten_len, A.dim
    E = np.asarray([unit_basis(A, t) for t in range(d)], dtype=np.int64)
    B = linalg.einsum_mod("tj,ajk->atk", E, A.struct, moduli=A._moduli_arr, N=A._N)
    C = linalg.einsum_mod("atk,kjm->atjm", B, B, moduli=A._moduli_arr, N=A._N)
    # C axes: (alpha=(i,s), t, j, m=(u,s')) -> rows (u,t,s'), cols (i,j,s)
    F = C.reshape(d, f, d, d, d, f).transpose(4, 2, 5, 0, 3, 1).reshape(d * d * f, d * d * f)
    moduli = tuple(A.base.moduli) * (d * d)
    return F, moduli, moduli


def hom_refutation_dense(matrix, source, target):
    """`rings.hom_refutation` with its left side f(e_a e_b) as one dense
    (D^2, D) by (D, T) contraction."""
    if not linalg.check_well_defined(matrix, source.moduli, target.moduli):
        return {"condition": "well-defined"}
    moduli, N = target._moduli_arr, max(source._N, target._N)
    unit = linalg.einsum_mod("j,ij->i", source.unit_flat, matrix, moduli=moduli, N=N)
    if not np.array_equal(unit, target.unit_flat):
        return {"condition": "unit"}
    D = len(source.unit_flat)
    images = matrix.T
    lhs = linalg.einsum_mod("aj,ij->ai", source.struct.reshape(D * D, D), matrix, moduli=moduli, N=N)
    rhs = target.mul_batch(np.repeat(images, D, axis=0), np.tile(images, (D, 1)))
    bad = np.flatnonzero((lhs != rhs).any(axis=1))
    if bad.size:
        return {"condition": "multiplicative", "pair": [int(bad[0]) // D, int(bad[0]) % D]}
    return None


def hom_refutation_full(matrix, source, target):
    """`rings.hom_refutation` over every pair of coordinate generators, as
    it checked before algebras recorded their ring generators: on a copy of
    an algebra source built from its entries, which carries the identity
    rows."""
    if isinstance(source, Algebra):
        index, values, _ = source._sparse_rows
        source = Algebra(source.base, (index, values), source.unit_flat, label=source.label, check=False)
        assert np.array_equal(source.generators, np.eye(source.dim, dtype=np.int64))
    return rings.hom_refutation(matrix, source, target)


# ---------------------------------------------------------------------------
# the dense contractions that `Algebra.mul_matrices` replaced


def left_mul_matrix_dense(A, x):
    """Matrix of y -> x*y on flattened coordinates."""
    return linalg.einsum_mod("i,ijk->kj", x, A.struct, moduli=A._moduli_arr[:, None], N=A._N)


def right_mul_matrix_dense(A, x):
    """Matrix of y -> y*x on flattened coordinates."""
    return linalg.einsum_mod("j,ijk->ki", x, A.struct, moduli=A._moduli_arr[:, None], N=A._N)


def center_dense(A):
    """Z(A) as the kernel of z -> (z e_a - e_a z)_a over all coordinate
    generators, one D^2 x D matrix from two transposes of the tensor."""
    D, S = A.dim, A.struct
    # row (a, k), column i: (e_i e_a - e_a e_i)_k
    stacked = (S.transpose(1, 2, 0) - S.transpose(0, 2, 1)).reshape(D * D, D)
    return linalg.kernel_additive(stacked, A.moduli, A.moduli * D)


def commutator_matrix_dense(A, X):
    """`algebras.commutator_matrix` as one einsum of the rows X with the
    antisymmetrized tensor."""
    S = (A.struct - A.struct.transpose(1, 0, 2)) % A._moduli_arr
    C = linalg.einsum_mod("ti,ijk->tkj", X, S, moduli=A._moduli_arr[:, None], N=A._N)
    return C.reshape(-1, A.dim)


def env_b_dense(A):
    """B[a, t, m] = (eps_a e_t)_m of `algebras.env_map_flat`, one reduced
    contraction of the tensor with the base ring's unit."""
    d, f, D = A.rank, A.base.flatten_len, A.dim
    return linalg.einsum_mod(
        "atsk,s->atk", A.struct.reshape(D, d, f, D), A.base.unit_flat, moduli=A._moduli_arr, N=A._N
    )


def splitting_phi_dense(A, B, P, q):
    """The matrix `algebras._local_splitting` returns, from the normalized
    basis B of A e (column j is b_j) and the pivots P: entry (i, j),
    coordinate s, of the image of e_a is (e_a b_j)[P_(i, s)], mod q."""
    n, f, D = math.isqrt(A.rank), A.base.flatten_len, A.dim
    phi = linalg.einsum_mod("abi,bj->ija", A.struct[:, :, P], B, moduli=q, N=A._N)
    return phi.reshape(n, f, n, D).transpose(0, 2, 1, 3).reshape(n * n * f, D)


# ---------------------------------------------------------------------------
# fibers and radicals


def fiber_loop(A):
    """`is_azumaya`'s status and the repr of its first failing maximal ideal
    (None on a pass or a rank that is not a square), by the enveloping map
    of every fiber over its residue field, bijective iff the fiber is
    central simple: the route `is_azumaya` took on a certificate's miss
    before it decided each fiber by its center and its radical."""
    if math.isqrt(A.rank) ** 2 != A.rank:
        return "fail", None
    for m in rings.maximal_ideals(A.base):
        if not linalg.is_bijective_additive(*env_map_flat(quotient_algebra(A, m)[0])):
            return "fail", repr(m.data)
    return "pass", None


def ideal_closure(A, rows):
    """The two-sided ideal the rows generate, as a `linalg.Subgroup`: their
    span grown by every product with a flat coordinate generator, on either
    side, until a round adds nothing."""
    E, span = np.eye(A.dim, dtype=np.int64), linalg.Subgroup(rows, A.moduli)
    while True:
        G = span.generators()
        X, Y = np.repeat(E, len(G), axis=0), np.tile(G, (A.dim, 1))
        grown = linalg.Subgroup(np.vstack([G, A.mul_batch(X, Y), A.mul_batch(Y, X)]), A.moduli)
        if grown == span:
            return span
        span = grown


def is_nilpotent_ideal(A, ideal):
    """Whether the products of D + 1 elements of the ideal (a Subgroup) all
    vanish, by D rounds of products of the last power's generators with
    the ideal's."""
    G = power = ideal.generators()
    for _ in range(A.dim):
        if not power.any():
            return True
        X, Y = np.repeat(power, len(G), axis=0), np.tile(G, (len(power), 1))
        power = linalg.Subgroup(A.mul_batch(X, Y), A.moduli).generators()
    return not power.any()


def trace_form_radical(A):
    """The kernel of the trace form (x, y) -> tr(L_xy) of an algebra over a
    field of characteristic p, as a Subgroup: the radical when p > D
    (Dickson), from the dense left multiplications of every e_a e_b."""
    D, p = A.dim, A.moduli[0]
    E = np.eye(D, dtype=np.int64)
    products = A.mul_batch(np.repeat(E, D, axis=0), np.tile(E, (D, 1)))
    T = np.asarray([np.trace(left_mul_matrix_dense(A, x)) for x in products]).reshape(D, D) % p
    return linalg.Subgroup(linalg.kernel_mod(T, p), A.moduli)


def check_well_defined_spread(H, src_moduli, tgt_moduli):
    """Whether N_j H[i][j] = 0 mod M_i for every entry, from a full matrix
    of steps M_i / gcd(N_j, M_i)."""
    H = np.asarray(H)
    if H.shape != (len(tgt_moduli), len(src_moduli)):
        raise linalg.IllFormedMap("matrix shape does not match the moduli vectors")
    dtype = linalg._dtype(max((*src_moduli, *tgt_moduli), default=1))
    src, src_at = np.unique(np.asarray(src_moduli, dtype=dtype), return_inverse=True)
    tgt, tgt_at = np.unique(np.asarray(tgt_moduli, dtype=dtype), return_inverse=True)
    step = (tgt[:, None] // np.gcd(src, tgt[:, None]))[np.ix_(tgt_at, src_at)]
    checked = step > 1
    return not np.any(H[checked] % step[checked])


def poly_divides(d, f, p):
    """Whether the monic d divides f over F_p (coefficients low to high)."""
    rem = list(f)
    while len(rem) >= len(d):
        lead = rem[-1]
        if lead:
            shift = len(rem) - len(d)
            for i, c in enumerate(d):
                rem[shift + i] = (rem[shift + i] - lead * c) % p
        rem.pop()
    return all(c == 0 for c in rem)


def irreducible_trial(p, f):
    """Whether the monic f of degree k >= 2 is irreducible over F_p: it has
    no root and no monic divisor of degree 2..k/2."""
    k = len(f) - 1
    if any(sum(c * pow(x, i, p) for i, c in enumerate(f)) % p == 0 for x in range(p)):
        return False
    return not any(
        poly_divides(list(tail) + [1], list(f), p)
        for deg in range(2, k // 2 + 1)
        for tail in itertools.product(range(p), repeat=deg)
    )


def basis_elem(R, s):
    """The s-th additive coordinate generator of R (t^s for a Galois field)."""
    return R.element([int(t == s) for t in range(R.flatten_len)])


def ring_elements(R):
    """Every element of a small ring R, in coordinate order."""
    return [R.element(coords) for coords in element_coords(R)]


def identity_hom(A):
    return AlgebraHom(A, A, np.eye(A.dim, dtype=np.int64), label="id")


def certified_hom(A):
    """The matrix `splitting(A)` returns, re-verified: as a hom into
    M_n(R) it must pass the hom check and be bijective."""
    H = splitting(A)
    assert H is not None, A.label
    hom = AlgebraHom(A, matrix_algebra(A.base, math.isqrt(A.rank)), H)
    assert hom.is_verified and hom.is_bijective(), (A.label, hom.refutation)
    return hom


def solve_mod(A, b, N):
    """One solution of A x = b over Z/N, or raise NoSolution."""
    rows, _ = linalg._kernel_form(A, N)
    return linalg._solve(rows, np.asarray(b, dtype=rows.dtype) % N, N)


# ---------------------------------------------------------------------------
# ring-entry matrices and the Howell form with certificate


class UnsupportedRing(LinalgError):
    pass


class Matrix:
    """Dense matrix with entries in a base ring."""

    def __init__(self, ring, rows, cols, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise LinalgError("entry count does not match the shape")
        for e in entries:
            if e.ring != ring:
                raise LinalgError("entry from a different ring")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_int_rows(cls, ring, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if ring.flatten_len != 1:
            raise LinalgError("integer entries only make sense for ZMod rings")
        entries = [ring.element((v,)) for row in data for v in row]
        return cls(ring, rows, cols, entries)

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def flattened(self):
        """Z-linear matrix on flattened coordinates (f x f block per entry)."""
        f = self.ring.flatten_len
        if f == 1:
            return np.asarray(
                [[self.entry(i, j).coords[0] for j in range(self.cols)] for i in range(self.rows)],
                dtype=np.int64,
            ).reshape(self.rows, self.cols)
        out = np.zeros((self.rows * f, self.cols * f), dtype=np.int64)
        for i in range(self.rows):
            for j in range(self.cols):
                block = self.ring.mul_matrix(self.entry(i, j).coords)
                out[i * f : (i + 1) * f, j * f : (j + 1) * f] = block
        return out

    def moduli_rows(self):
        return tuple(self.ring.moduli) * self.rows

    def moduli_cols(self):
        return tuple(self.ring.moduli) * self.cols

    def apply(self, vec_flat):
        return self.flattened() @ np.asarray(vec_flat, dtype=np.int64)

    def __repr__(self):
        return f"Matrix({self.ring!r}, {self.rows}x{self.cols})"


class HowellResult:
    """Howell form of a ZMod matrix together with a transformation certificate
    T satisfying H = T M over Z/N."""

    def __init__(self, H, T, pivots, modulus):
        self.H = H
        self.T = T
        self.pivots = pivots
        self.modulus = modulus


def howell_form(matrix):
    """Howell normal form of a Matrix over ZMod(N), with certificate."""
    if not isinstance(matrix.ring, ZMod):
        raise UnsupportedRing("howell_form expects a matrix over ZMod")
    N = matrix.ring.n
    M = np.asarray(
        [[matrix.entry(i, j).coords[0] for j in range(matrix.cols)] for i in range(matrix.rows)],
        dtype=np.int64,
    ).reshape(matrix.rows, matrix.cols)
    aug = np.concatenate([M, np.eye(matrix.rows, dtype=np.int64)], axis=1)
    Haug = howell(aug, N)
    mask = Haug[:, : matrix.cols].any(axis=1) if Haug.size else np.zeros(0, dtype=bool)
    Haug = Haug[mask]
    H = Haug[:, : matrix.cols]
    T = Haug[:, matrix.cols :]
    pivots = [int(np.nonzero(row)[0][0]) for row in H]
    assert not ((T @ M - H) % N).any()
    ring = matrix.ring
    Hmat = Matrix(ring, H.shape[0], matrix.cols, [ring.element((int(v),)) for v in H.ravel()])
    return HowellResult(Hmat, T, pivots, N)


# ---------------------------------------------------------------------------
# row-at-a-time eliminations over Z/N and F_p


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


def howell_rowloop(mat, N):
    """Howell normal form of the rows of `mat` over Z/N.

    Returns an array with zero rows pruned, rows ordered by pivot column,
    each pivot the gcd-normalized leading entry, and entries above a pivot
    reduced below it.  The row span (including the multiples contributed by
    zero divisors, via annihilator rows) is preserved exactly.
    """
    A = np.asarray(mat, dtype=np.int64) % N
    if A.ndim != 2:
        raise LinalgError("expected a 2d array")
    ncols = A.shape[1]
    rows = [r for r in A if r.any()]
    pivots = []
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(rows)) if rows[i][c]]
            if not nz:
                break
            # pick the entry with the smallest gcd with N as pivot candidate
            i0 = min(nz, key=lambda i: math.gcd(int(rows[i][c]), N))
            rows[r], rows[i0] = rows[i0], rows[r]
            a = int(rows[r][c])
            g = math.gcd(a, N)
            rows[r] = rows[r] * _unit_lift(a, N) % N
            # eliminate every lower row whose entry is a multiple of g
            stubborn = []
            for i in range(r + 1, len(rows)):
                e = int(rows[i][c])
                if e == 0:
                    continue
                if e % g == 0:
                    rows[i] = (rows[i] - (e // g) * rows[r]) % N
                else:
                    stubborn.append(i)
            if not stubborn:
                break
            # fold one stubborn row into the pivot row to shrink the gcd
            i = stubborn[0]
            b = int(rows[i][c])
            _, s, t = _xgcd(g, b)
            combined = (s * rows[r] + t * rows[i]) % N
            rows[i] = ((-(b // math.gcd(g, b))) * rows[r] + (g // math.gcd(g, b)) * rows[i]) % N
            rows[r] = combined
        if r < len(rows) and rows[r][c]:
            g = int(rows[r][c])
            # annihilator row keeps the span saturated over zero divisors
            q = N // g
            ann = rows[r] * q % N
            if ann.any():
                rows.append(ann)
            for i in range(r):
                e = int(rows[i][c])
                if e >= g:
                    rows[i] = (rows[i] - (e // g) * rows[r]) % N
            pivots.append(c)
            r += 1
    rows = rows[:r]
    if not rows:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.vstack(rows)


def rank_mod_p_rowloop(mat, p):
    """Rank mod a prime by forward elimination, one modular inverse per
    pivot.

    Row updates form products of two residues, below (p-1)^2; that fits
    int64 only while (p-1)^2 < 2^63 (p <= 3,037,000,499), so larger primes
    eliminate over exact Python ints (object arrays)."""
    dtype = np.int64 if (p - 1) ** 2 < 2**63 else object
    A = np.asarray(mat, dtype=dtype) % p
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        below = A[r + 1 :, c]
        sel = np.nonzero(below)[0]
        if sel.size:
            A[r + 1 + sel] = (A[r + 1 + sel] - np.outer(below[sel], A[r])) % p
        r += 1
    return r


# ---------------------------------------------------------------------------
# per-kind base-ring arithmetic on coordinate tuples


def gf_reduction(F):
    """Coefficients of t^(k+j), j = 0..k-2, in the basis 1..t^(k-1)."""
    p, k = F.p, F.k
    rows = []
    cur = [(-c) % p for c in F.f[:k]]  # t^k
    rows.append(tuple(cur))
    for _ in range(k - 2):
        nxt = [0] + cur[: k - 1]
        lead = cur[k - 1]
        if lead:
            for s in range(k):
                nxt[s] = (nxt[s] + lead * rows[0][s]) % p
        cur = [c % p for c in nxt]
        rows.append(tuple(cur))
    return rows


def poly_mul_mod(a, b, p, reduction):
    """Multiply coefficient tuples mod p, reducing t^k.. via `reduction`."""
    k = len(reduction[0]) if reduction else len(a)
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for deg in range(len(prod) - 1, k - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            red = reduction[deg - k]
            for s in range(k):
                prod[s] = (prod[s] + c * red[s]) % p
    return tuple(prod[:k])


def _split(R, coords):
    out, off = [], 0
    for r in R.factors:
        out.append(tuple(coords[off : off + r.flatten_len]))
        off += r.flatten_len
    return out


def one_coords(R):
    if isinstance(R, ZMod):
        return (1,)
    if isinstance(R, GaloisField):
        return (1,) + (0,) * (R.k - 1)
    return tuple(c for r in R.factors for c in one_coords(r))


def mul_coords(R, a, b):
    if isinstance(R, ZMod):
        return ((a[0] * b[0]) % R.n,)
    if isinstance(R, GaloisField):
        if R.k == 1:
            return ((a[0] * b[0]) % R.p,)
        return poly_mul_mod(a, b, R.p, gf_reduction(R))
    assert isinstance(R, ProductRing)
    parts = zip(R.factors, _split(R, a), _split(R, b))
    return tuple(c for r, x, y in parts for c in mul_coords(r, x, y))


def inv_coords(R, a):
    """Inverse coordinates, or raise NotAUnit."""
    if isinstance(R, ZMod):
        try:
            return (pow(a[0], -1, R.n),)
        except ValueError:
            raise NotAUnit(f"{a[0]} is not a unit mod {R.n}") from None
    if isinstance(R, GaloisField):
        if all(c == 0 for c in a):
            raise NotAUnit("zero is not a unit")
        # x^(q-2) = x^(-1) in GF(q)*
        e, result, base = R.size - 2, one_coords(R), tuple(a)
        while e:
            if e & 1:
                result = mul_coords(R, result, base)
            base = mul_coords(R, base, base)
            e >>= 1
        return result
    return tuple(c for r, x in zip(R.factors, _split(R, a)) for c in inv_coords(r, x))


def base_hom_refutation(source, target, matrix):
    """The InvalidBaseHom message the pairwise check gives for an integer
    matrix on flattened coordinates, or None when it is a unital ring hom."""
    H = [[int(v) for v in row] for row in np.asarray(matrix).tolist()]
    tmod = target.moduli

    def apply(coords):
        return tuple(
            sum(H[i][j] * c for j, c in enumerate(coords)) % m for i, m in enumerate(tmod)
        )

    for i, m in enumerate(tmod):
        for j, n in enumerate(source.moduli):
            if n * H[i][j] % m:
                return "map is not well-defined on the coordinate moduli"
    if apply(one_coords(source)) != one_coords(target):
        return "unit is not preserved"
    f = source.flatten_len
    basis = [tuple(int(s == t) for t in range(f)) for s in range(f)]
    for j in range(f):
        for k in range(j, f):
            lhs = apply(mul_coords(source, basis[j], basis[k]))
            if lhs != mul_coords(target, apply(basis[j]), apply(basis[k])):
                return f"multiplicativity fails on coordinate pair ({j}, {k})"
    return None


# ---------------------------------------------------------------------------
# trial-division factoring


def is_prime_trial(n):
    if n < 2:
        return False
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def factorize_trial(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# ideals of small rings as element sets


def element_coords(R):
    return list(itertools.product(*(range(m) for m in R.moduli)))


def add_coords(R, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, R.moduli))


def ideal_elements(R, gens):
    """The ideal generated by coordinate tuples, as a frozenset of
    coordinate tuples: every r * g, closed under addition."""
    products = {mul_coords(R, r, tuple(g)) for r in element_coords(R) for g in gens}
    ideal = {(0,) * len(R.moduli)}
    frontier = list(ideal)
    while frontier:
        x = frontier.pop()
        for g in products:
            y = add_coords(R, x, g)
            if y not in ideal:
                ideal.add(y)
                frontier.append(y)
    return frozenset(ideal)


def all_ideals(R):
    """Every ideal of R: the principal ideals and their sums."""
    principal = {ideal_elements(R, [x]) for x in element_coords(R)}
    ideals, frontier = set(principal), list(principal)
    while frontier:
        I = frontier.pop()
        for P in principal:
            S = frozenset(add_coords(R, a, b) for a in I for b in P)
            if S not in ideals:
                ideals.add(S)
                frontier.append(S)
    return ideals


def maximal_ideal_sets(R):
    """The proper ideals of R contained in no other proper ideal."""
    proper = [I for I in all_ideals(R) if len(I) < R.size]
    return {I for I in proper if not any(I < J for J in proper)}


def nilpotent_elements(R):
    """The x with x^k = 0 for some k <= |R|."""
    zero = (0,) * len(R.moduli)
    out = set()
    for x in element_coords(R):
        power = x
        for _ in range(R.size):
            if power == zero:
                out.add(x)
                break
            power = mul_coords(R, power, x)
    return out


def gf_default_search(p, k):
    """The first monic f of degree k in lexicographic order of its tail
    (f_0, ..., f_(k-1)) that `GaloisField` accepts, one ring per candidate."""
    for tail in itertools.product(range(p), repeat=k):
        try:
            return GaloisField(p, list(tail) + [1]).f
        except ReduciblePolynomial:
            continue
    raise AssertionError("no irreducible polynomial")


def structure_tensor_einsum(base, table, unit):
    """`structure_tensor_dense` as two einsums over the ring's multiplication
    tensor, reduced in between."""
    f, N, moduli, M = base.flatten_len, base._N, base._moduli_arr, base.struct
    unit = np.asarray(unit, dtype=np.int64).reshape(-1, f) % moduli
    d = len(unit)
    table = np.asarray(table, dtype=np.int64).reshape(d, d, d, f) % moduli
    scaled = linalg.einsum_mod("ijkw,vwu->ijkvu", table, M, moduli=moduli, N=N)
    S = linalg.einsum_mod("stv,ijkvu->isjtku", M, scaled, moduli=moduli, N=N)
    return S.reshape(d * f, d * f, d * f), unit.reshape(-1)


def structure_tensor_dense(base, table, unit):
    """Integer structure tensor and flat unit of a free algebra over `base`.

    `table` holds the base-ring coordinates of e_i * e_j (shape (d, d, d, f)),
    `unit` those of 1 (shape (d, f)).  The result is
    struct[(i, s), (j, t), (k, u)] = ((b_s b_t) * table[i, j, k])_u: one
    (d^3, f) by (f, f^3) matrix product (`linalg.matmul_mod`) of the table
    with the ring's triple products ((b_s b_t) b_w)_u.
    """
    f, N, moduli, M = base.flatten_len, base._N, base._moduli_arr, base.struct
    unit = np.asarray(unit, dtype=np.int64).reshape(-1, f) % moduli
    d = len(unit)
    table = np.asarray(table, dtype=np.int64).reshape(-1, f) % moduli
    triple = linalg.einsum_mod("stv,vwu->wstu", M, M, moduli=moduli, N=N).reshape(f, -1)
    S = linalg.matmul_mod(table, triple, moduli=np.tile(moduli, f * f), N=N)  # row (i, j, k), column (s, t, u)
    return S.reshape((d,) * 3 + (f,) * 3).transpose(0, 3, 1, 4, 2, 5).reshape((d * f,) * 3), unit.reshape(-1)


def ring_table_dense(A):
    """(d, d, d, f) array of the base-ring coordinates of e_i * e_j, read off
    the algebra with one batched product over all pairs of basis vectors."""
    d, f = A.rank, A.base.flatten_len
    E = np.kron(np.eye(d, dtype=np.int64), A.base.one().coords)  # row i is e_i
    return A.mul_batch(np.repeat(E, d, axis=0), np.tile(E, (d, 1))).reshape(d, d, d, f)


def entries(S):
    """The nonzero entries ((I, J, K), V) of a dense structure tensor, as
    `Algebra` takes them."""
    index, values, _ = linalg.sparse_rows(np.asarray(S, dtype=np.int64))
    return index, values


def table_algebra(base, table, unit, **kwargs):
    """The algebra of a dense (d, d, d, f) table of base-ring structure
    constants and its (d, f) unit, through `structure_tensor_dense`."""
    S, unit_flat = structure_tensor_dense(base, table, unit)
    return Algebra(base, entries(S), unit_flat, **kwargs)


def embed_remainder(x, moduli, L):
    """`linalg._embed` with its remainder and scaling passes always run."""
    dtype = linalg._dtype(L)
    moduli = np.asarray(moduli, dtype=dtype)
    x = np.remainder(np.asarray(x, dtype=dtype), moduli, order="C")
    x *= L // moduli
    return x

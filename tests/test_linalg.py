import ast
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import azumaya
from azumaya.algebras import center, is_central, matrix_algebra, product_rows
from azumaya.linalg import (
    IllFormedMap,
    NoSolution,
    Subgroup,
    check_well_defined,
    einsum_mod,
    howell,
    image_order_and_kernel,
    is_bijective_additive,
    kernel_additive,
    kernel_mod,
    rank_mod_p,
    solve_additive,
)
from azumaya.rings import GaloisField, ZMod, factorize
from azumaya import linalg
from ring_oracles import (
    Matrix,
    check_well_defined_spread,
    embed_remainder,
    UnsupportedRing,
    howell_form,
    howell_rowloop,
    rank_mod_p_rowloop,
    solve_mod,
)


# ---------------------------------------------------------------------------
# Howell normal form


def test_howell_saturation_mod4():
    # the span of [[2, 0], [0, 2]] mod 4 contains [2, 2]; the Howell form
    # keeps both generators
    H = howell([[2, 0], [0, 2]], 4)
    assert H.tolist() == [[2, 0], [0, 2]]


def test_howell_canonical_equal_spans():
    # [[1,1],[0,2]] and [[1,3],[0,2]] span the same submodule of (Z/4)^2
    H1 = howell([[1, 1], [0, 2]], 4)
    H2 = howell([[1, 3], [0, 2]], 4)
    assert H1.tolist() == H2.tolist()


def test_howell_idempotent_examples():
    for mat, N in [
        ([[2, 0], [0, 2]], 4),
        ([[1, 1], [0, 2]], 4),
        ([[6, 3], [4, 2]], 12),
        ([[2, 4, 6]], 8),
    ]:
        H = howell(mat, N)
        assert howell(H, N).tolist() == H.tolist()


def test_howell_annihilator_row():
    # 2*[2] = 0 mod 4, but [2]*2 = [0]; over Z/8 the row [2] has
    # annihilator 4*[2] = [0]; a genuinely saturating case: [4] mod 8
    H = howell([[2, 1]], 8)
    # 4*(2,1) = (0,4) must be represented
    sub = Subgroup([[2, 1]], (8, 8))
    assert sub.contains([0, 4])
    assert sub.order == 8


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12),
    st.lists(st.lists(st.integers(0, 20), min_size=3, max_size=3), min_size=1, max_size=4),
)
def test_howell_idempotence_property(N, rows):
    H = howell(np.asarray(rows), N)
    assert howell(H, N).tolist() == H.tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12),
    st.lists(st.lists(st.integers(0, 20), min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(st.integers(0, 20), min_size=3, max_size=3),
)
def test_howell_preserves_membership(N, rows, combo_row):
    # any Z-combination of the input rows is contained in the Howell span
    A = np.asarray(rows) % N
    sub = Subgroup(A, (N,) * 3)
    coeffs = np.asarray(combo_row[: len(rows)])
    vec = (coeffs[: len(rows)] @ A) % N
    assert sub.contains(vec)


# ---------------------------------------------------------------------------
# kernels and solving


def test_kernel_mod4():
    K = kernel_mod(np.asarray([[2]]), 4)
    sub = Subgroup(K, (4,))
    assert sub.order == 2
    assert sub.contains([2])


def test_solve_mod():
    x = solve_mod(np.asarray([[2]]), np.asarray([2]), 4)
    assert (2 * x[0]) % 4 == 2


def test_solve_no_solution():
    with pytest.raises(NoSolution):
        solve_mod(np.asarray([[2]]), np.asarray([1]), 4)


def test_rank_mod_p():
    assert rank_mod_p(np.asarray([[1, 2], [2, 4]]), 5) == 1
    assert rank_mod_p(np.asarray([[1, 0], [0, 1]]), 2) == 2
    assert rank_mod_p(np.zeros((2, 2), dtype=np.int64), 3) == 0


def test_rank_mod_large_prime_is_fast():
    # one modular inverse per pivot, no table of size p
    p = 10_000_019
    started = time.perf_counter()
    assert rank_mod_p(np.asarray([[3, 5], [7, 11]]), p) == 2
    assert rank_mod_p(np.asarray([[2, 4], [1, 2]]), p) == 1
    assert time.perf_counter() - started < 0.5


def test_rank_mod_p_beyond_int64_products():
    # (p-1)^2 >= 2^63: elimination runs over exact Python ints
    p = 4_000_000_007
    rng = random.Random(0)
    for _ in range(200):
        a, b, c, d = (rng.randrange(1, p) for _ in range(4))
        rank_one = [[a * c % p, a * d % p], [b * c % p, b * d % p]]
        assert rank_mod_p(rank_one, p) == 1
    assert rank_mod_p([[p - 1, p - 2], [p - 3, p - 5]], p) == 2
    assert rank_mod_p([[p - 1, 1], [1, p - 1]], p) == 1


# ---------------------------------------------------------------------------
# mixed-moduli groups


def test_subgroup_mixed_moduli():
    # subgroup of Z/2 x Z/4 generated by (1, 2)
    sub = Subgroup([[1, 2]], (2, 4))
    assert sub.order == 2
    assert sub.contains([1, 2])
    assert sub.contains([0, 0])
    assert not sub.contains([1, 0])


def test_subgroup_equality_canonical():
    a = Subgroup([[1, 1], [0, 2]], (4, 4))
    b = Subgroup([[1, 3], [0, 2]], (4, 4))
    assert a == b
    assert hash(a) == hash(b)


def test_subgroup_intersection():
    a = Subgroup([[2, 0], [0, 1]], (4, 4))
    b = Subgroup([[1, 0], [0, 2]], (4, 4))
    inter = a.intersection(b)
    assert inter.order == 4  # {(2a, 2b)}
    assert inter.contains([2, 2])
    assert not inter.contains([1, 0])


def test_subgroup_containment_by_generators():
    small = Subgroup([[2, 0]], (4, 4))
    big = Subgroup([[1, 0]], (4, 4))
    assert all(big.contains(g) for g in small.generators())
    assert not all(small.contains(g) for g in big.generators())


# ---------------------------------------------------------------------------
# additive maps


def test_well_defined_rejected():
    # Z/2 -> Z/4 via multiplication by 1 is not well-defined (2*1 != 0 mod 4)
    with pytest.raises(IllFormedMap):
        kernel_additive(np.asarray([[1]]), (2,), (4,))


def test_kernel_additive_mixed():
    # Z/2 -> Z/4, x -> 2x is well-defined with trivial kernel
    ker = kernel_additive(np.asarray([[2]]), (2,), (4,))
    assert ker.order == 1


def test_bijective_additive():
    assert is_bijective_additive(np.asarray([[1, 1], [0, 1]]), (4, 4), (4, 4))
    assert not is_bijective_additive(np.asarray([[2, 0], [0, 1]]), (4, 4), (4, 4))
    # order mismatch
    assert not is_bijective_additive(np.asarray([[2]]), (2,), (4,))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([4, 6, 12, 30, 49]), st.integers(1, 4), st.data())
def test_bijective_same_modulus_matches_howell_kernel(N, n, data):
    # full rank mod every p | N against the Howell kernel of the same map
    entries = st.integers(0, N - 1)
    H = np.asarray(
        data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    moduli = (N,) * n
    assert is_bijective_additive(H, moduli, moduli) == (
        kernel_additive(H, moduli, moduli).order == 1
    )


def test_solve_additive_no_solution():
    with pytest.raises(NoSolution):
        solve_additive(np.asarray([[3]]), np.asarray([1]), (12,), (12,))


def test_solve_additive_unit():
    x, ker = solve_additive(np.asarray([[5]]), np.asarray([1]), (12,), (12,))
    assert (5 * x[0]) % 12 == 1
    assert ker.order == 1


# ---------------------------------------------------------------------------
# ring-entry matrices


def test_matrix_flattened_gf():
    F4 = GaloisField.default(2, 2)
    t = F4.element((0, 1))
    M = Matrix(F4, 1, 1, [t])
    flat = M.flattened()
    assert flat.shape == (2, 2)
    # the flattened block is multiplication by t: 1 -> t, t -> t^2
    assert (flat @ np.asarray([1, 0]) % 2).tolist() == list(t.coords)
    assert (flat @ np.asarray([0, 1]) % 2).tolist() == list((t * t).coords)


def test_howell_form_certificate():
    R = ZMod(12)
    M = Matrix.from_int_rows(R, [[6, 3], [4, 2]])
    result = howell_form(M)
    H = np.asarray(
        [[result.H.entry(i, j).coords[0] for j in range(2)] for i in range(result.H.rows)]
    )
    orig = np.asarray([[6, 3], [4, 2]])
    assert not ((result.T @ orig - H) % 12).any()


def test_howell_form_requires_zmod():
    F4 = GaloisField.default(2, 2)
    M = Matrix(F4, 1, 1, [F4.one()])
    with pytest.raises(UnsupportedRing):
        howell_form(M)


# ---------------------------------------------------------------------------
# exactness at every modulus

M61 = 2**61 - 1  # prime
P4 = 4_000_000_007  # prime, (P4 - 1)^2 > 2^63


def test_well_defined_forms_no_product():
    assert check_well_defined([[P4 - 1]], (P4,), (P4,))
    assert check_well_defined([[M61 - 1, 1]], (M61, M61), (M61,))
    assert check_well_defined([[2]], (2,), (4,))
    assert not check_well_defined([[1]], (2,), (4,))
    assert not check_well_defined([[1]], (P4,), (2 * P4,))


# moduli sharing factors with each other, some near 2^62, some with
# (M - 1)^2 beyond int64
WELL_DEFINED_MODULI = [2, 3, 4, 6, 12, P4, 2 * P4, M61, 2 * M61, 3 * M61, 2**62, 2**62 + 57, 2**63 - 25]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(WELL_DEFINED_MODULI), min_size=1, max_size=5),
    st.lists(st.sampled_from(WELL_DEFINED_MODULI), min_size=1, max_size=5),
    st.data(),
)
def test_well_defined_matches_spread_steps(src, tgt, data):
    # a well-defined map, then about half the time one entry redrawn, so
    # both answers occur
    H = np.asarray(
        [[data.draw(st.integers(0, M - 1)) * (M // math.gcd(M, N)) % M for N in src] for M in tgt],
        dtype=np.int64,
    )
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, len(tgt) - 1)), data.draw(st.integers(0, len(src) - 1))
        H[i, j] = data.draw(st.integers(0, tgt[i] - 1))
    assert check_well_defined(H, src, tgt) == check_well_defined_spread(H, src, tgt)


def test_subgroup_order_beyond_int64_products():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c, d = (rng.randrange(1, P4) for _ in range(4))
        rank_one = [[a * c % P4, a * d % P4], [b * c % P4, b * d % P4]]
        sub = Subgroup(rank_one, (P4, P4))
        assert sub.order == P4
        assert sub.contains([c, d])


def test_subgroup_order_with_lcm_beyond_int64():
    moduli = (M61, 2**31 - 1)
    sub = Subgroup([[1, 1]], moduli)
    assert sub.order == moduli[0] * moduli[1]
    assert sub.contains([5, 5]) and sub.contains([0, 0])


def test_center_of_matrix_algebra_mod_mersenne_prime():
    A = matrix_algebra(ZMod(M61), 2)
    assert center(A).order == M61
    assert is_central(A)


def test_bijective_identity_mod_mersenne_prime_is_fast():
    started = time.perf_counter()
    assert is_bijective_additive(np.eye(2, dtype=np.int64), (M61, M61), (M61, M61))
    assert not is_bijective_additive([[1, 1], [1, 1]], (M61, M61), (M61, M61))
    assert time.perf_counter() - started < 0.5


# ---------------------------------------------------------------------------
# the forward pass against the row-loop eliminations in ring_oracles


def _divisors(N):
    return [d for d in range(1, N + 1) if N % d == 0]


@st.composite
def _matrix_mod(draw, N, max_rows, max_cols):
    """Rows scaled by divisors of N (so zero divisors and zero rows occur),
    with some columns zeroed."""
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(0, max_cols))
    entry = st.integers(0, N - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    scales = draw(st.lists(st.sampled_from(_divisors(N)), min_size=m, max_size=m))
    zero_cols = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    A = np.asarray([[s * x % N for x in row] for row, s in zip(rows, scales)], dtype=np.int64)
    A = A.reshape(m, n)
    A[:, np.asarray(zero_cols, dtype=bool)] = 0
    return A


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_howell_matches_rowloop(data):
    N = data.draw(st.integers(2, 64))
    A = data.draw(_matrix_mod(N, 8, 12))
    H = howell(A, N)
    assert H.tolist() == howell_rowloop(A, N).tolist()
    assert H.shape[1] == A.shape[1]


PRIMES = [2, 3, 5, 7, 13, 251, 65_537, 1_000_003, 10_000_019, P4]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 6), st.integers(1, 6), st.integers(0, 6), st.data())
def test_rank_mod_p_matches_rowloop(p, m, n, k, data):
    # B C has rank at most k, so deficient ranks occur at every prime
    entry = st.integers(0, p - 1)
    B = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    C = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    A = [[sum(B[i][t] * C[t][j] for t in range(k)) % p for j in range(n)] for i in range(m)]
    assert rank_mod_p(A, p) == rank_mod_p_rowloop(A, p)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 64), st.integers(1, 5), st.data())
def test_bijective_equal_moduli_matches_rank_oracle(N, n, data):
    entry = st.integers(0, N - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    scales = data.draw(st.lists(st.sampled_from(_divisors(N)), min_size=n, max_size=n))
    H = np.asarray([[s * x % N for x in row] for row, s in zip(rows, scales)], dtype=np.int64)
    moduli = (N,) * n
    full_rank = all(rank_mod_p_rowloop(H, p) == n for p, _ in factorize(N))
    assert is_bijective_additive(H, moduli, moduli) == full_rank


MIXED = [2, 3, 4, 6, 8, 9, 12]


@st.composite
def _additive_map(draw):
    """A well-defined map prod Z/N_j -> prod Z/M_i; the target is often a
    permutation of the source, so the group orders agree."""
    src = draw(st.lists(st.sampled_from(MIXED), min_size=1, max_size=4))
    if draw(st.booleans()):
        tgt = draw(st.permutations(src))
    else:
        tgt = draw(st.lists(st.sampled_from(MIXED), min_size=1, max_size=4))
    H = [
        [draw(st.integers(0, M - 1)) * (M // math.gcd(N, M)) % M for N in src]
        for M in tgt
    ]
    return np.asarray(H, dtype=np.int64), tuple(src), tuple(tgt)


@settings(max_examples=200, deadline=None)
@given(_additive_map())
def test_bijective_mixed_moduli_matches_kernel(case):
    H, src, tgt = case
    injective = kernel_additive(H, src, tgt).order == 1
    assert is_bijective_additive(H, src, tgt) == (math.prod(src) == math.prod(tgt) and injective)


@pytest.mark.parametrize(
    "H,src,tgt",
    [
        ([[3, 2]], (4, 6), (12,)),  # Z/4 x Z/6 -> Z/12, onto with kernel of order 2
        ([[6, 4]], (4, 6), (12,)),
        ([[1], [2]], (12,), (4, 6)),
    ],
)
def test_image_order_and_kernel_mixed_examples(H, src, tgt):
    _assert_image_and_kernel(np.asarray(H), src, tgt)


@settings(max_examples=200, deadline=None)
@given(_additive_map())
def test_image_order_and_kernel_match_oracles(case):
    _assert_image_and_kernel(*case)


def _assert_image_and_kernel(H, src, tgt):
    """One elimination's image order and kernel against the span of the
    columns and a scan of the whole source."""
    image_order, kernel = image_order_and_kernel(H, src, tgt)
    assert image_order == Subgroup(H.T, tgt).order
    X = product_rows(0, math.prod(src), src)
    in_kernel = X[~(X @ H.T % np.asarray(tgt)).any(axis=1)]
    assert kernel.order == len(in_kernel) == kernel_additive(H, src, tgt).order
    assert all(kernel.contains(x) for x in in_kernel)


@settings(max_examples=200, deadline=None)
@given(_additive_map(), st.data())
def test_solve_additive_solution_and_kernel(case, data):
    H, src, tgt = case
    x = np.asarray([data.draw(st.integers(0, N - 1)) for N in src], dtype=np.int64)
    b = H @ x % np.asarray(tgt)
    y, ker = solve_additive(H, b, src, tgt)
    assert (H @ y % np.asarray(tgt)).tolist() == b.tolist()
    assert all(0 <= v < N for v, N in zip(y.tolist(), src))
    assert ker == kernel_additive(H, src, tgt)


@st.composite
def _single_modulus_map(draw):
    """A map (Z/N)^n -> (Z/N)^m."""
    N = draw(st.sampled_from([4, 6, 12, 30, 49]))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    H = draw(st.lists(st.lists(st.integers(0, N - 1), min_size=n, max_size=n), min_size=m, max_size=m))
    return np.asarray(H, dtype=np.int64), (N,) * n, (N,) * m


@settings(max_examples=200, deadline=None)
@given(st.one_of(_single_modulus_map(), _additive_map()), st.integers(1, 4), st.data())
def test_block_solve_equals_the_row_by_row_solves(case, T, data):
    # a (T, m) block of right-hand sides in the image, solved from one
    # elimination, against one solve per row
    H, src, tgt = case
    X = np.asarray([[data.draw(st.integers(0, N - 1)) for N in src] for _ in range(T)], dtype=np.int64)
    B = X @ H.T % np.asarray(tgt)
    Y, ker = solve_additive(H, B, src, tgt)
    rows = [solve_additive(H, b, src, tgt) for b in B]
    assert Y.shape == (T, len(src))
    assert Y.tolist() == [y.tolist() for y, _ in rows]
    assert all(k == ker for _, k in rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_subgroup_order_splits_by_crt_beyond_int64(m, n, data):
    # over Z/(6 P4) the order is the order over Z/6 times P4^(rank mod P4)
    N = 6 * P4
    rows = data.draw(
        st.lists(st.lists(st.integers(0, N - 1), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    rows += [[6 * x % N for x in row] for row in rows[:1]]
    small = [[x % 6 for x in row] for row in rows]
    expected = Subgroup(small, (6,) * n).order * P4 ** rank_mod_p(rows, P4)
    assert Subgroup(rows, (N,) * n).order == expected


# ---------------------------------------------------------------------------
# the one exactness rule for products of residues


@pytest.mark.parametrize(
    "subscripts, shapes, last",
    [
        ("ij,jk->ik", [(3, 4), (4, 2)], 2),
        ("...j,ij->...i", [(2, 3, 4), (5, 4)], 5),
        ("ackv,bdlw,vwu->abcdklu", [(2, 2, 2, 2), (2, 2, 2, 2), (2, 2, 2)], 2),
    ],
)
@pytest.mark.parametrize("N", [7, 3_037_000_500, 3_037_000_501, 2**61 - 1, 2**63 - 25])
def test_einsum_mod_exact_at_every_modulus(subscripts, shapes, last, N):
    # int64 while terms * (N-1)^factors < 2^63, Python ints beyond; both
    # against the same contraction over Python ints, reduced by one modulus
    # per entry of the last axis
    rng = np.random.default_rng(N % 1000)
    operands = [rng.integers(0, N, size=shape, dtype=np.int64) for shape in shapes]
    operands[0].flat[0] = operands[-1].flat[0] = N - 1
    moduli = np.arange(N - last + 1, N + 1)
    got = einsum_mod(subscripts, *operands, moduli=moduli, N=N)
    want = np.einsum(subscripts, *(x.astype(object) for x in operands)) % moduli
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


# numpy calls that contract arrays; outside linalg every product of residue
# arrays goes through linalg.einsum_mod or linalg._dtype instead
_CONTRACTIONS = {"np.einsum", "np.matmul", "np.dot", "np.tensordot", "np.linalg.matrix_power"}


def test_products_of_residues_go_through_one_helper():
    found = []
    for path in sorted(Path(azumaya.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and ast.unparse(node) in _CONTRACTIONS:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found


# moduli mixed in a coordinate vector, among them beyond int64 products
_EMBED_MODULI = [2, 3, 4, 6, 12, 2**31 - 1, 2**62, 2 * (2**61 - 1)]


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    moduli=st.lists(st.sampled_from(_EMBED_MODULI), min_size=1, max_size=5),
    rows=st.integers(0, 4),
    reduced=st.booleans(),
)
def test_embed_matches_the_remainder_body(data, moduli, rows, reduced):
    # reduced input skips the remainder, and one modulus equal to L the
    # scaling: the result is the same array, a new one, in the same dtype
    L = math.lcm(*moduli)
    bound = (0, min(moduli) - 1) if reduced else (-3 * max(moduli), 3 * max(moduli))
    entries = data.draw(st.lists(st.integers(*bound), min_size=rows * len(moduli), max_size=rows * len(moduli)))
    x = np.asarray(entries, dtype=linalg._dtype(max(moduli))).reshape(rows, len(moduli))
    before = x.copy()
    got, want = linalg._embed(x, moduli, L), embed_remainder(x, moduli, L)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.array_equal(x, before) and not np.shares_memory(got, x)


@pytest.mark.parametrize("moduli", [(6,) * 4, (2, 3, 6, 6), (4, 2, 4, 4)])
def test_embed_of_one_vector_and_of_int64_input_for_object_moduli(moduli):
    L = math.lcm(*moduli)
    for x in ([5, -1, 7, 0], [0, 1, 1, 0], np.asarray([[-7, 12, 3, 5], [1, 1, 1, 1]])):
        assert np.array_equal(linalg._embed(x, moduli, L), embed_remainder(x, moduli, L))
    big = (2**62, 3)
    x = np.asarray([[2**62 + 5, -1], [1, 2]], dtype=object)
    assert np.array_equal(linalg._embed(x, big, 3 * 2**62), embed_remainder(x, big, 3 * 2**62))

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya.linalg import (
    IllFormedMap,
    NoSolution,
    Subgroup,
    howell,
    is_bijective_additive,
    kernel_additive,
    kernel_mod,
    rank_mod_p,
    solve_additive,
    solve_mod,
)
from azumaya.rings import GaloisField, ZMod
from ring_oracles import Matrix, UnsupportedRing, howell_form


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


def test_subgroup_le():
    small = Subgroup([[2, 0]], (4, 4))
    big = Subgroup([[1, 0]], (4, 4))
    assert small <= big
    assert not big <= small


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

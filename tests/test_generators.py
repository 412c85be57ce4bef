"""The generators an algebra records (`Algebra.generators`): each set
generates its algebra as a ring, the hom check on them returns what the
scan over every pair of coordinate generators returns, and the center as
their commutant is the dense center.  The corpus and its perturbed homs
are compared in `test_sparse_join.py`."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from azumaya import algebras, linalg, rings
from azumaya.algebras import (
    Algebra,
    base_change,
    center,
    is_azumaya,
    matrix_algebra,
    opposite,
    quotient_algebra,
    splitting,
    tensor_product,
    upper_triangular_algebra,
    weyl_quotient,
)
from azumaya.rings import BaseRingHom, GaloisField, ProductRing, ZMod, crt_decompose, maximal_ideals
from ring_oracles import center_dense, certified_hom, entries, hom_refutation_dense, hom_refutation_full

F4 = GaloisField.default(2, 2)
MATRIX_BASES = {
    "Z/2": ZMod(2),
    "Z/12": ZMod(12),
    "GF(4)": F4,
    "Z/2xZ/3": ProductRing([ZMod(2), ZMod(3)]),
    "Z/4xGF(4)": ProductRing([ZMod(4), F4]),
}
WEYL = [(2, 0, 0), (2, 1, 1), (3, 1, 2), (3, 0, 0), (5, 2, 1), (7, 1, 1), (7, 0, 4)]


def _matrix(R, n):
    return lambda: matrix_algebra(R, n, check=False)


def _weyl(p, a, b):
    return lambda: weyl_quotient(p, a, b)


def _tensors():
    M2, M3 = matrix_algebra(ZMod(2), 2, check=False), matrix_algebra(ZMod(2), 3, check=False)
    yield "M_2(Z/2)(x)M_3(Z/2)", lambda: tensor_product(M2, M3)
    yield "W(3,1,2)(x)M_2(Z/3)", lambda: tensor_product(weyl_quotient(3, 1, 2), matrix_algebra(ZMod(3), 2))
    M = matrix_algebra(F4, 2, check=False)
    yield "M_2(GF(4))(x)op(M_2(GF(4)))", lambda: tensor_product(M, opposite(M))


def _base_changes():
    # images of the source's rows, with b_s 1 for the target's coordinates
    M2, F9 = matrix_algebra(ZMod(2), 2, check=False), GaloisField.default(3, 2)
    yield "M_3(Z/12)->Z/3", lambda: base_change(matrix_algebra(ZMod(12), 3, check=False), BaseRingHom(ZMod(12), ZMod(3), [[1]]))
    yield "M_2(Z/2)->GF(4)", lambda: base_change(M2, BaseRingHom(ZMod(2), F4, [[1], [0]]))
    yield "W(3,1,2)->GF(9)", lambda: base_change(weyl_quotient(3, 1, 2), BaseRingHom(ZMod(3), F9, [[1], [0]]))
    yield "M_2(Z/6)->Z/2xZ/3", lambda: base_change(matrix_algebra(ZMod(6), 2, check=False), crt_decompose(ZMod(6))[1])
    for m in maximal_ideals(MATRIX_BASES["Z/4xGF(4)"]):
        make = _matrix(MATRIX_BASES["Z/4xGF(4)"], 2)
        yield f"op(M_2(Z/4xGF(4)))/{m.data}", lambda make=make, m=m: quotient_algebra(opposite(make()), m)[0]


BUILDS = {}
for _name, _R in MATRIX_BASES.items():
    for _n in range(1, 7):
        BUILDS[f"M_{_n}({_name})"] = _matrix(_R, _n)
for _p, _a, _b in WEYL:
    BUILDS[f"W({_p},{_a},{_b})"] = _weyl(_p, _a, _b)
BUILDS.update({f"op({name})": (lambda make=make: opposite(make())) for name, make in list(BUILDS.items())})
BUILDS.update(_tensors())
BUILDS.update(_base_changes())

# each of their generators is needed: over Z/N, GF(4) and products, for
# W(p), opposites and the tensor products over prime fields.  M_1's rows
# hold the unit's coordinates, and in M_2(GF(4)) (x) op(M_2(GF(4))) the
# rows t E_11 (x) 1 and 1 (x) t E_11 give each other: t (x) 1 = 1 (x) t.
# A fiber of a product base sends the other factors' rows b_s E_11 to 0.
NEEDED = [name for name in BUILDS if "M_1(" not in name and "/(" not in name and name != "M_2(GF(4))(x)op(M_2(GF(4)))"]


def _ring_span(A, rows):
    """The subring generated by the rows, as a `linalg.Subgroup`: the span
    of 1 and the rows, grown by the products of the rows the last round
    added with the generators, until a round adds nothing.  With W_k the
    span of the words of length at most k, W_k = W_(k-1) + (W_(k-1) \\
    W_(k-2)) S, so only the new rows are multiplied."""
    span = linalg.Subgroup(np.vstack([A.unit_flat, rows]), A.moduli)
    new = span.generators()
    while len(new):
        products = A.mul_batch(np.repeat(new, len(rows), axis=0), np.tile(rows, (len(new), 1)))
        grown = linalg.Subgroup(np.vstack([span.generators(), products]), A.moduli)
        new = np.asarray([g for g in grown.generators() if not span.contains(g)]).reshape(-1, A.dim)
        span = grown
    return span


@pytest.mark.parametrize("name", BUILDS)
def test_recorded_rows_generate_the_algebra(name):
    A = BUILDS[name]()
    assert _ring_span(A, A.generators).order == A.size


@pytest.mark.parametrize("name", NEEDED)
def test_dropping_any_one_row_leaves_a_proper_subring(name):
    A = BUILDS[name]()
    rows, needed = A.generators, len(A.generators)
    if isinstance(A.base, ProductRing):
        # over a product base the last rows, b_s E_11 for every b_s in M_n
        # and b_s 1 for all but one in a base change, can still be redundant
        # (Z 1 is all of Z/2 x Z/3), so only E_(i,i+1) and E_(i+1,i) are each needed
        needed -= A.base.flatten_len - (not name.startswith(("M_", "op(M_")))
    for t in range(needed):
        assert _ring_span(A, np.delete(rows, t, axis=0)).order < A.size, (name, t)


def test_generator_counts():
    for R in MATRIX_BASES.values():
        f = R.flatten_len
        assert len(matrix_algebra(R, 1, check=False).generators) == f  # the identity rows
        for n in (2, 5, 16 if R == ZMod(2) else 3):
            # E_(i,i+1), E_(i+1,i) and b_s E_11 for every coordinate generator
            # b_s but 1; over a product base 1 is none of them
            shape = (2 * (n - 1) + f - (not isinstance(R, ProductRing)), n * n * f)
            assert matrix_algebra(R, n, check=False).generators.shape == shape
    assert len(matrix_algebra(F4, 4, check=False).generators) == 7
    assert weyl_quotient(11, 0, 4).generators.shape == (2, 121)
    M = matrix_algebra(ZMod(2), 3, check=False)
    assert np.array_equal(opposite(M).generators, M.generators)
    assert len(tensor_product(M, M).generators) == 8
    # a base change maps recorded rows and keeps the identity rows otherwise
    to_z2 = BaseRingHom(ZMod(4), ZMod(2), [[1]])
    assert len(base_change(matrix_algebra(ZMod(4), 3, check=False), to_z2).generators) == 4
    assert len(base_change(upper_triangular_algebra(ZMod(4), 3), to_z2).generators) == 6


def _assert_checks_agree(H, source, target):
    refutation = rings.hom_refutation(H, source, target)
    assert refutation == hom_refutation_full(H, source, target) == hom_refutation_dense(H, source, target)
    return refutation


def test_generator_check_matches_the_full_scan_on_the_grid_certificates():
    grid = [matrix_algebra(ZMod(m), n, check=False) for n in (1, 2, 3) for m in (2, 3, 4, 6, 8, 9, 12)]
    grid += [weyl_quotient(p, a, b) for p in (2, 3, 5) for a in range(p) for b in range(p)]
    for A in grid:
        hom = certified_hom(A)
        assert _assert_checks_agree(hom.matrix, A, hom.target) is None, A.label


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), changes=st.integers(1, 4))
def test_unital_non_multiplicative_maps_out_of_gf4_matrices(data, n, changes):
    # the identity of M_n(GF(4)) with entries changed, then made unital
    # again through the column of the first unit coordinate
    A = matrix_algebra(F4, n, check=False)
    H = np.eye(A.dim, dtype=np.int64)
    for _ in range(changes):
        i, j = data.draw(st.integers(0, A.dim - 1)), data.draw(st.integers(0, A.dim - 1))
        H[i, j] = data.draw(st.integers(0, 1))
    units = np.flatnonzero(A.unit_flat)
    H[:, units[0]] = (A.unit_flat - H[:, units[1:]].sum(axis=1)) % 2
    refutation = _assert_checks_agree(H, A, A)
    assume(refutation is not None)
    assert refutation["condition"] == "multiplicative"


@pytest.mark.parametrize("name", [name for name in BUILDS if BUILDS[name]().dim <= 64])
def test_center_is_the_dense_center(name):
    A = BUILDS[name]()
    assert center.__wrapped__(A) == center_dense(A)


@pytest.fixture
def scanned(monkeypatch):
    """The row count of each multiplicativity scan the hom check runs."""
    counts, scan = [], rings._first_unmultiplicative
    monkeypatch.setattr(rings, "_first_unmultiplicative", lambda H, rows, *a: counts.append(len(rows)) or scan(H, rows, *a))
    return counts


def test_an_equal_matrix_algebra_is_certified_on_its_generators(scanned):
    # M_3(Z/3) built from its entries alone carries the identity rows, and
    # equals M_3(Z/3), so its certificate is the identity with no scan
    M = matrix_algebra(ZMod(3), 3, check=False)
    A = Algebra(M.base, entries(M.struct), M.unit_flat, check=False)
    assert A == M and len(A.generators) == A.dim
    scanned.clear()  # the ring hom's own check
    assert np.array_equal(splitting(A), np.eye(A.dim))
    assert scanned == []
    assert certified_hom(A).target == M
    assert scanned == [9]  # the re-verification, on A's identity rows


def test_a_refuted_generator_check_rescans_every_pair(scanned):
    M = matrix_algebra(ZMod(3), 3, check=False)
    T = np.eye(M.dim, dtype=np.int64).reshape(3, 3, -1).transpose(1, 0, 2).reshape(M.dim, M.dim)  # transpose
    assert rings.hom_refutation(T, M, M) == hom_refutation_dense(T, M, M)
    assert scanned == [4, 9]


def test_a_refuted_check_on_identity_rows_scans_once(scanned):
    # the generators of M_3(Z/3) built from its entries are its identity
    # rows, so the first scan names the pair a full scan would
    M = matrix_algebra(ZMod(3), 3, check=False)
    A = Algebra(M.base, entries(M.struct), M.unit_flat, check=False)
    T = np.eye(A.dim, dtype=np.int64).reshape(3, 3, -1).transpose(1, 0, 2).reshape(A.dim, A.dim)  # transpose
    scanned.clear()  # the ring hom's own check
    refutation = rings.hom_refutation(T, A, A)
    assert scanned == [9]
    assert refutation == hom_refutation_full(T, A, A) == hom_refutation_dense(T, A, A)
    assert refutation["condition"] == "multiplicative"


def test_a_failure_past_the_first_block_of_rows_is_named():
    # on M_16(F_2) a block is one row (D T = 2^16); with f(E_(15,15)) and
    # f(E_(16,16)) swapped, E_(1,15) E_(15,15) is the first product that fails
    n = 16
    A = matrix_algebra(ZMod(2), n, check=False)
    H = np.eye(A.dim, dtype=np.int64)
    i, j = (n - 2) * (n + 1), (n - 1) * (n + 1)
    H[:, [i, j]] = H[:, [j, i]]
    assert rings.hom_refutation(H, A, A) == {"condition": "multiplicative", "pair": [n - 2, i]}


def test_m16_f2_is_certified_within_128_mb():
    matrix_algebra.cache_clear()  # the checked build is measured too
    tracemalloc.start()
    try:
        assert is_azumaya(matrix_algebra(ZMod(2), 16)).status == "pass"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 << 20


def test_m24_f2_is_certified_within_64_mb():
    # the checked build holds no buffer of |S| D^2 keys, and the
    # certificate is the identity by equality, with no hom check
    matrix_algebra.cache_clear()
    tracemalloc.start()
    try:
        assert is_azumaya(matrix_algebra(ZMod(2), 24)).status == "pass"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_m24_f2_identity_hom_check_within_64_mb():
    # is_azumaya certifies M_24(F_2) by equality, so the hom check at this
    # size is held here: no (|S|, D, D) products and no |S| D x D right side
    M = matrix_algebra(ZMod(2), 24)
    tracemalloc.start()
    try:
        assert rings.hom_refutation(np.eye(M.dim, dtype=np.int64), M, M) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_m32_f2_checked_build_within_half_of_a_dense_unit_law():
    # the unit law sums the terms of the unit's nonzeros and forms no D x D
    # array; with two D x D multiplication matrices of the unit and an
    # identity it peaked at 29.4 MB (14.2 MB without)
    matrix_algebra.cache_clear()
    tracemalloc.start()
    try:
        matrix_algebra(ZMod(2), 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 29.4 / 2 * 2**20, peak


def test_the_center_reads_only_the_generators(monkeypatch):
    A = matrix_algebra(ZMod(2), 4, check=False)
    seen = []
    commutant = algebras.commutant
    monkeypatch.setattr(algebras, "commutant", lambda A, X: seen.append(len(X)) or commutant(A, X))
    assert center.__wrapped__(A) == A.unit_span()
    assert seen == [6]

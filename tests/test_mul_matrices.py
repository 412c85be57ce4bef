"""The one multiplication-matrix kernel (`Algebra.mul_matrices`) and the
callers rewritten on it, against the dense contractions they replaced
(`ring_oracles`): the same residues, entry for entry, on every side, on
batches of 0, 1 and many rows, on unchecked random tensors and over moduli
whose sums leave int64.  Then the layout: with the dense view `struct`
made to raise, every construction and check still runs, no attribute of
an algebra holds D^3 entries, and builds whose dense tensor would be
large peak below 32 MB."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya import algebras, linalg
from azumaya.algebras import (
    Algebra,
    AlgebraError,
    base_change,
    center,
    commutant,
    commutator_matrix,
    env_map_flat,
    is_azumaya,
    matrix_algebra,
    opposite,
    tensor_product,
    upper_triangular_algebra,
    weyl_quotient,
)
from azumaya.configio import make_algebra
from azumaya.corpus import build_corpus
from azumaya.homs import center_preservation_check, isomorphism_check
from azumaya.identities import al_vanishing_check, identity_transfer_check, nonvanishing_witness, standard_identity
from azumaya.rings import GaloisField, ProductRing, ZMod, crt_decompose
from ring_oracles import (
    center_dense,
    certified_hom,
    commutator_matrix_dense,
    env_b_dense,
    entries,
    env_map_flat_dense,
    left_mul_matrix_dense,
    right_mul_matrix_dense,
    splitting_phi_dense,
    verify_axioms_dense,
)
from test_algebras import assert_radical_witness

F4 = GaloisField.default(2, 2)
# sums of products of residues leave int64 over these two: the object path
Z2_62 = ZMod(2**62)
GF_LARGE = GaloisField(2**61 - 1, [1, 0, 1])
BASES = [ZMod(2), ZMod(12), F4, ProductRing([ZMod(2), ZMod(3)]), Z2_62, GF_LARGE]
DENSE = {"left": left_mul_matrix_dense, "right": right_mul_matrix_dense}


def _random_algebra(rng, base, rank, density):
    """An unchecked algebra on a random tensor and unit: residues, each
    entry nonzero with probability `density`."""
    D = rank * base.flatten_len
    moduli = np.asarray(base.moduli * rank, dtype=np.int64)
    S = rng.integers(0, moduli, size=(D, D, D)) * (rng.random((D, D, D)) < density)
    return Algebra(base, entries(S), rng.integers(0, moduli), label="random", check=False)


def _rows(rng, A, T):
    return rng.integers(0, A._moduli_arr, size=(T, A.dim))


@st.composite
def random_algebras(draw):
    base = draw(st.sampled_from(BASES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = _random_algebra(rng, base, draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])))
    return A, rng


@settings(max_examples=60, deadline=None)
@given(random_algebras(), st.sampled_from([0, 1, 7]), st.sampled_from(["left", "right"]))
def test_kernel_matches_the_dense_einsums(case, T, side):
    A, rng = case
    X = _rows(rng, A, T)
    got = A.mul_matrices(X, side)
    assert got.dtype == np.int64 and got.shape == (T, A.dim, A.dim)
    want = np.asarray([DENSE[side](A, x) for x in X], dtype=np.int64).reshape(T, A.dim, A.dim)
    assert np.array_equal(got, want)


def _kernel_or_refusal(kernel, A):
    """The subgroup, or the refusal of a random tensor whose commutator
    maps are not well-defined over mixed moduli."""
    try:
        return kernel(A)
    except linalg.IllFormedMap as e:
        return str(e)


@settings(max_examples=40, deadline=None)
@given(random_algebras(), st.sampled_from([0, 1, 5]))
def test_commutator_matrix_and_center_match_the_dense_bodies(case, T):
    A, rng = case
    X = _rows(rng, A, T)
    assert np.array_equal(commutator_matrix(A, X), commutator_matrix_dense(A, X))
    assert _kernel_or_refusal(center.__wrapped__, A) == _kernel_or_refusal(center_dense, A)


@settings(max_examples=40, deadline=None)
@given(random_algebras())
def test_env_map_b_matches_the_dense_contraction(case):
    A, _ = case
    seen = []
    sparse_rows = linalg.sparse_rows
    linalg.sparse_rows = lambda T: seen.append(T) or sparse_rows(T)
    try:
        F, src, tgt = env_map_flat(A)
    finally:
        linalg.sparse_rows = sparse_rows
    assert len(seen) == 1 and np.array_equal(seen[0], env_b_dense(A))
    G, src_dense, tgt_dense = env_map_flat_dense(A)
    assert (src, tgt) == (src_dense, tgt_dense) and np.array_equal(F, G)


def _verdict(check, A):
    try:
        check(A)
    except AlgebraError as e:
        return str(e)
    return None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BASES), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_unit_law_matches_the_dense_contractions(base, n, seed, true_unit):
    """An associative tensor with its own unit or a random one: the unit
    law alone decides."""
    M = matrix_algebra(base, n, check=False) if n < 3 else upper_triangular_algebra(base, 2)
    unit = M.unit_flat if true_unit else _rows(np.random.default_rng(seed), M, 1)[0]
    A = Algebra(base, entries(M.struct), unit, check=False)
    verdict = _verdict(Algebra._verify_axioms, A)
    assert verdict == _verdict(verify_axioms_dense, A)
    assert (verdict is None) == np.array_equal(unit, M.unit_flat)


# _local_splitting's phi, over algebras the identity does not certify
_SEARCHED = {
    "op(M_2(Z/2))": (lambda: opposite(matrix_algebra(ZMod(2), 2, check=False)), 2, 1),
    "op(M_3(Z/9))": (lambda: opposite(matrix_algebra(ZMod(9), 3, check=False)), 3, 2),
    "op(M_2(Z/2^62))": (lambda: opposite(matrix_algebra(Z2_62, 2, check=False)), 2, 62),
    "op(M_2(GF(4)))": (lambda: opposite(matrix_algebra(F4, 2, check=False)), 2, 1),
    "W(3,1,2)": (lambda: weyl_quotient(3, 1, 2), 3, 1),
    "W(5,0,4)": (lambda: weyl_quotient(5, 0, 4), 5, 1),
}


@pytest.mark.parametrize("name", _SEARCHED)
def test_splitting_phi_matches_the_dense_einsum(name, monkeypatch):
    """The kernel's phi equals the einsum on the same basis B and pivots P,
    recorded from the search: P from the last Howell form it takes, L's
    echelon rows, and B from the last multiplication matrices it forms."""
    make, p, k = _SEARCHED[name]
    A, forms, calls = make(), [], []
    howell, mul_matrices = linalg.howell, Algebra.mul_matrices
    monkeypatch.setattr(linalg, "howell", lambda M, p: forms.append(howell(M, p)) or forms[-1])
    monkeypatch.setattr(Algebra, "mul_matrices", lambda A, X, side: calls.append(X) or mul_matrices(A, X, side))
    phi = algebras._local_splitting(A, p, k)
    assert phi is not None
    assert len(forms[-1]) == math.isqrt(A.rank) * A.base.flatten_len  # A e, of F_p-dimension n f
    P = (forms[-1] != 0).argmax(axis=1)
    assert np.array_equal(phi, splitting_phi_dense(A, calls[-1].T, P, p**k))


# ---------------------------------------------------------------------------
# the layout: the nonzero entries are the only copy of the tensor


def _base_changed(A, n):
    _, fwd, _ = crt_decompose(ZMod(n))
    return base_change(A, fwd)


def _ut2_squared(R):
    U = upper_triangular_algebra(R, 2)
    return tensor_product(U, U)


def _dense_view(A):
    raise AssertionError("read the dense structure tensor")


# F_2 x F_2 as a `structure_constants` config gives it
_CONFIG_QUADRATIC = {
    "kind": "structure_constants",
    "ring": {"kind": "zmod", "n": 2},
    "rank": 2,
    "table": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    "unit": [1, 1],
}


@pytest.fixture
def forbid_dense_view(monkeypatch):
    """Call it to make every later read of `Algebra.struct` raise."""
    return lambda: monkeypatch.setattr(Algebra, "struct", property(_dense_view))


def test_builds_and_checks_never_read_the_dense_view(forbid_dense_view):
    forbid_dense_view()
    _, _, back = crt_decompose(ZMod(6))
    split = _base_changed(matrix_algebra(ZMod(6), 2, check=False), 6)
    built = [
        matrix_algebra(ZMod(6), 2),
        matrix_algebra(F4, 2, check=False),
        upper_triangular_algebra(ZMod(4), 3),
        weyl_quotient(5, 1, 2),
        weyl_quotient(3, 0, 1),
        tensor_product(matrix_algebra(ZMod(2), 2), upper_triangular_algebra(ZMod(2), 2)),
        split,
        opposite(matrix_algebra(ZMod(4), 2, check=False)),
        base_change(split, back),  # over the product base Z/2 x Z/3, back to Z/6
        tensor_product(matrix_algebra(F4, 2, check=False), opposite(upper_triangular_algebra(F4, 2))),
        make_algebra(_CONFIG_QUADRATIC),
    ]
    verdicts = [is_azumaya(A).status for A in built]
    assert verdicts == ["pass", "pass", "fail", "pass", "pass", "fail", "pass", "pass", "pass", "fail", "fail"]
    # a fail decided in the fiber loop, by a radical element
    A = _ut2_squared(ProductRing([ZMod(3), ZMod(2)]))
    rep = is_azumaya(A)
    assert rep.status == "fail"
    assert_radical_witness(A, rep.witness)
    for A in built:
        assert center.__wrapped__(A).order >= 1
        assert commutant(A, A.unit_flat[None]).order == A.size
        env_map_flat(A)


def test_splitting_of_a_prebuilt_opposite_never_reads_the_dense_view(forbid_dense_view):
    forbid_dense_view()
    A = opposite(matrix_algebra(ZMod(4), 2, check=False))
    certified_hom(A)


def test_hom_and_identity_checks_never_read_the_dense_view(forbid_dense_view):
    forbid_dense_view()
    entries = build_corpus()
    for e in entries[::10]:
        assert isomorphism_check(e.hom).status == "pass"
        assert center_preservation_check(e.hom).status == "pass"
    M2 = matrix_algebra(ZMod(2), 2, check=False)
    assert al_vanishing_check(M2, 2).status == "pass"
    assert nonvanishing_witness(M2, 2)[1].status == "pass"
    assert identity_transfer_check(entries[0].hom, standard_identity(4), trials=5, seed=1).status == "pass"


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize(
    "make", [lambda: matrix_algebra(ZMod(2), 6), lambda: weyl_quotient(5, 2, 1)], ids=["M_6(F_2)", "W(5,2,1)"]
)
def test_no_attribute_holds_the_dense_tensor(make):
    A = make()
    # fill every cache: products, the hash, the center, the axioms' join
    A.mul_batch(A.unit_flat[None], A.unit_flat[None])
    hash(A), center(A), A.unit_span(), is_azumaya(A), env_map_flat(A), A._verify_axioms()
    nonvanishing_witness(A, 2)
    sizes = [a.size for value in vars(A).values() for a in _arrays(value)]
    assert sizes and max(sizes) < A.dim**3
    assert math.prod(A.struct.shape) == A.dim**3 and not A.struct.flags.writeable


# builds whose dense int64 tensor would take 128 MiB (D = 256) or 37 MiB
# (W(13), D = 169), and its (d, d, d, f) table as much again; M_16(F_2) and
# M_4(F_2) (x) M_4(F_2) have 4,096 nonzero entries
_LARGE_BUILDS = {
    "M_16(F_2)": lambda: matrix_algebra(ZMod(2), 16, check=False),
    "M_4(F_2)(x)M_4(F_2)": lambda: tensor_product(*[matrix_algebra(ZMod(2), 4, check=False)] * 2),
    "op(M_4(F_2)(x)M_4(F_2))": lambda: opposite(tensor_product(*[matrix_algebra(ZMod(2), 4, check=False)] * 2)),
    "W(13,0,0)": lambda: weyl_quotient(13, 0, 0),
}


@pytest.mark.parametrize("name", _LARGE_BUILDS)
def test_large_builds_peak_below_32_mb(name):
    matrix_algebra.cache_clear()  # a fresh build, with its check
    weyl_quotient.cache_clear()
    tracemalloc.start()
    try:
        _LARGE_BUILDS[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak

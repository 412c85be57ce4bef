"""The sparse join behind the axiom check, the enveloping map and the hom
check, against the dense contractions it replaced (`ring_oracles`):
the same verdict, the same first failing triple or pair, the same message
and the same enveloping matrix, entry for entry.  The hom check on the
source's ring generators also returns what the scan over every pair of
coordinate generators returns (`hom_refutation_full`)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya import linalg, rings
from azumaya.algebras import (
    Algebra,
    AlgebraError,
    base_change,
    env_map_flat,
    matrix_algebra,
    opposite,
    tensor_product,
    upper_triangular_algebra,
    weyl_quotient,
)
from azumaya.corpus import build_corpus
from azumaya.rings import GaloisField, ProductRing, RingIdeal, ZMod, crt_decompose, maximal_ideals
from ring_oracles import entries, env_map_flat_dense, hom_refutation_dense, hom_refutation_full, verify_axioms_dense

F4, F9 = GaloisField.default(2, 2), GaloisField.default(3, 2)
Z2xZ3, Z2xF4 = ProductRing([ZMod(2), ZMod(3)]), ProductRing([ZMod(2), F4])


def _base_changed(A, n):
    """A over Z/n carried to Z/n as a product of prime powers."""
    _, fwd, _ = crt_decompose(ZMod(n))
    return base_change(A, fwd)


def _custom():
    """F_3[t]/(t^2) from integer structure constants, as a config gives them."""
    R = ZMod(3)
    table = np.zeros((2, 2, 2, 1), dtype=np.int64)
    table[0, 0, 0] = table[0, 1, 1] = table[1, 0, 1] = 1
    return Algebra(R, entries(table[..., 0]), [1, 0], label="F_3[t]/t^2", check=False)


# every constructor, over Z/N, GF(q) and products; each builds unchecked
_BUILDS = {
    "M_1(Z/5)": lambda: matrix_algebra(ZMod(5), 1, check=False),
    "M_2(Z/2)": lambda: matrix_algebra(ZMod(2), 2, check=False),
    "M_3(Z/6)": lambda: matrix_algebra(ZMod(6), 3, check=False),
    "M_2(Z/12)": lambda: matrix_algebra(ZMod(12), 2, check=False),
    "M_2(GF(4))": lambda: matrix_algebra(F4, 2, check=False),
    "M_2(GF(9))": lambda: matrix_algebra(F9, 2, check=False),
    "M_2(Z/2xZ/3)": lambda: matrix_algebra(Z2xZ3, 2, check=False),
    "M_2(Z/2xGF(4))": lambda: matrix_algebra(Z2xF4, 2, check=False),
    "UT_2(Z/4)": lambda: upper_triangular_algebra(ZMod(4), 2),
    "UT_3(Z/2)": lambda: upper_triangular_algebra(ZMod(2), 3),
    "UT_2(GF(4))": lambda: upper_triangular_algebra(F4, 2),
    "UT_2(Z/2xZ/3)": lambda: upper_triangular_algebra(Z2xZ3, 2),
    "W(2,1,0)": lambda: weyl_quotient(2, 1, 0),
    "W(3,1,2)": lambda: weyl_quotient(3, 1, 2),
    "W(5,0,0)": lambda: weyl_quotient(5, 0, 0),
    "W(5,2,1)": lambda: weyl_quotient(5, 2, 1),
    "W(7,1,1)": lambda: weyl_quotient(7, 1, 1),
    "M_2(Z/2)(x)UT_2(Z/2)": lambda: tensor_product(
        matrix_algebra(ZMod(2), 2, check=False), upper_triangular_algebra(ZMod(2), 2)
    ),
    "W(2,1,1)(x)M_2(Z/2)": lambda: tensor_product(weyl_quotient(2, 1, 1), matrix_algebra(ZMod(2), 2)),
    "op(UT_3(Z/3))": lambda: opposite(upper_triangular_algebra(ZMod(3), 3)),
    "op(W(3,0,1))": lambda: opposite(weyl_quotient(3, 0, 1)),
    "M_2(Z/6) over Z/2xZ/3": lambda: _base_changed(matrix_algebra(ZMod(6), 2, check=False), 6),
    "UT_2(Z/12) over Z/4xZ/3": lambda: _base_changed(upper_triangular_algebra(ZMod(12), 2), 12),
    "F_3[t]/t^2": _custom,
}
# the enveloping matrix has D^4 entries; it is compared where D <= 25
_ENV_BUILDS = [name for name in _BUILDS if name != "W(7,1,1)"]


def _verdict(check, A):
    try:
        check(A)
    except AlgebraError as e:
        return str(e)
    return None


def _assert_axioms_agree(A):
    verdict = _verdict(Algebra._verify_axioms, A)
    assert verdict == _verdict(verify_axioms_dense, A)
    return verdict


def _assert_env_maps_equal(A):
    F, src, tgt = env_map_flat(A)
    G, src_dense, tgt_dense = env_map_flat_dense(A)
    assert F.dtype == G.dtype == np.int64
    assert (src, tgt) == (src_dense, tgt_dense)
    assert np.array_equal(F, G)


@pytest.mark.parametrize("name", _BUILDS)
def test_axiom_check_matches_dense_oracle_on_every_constructor(name):
    assert _assert_axioms_agree(_BUILDS[name]()) is None


@pytest.mark.parametrize("name", _ENV_BUILDS)
def test_env_map_matches_dense_oracle_on_every_constructor(name):
    _assert_env_maps_equal(_BUILDS[name]())


@pytest.mark.parametrize("name", _ENV_BUILDS)
def test_hom_check_matches_dense_oracle_on_every_constructor(name):
    A = _BUILDS[name]()
    identity = np.eye(A.dim, dtype=np.int64)
    assert rings.hom_refutation(identity, A, A) is None is hom_refutation_dense(identity, A, A)
    # the identity map onto the opposite algebra is a hom iff A is commutative
    op = opposite(A)
    refutation = rings.hom_refutation(identity, A, op)
    assert refutation == hom_refutation_dense(identity, A, op) == hom_refutation_full(identity, A, op)


def test_a_perturbed_weyl_tensor_is_refused_at_the_dense_oracle_triple():
    A = weyl_quotient(5, 2, 1)
    S = A.struct.copy()
    S[3, 7, 11] = (S[3, 7, 11] + 1) % 5
    B = Algebra(A.base, entries(S), A.unit_flat, check=False)
    assert _assert_axioms_agree(B) == "associativity fails on basis triple (1, 2, 7)"


def test_a_wrong_unit_is_refused_with_the_dense_oracle_message():
    A = matrix_algebra(ZMod(4), 2, check=False)
    B = Algebra(A.base, entries(A.struct), np.eye(1, A.dim, 1, dtype=np.int64)[0], check=False)
    assert _assert_axioms_agree(B) == "unit vector is not a two-sided unit"


_PERTURBED = [
    "M_2(Z/2)", "M_2(Z/12)", "M_2(GF(4))", "M_2(Z/2xZ/3)", "UT_3(Z/2)", "W(3,1,2)", "W(5,2,1)", "F_3[t]/t^2"
]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(_PERTURBED), changes=st.integers(1, 3))
def test_perturbed_tensors_are_refused_at_the_dense_oracle_triple(data, name, changes):
    A = _BUILDS[name]()
    S, D = A.struct.copy(), A.dim
    for _ in range(changes):
        a, b, k = (data.draw(st.integers(0, D - 1)) for _ in range(3))
        S[a, b, k] = (S[a, b, k] + data.draw(st.integers(1, A.moduli[k] - 1))) % A.moduli[k]
    B = Algebra(A.base, entries(S), A.unit_flat, check=False)
    _assert_axioms_agree(B)
    if D <= 16:
        _assert_env_maps_equal(B)


@pytest.mark.parametrize("ring", [ZMod(2**62 + 57), ProductRing([ZMod(2**61 - 1), ZMod(6)])], ids=repr)
def test_join_is_exact_beyond_int64(ring):
    # products of residues near 2^62 are summed over Python ints
    A = matrix_algebra(ring, 2, check=False)
    assert _assert_axioms_agree(A) is None
    _assert_env_maps_equal(A)
    S = A.struct.copy()
    S[0, 0, 1] = (S[0, 0, 1] + 2**60) % A.moduli[1]
    assert _assert_axioms_agree(Algebra(A.base, entries(S), A.unit_flat, check=False)) is not None
    # the hom check's products of residues leave int64 too
    eye, T = np.eye(A.dim, dtype=np.int64), _transpose(2, ring)[1]
    for H in (eye, T):
        assert rings.hom_refutation(H, A, A) == hom_refutation_dense(H, A, A) == hom_refutation_full(H, A, A)
    assert rings.hom_refutation(eye, A, A) is None
    assert rings.hom_refutation(T, A, A)["condition"] == "multiplicative"


def _transpose(n, ring):
    """E_ij -> E_ji on M_n(ring): bijective and unital, but reverses products."""
    A = matrix_algebra(ring, n, check=False)
    f = ring.flatten_len
    blocks = np.eye(n * n, dtype=np.int64).reshape(n, n, n * n).transpose(1, 0, 2).reshape(n * n, n * n)
    return A, np.kron(blocks, np.eye(f, dtype=np.int64))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("ring", [ZMod(3), ZMod(12), F4, Z2xZ3], ids=repr)
def test_transpose_is_refuted_at_the_dense_oracle_pair(n, ring):
    A, T = _transpose(n, ring)
    refutation = rings.hom_refutation(T, A, A)
    assert refutation == hom_refutation_dense(T, A, A) == hom_refutation_full(T, A, A)
    assert refutation["condition"] == "multiplicative"


def test_hom_refutations_match_dense_oracle_on_the_corpus():
    for entry in build_corpus():
        f = entry.hom
        refutation = rings.hom_refutation(f.matrix, f.source, f.target)
        assert refutation is None, entry.name
        assert refutation == hom_refutation_dense(f.matrix, f.source, f.target), entry.name
        assert refutation == hom_refutation_full(f.matrix, f.source, f.target), entry.name


@settings(max_examples=60, deadline=None)
@given(data=st.data(), changes=st.integers(1, 3))
def test_perturbed_hom_matrices_are_refuted_at_the_dense_oracle_pair(data, changes):
    corpus = build_corpus()
    f = corpus[data.draw(st.integers(0, len(corpus) - 1))].hom
    H = f.matrix.copy()
    for _ in range(changes):
        i, j = data.draw(st.integers(0, H.shape[0] - 1)), data.draw(st.integers(0, H.shape[1] - 1))
        H[i, j] = data.draw(st.integers(0, f.target.moduli[i] - 1))
    refutation = rings.hom_refutation(H, f.source, f.target)
    assert refutation == hom_refutation_dense(H, f.source, f.target) == hom_refutation_full(H, f.source, f.target)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_base_ring_hom_refutations_match_dense_oracle(data):
    R = data.draw(st.sampled_from([ZMod(12), F4, F9, Z2xZ3, Z2xF4, ProductRing([F4, ZMod(4)])]))
    targets = [R] + [m.quotient()[0] for m in maximal_ideals(R)]
    T = data.draw(st.sampled_from(targets))
    H = np.asarray(
        [[data.draw(st.integers(0, m - 1)) for _ in R.moduli] for m in T.moduli], dtype=np.int64
    ).reshape(T.flatten_len, R.flatten_len)
    assert rings.hom_refutation(H, R, T) == hom_refutation_dense(H, R, T)


def test_join_chunks_cover_every_pair_once_at_any_budget():
    A = weyl_quotient(3, 1, 2)
    (_, _, k), _, ptr = A._sparse_rows
    lo, hi = int(ptr[2]), int(ptr[7])
    want = [(e, y) for e in range(lo, hi) for y in range(ptr[k[e]], ptr[k[e] + 1])]
    for budget in (1, 5, 64, 10**9):
        chunks = list(linalg.sparse_join(k, ptr, lo, hi, budget))
        got = [(int(e), int(y)) for x, ys in chunks for e, y in zip(x, ys)]
        assert got == want
        # a chunk over its budget holds the pairs of a single outer entry
        assert all(len(x) <= budget or len(set(x.tolist())) == 1 for x, _ in chunks)


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checked_weyl_build_peaks_no_higher_than_the_dense_check(monkeypatch):
    weyl_quotient(7, 1, 1)  # warm the normal-ordering cache
    weyl_quotient.cache_clear()
    sparse_peak = _traced_peak(lambda: weyl_quotient(7, 1, 1))
    monkeypatch.setattr(Algebra, "_verify_axioms", lambda A, derivation=None: verify_axioms_dense(A))
    weyl_quotient.cache_clear()
    dense_peak = _traced_peak(lambda: weyl_quotient(7, 1, 1))
    assert sparse_peak <= dense_peak


def test_each_fiber_quotient_of_a_product_base_verifies_one_projection(monkeypatch):
    R = ProductRing([ZMod(2), ZMod(3), ZMod(5)])
    calls = []
    original = rings.hom_refutation

    def counted(matrix, source, target):
        calls.append((source, target))
        return original(matrix, source, target)

    monkeypatch.setattr(rings, "hom_refutation", counted)
    ideals = maximal_ideals(R)
    assert len(ideals) == 3 and not calls
    for i, m in enumerate(ideals):
        calls.clear()
        field, proj = m.quotient()
        assert calls == [(R, field)]
        assert proj.matrix.tolist() == [np.eye(3, dtype=np.int64)[i].tolist()]
    # a quotient by a non-maximal ideal has two factors and one check too
    calls.clear()
    target, _ = RingIdeal(R, [0, 1, 0]).quotient()
    assert calls == [(R, target)] and target == ProductRing([ZMod(2), ZMod(5)])

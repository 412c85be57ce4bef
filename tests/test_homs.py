import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya import homs, linalg
from azumaya.algebras import (
    Algebra,
    center,
    commutant,
    jordan_flat,
    matrix_algebra,
    nilpotency_index,
    nilpotency_indices,
    opposite,
    product_rows,
    splitting,
    weyl_quotient,
)
from azumaya.corpus import build_corpus
from azumaya.homs import (
    AlgebraHom,
    ComposabilityMismatch,
    DimensionMismatch,
    NotInvertible,
    PreconditionUnmet,
    base_change_hom,
    center_preservation_check,
    compose,
    conjugation_auto,
    diagonal_embed,
    endo_auto_check,
    isomorphism_check,
    jordan_obstruction_probe,
    kernel_ideal,
    rank_comparison_check,
    reduction_hom,
    tensor_commutant_map,
    weyl_splitting,
)
from azumaya.rings import GaloisField, RingIdeal, ZMod, crt_decompose, is_reduced
from loop_oracles import dense_mul_batch
from ring_oracles import center_preservation_loop, certified_hom, entries, identity_hom, unit_basis


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


# ---------------------------------------------------------------------------
# verification


def test_identity_verified():
    A = matrix_algebra(ZMod(3), 2)
    assert identity_hom(A).status == "verified"


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_corpus_homs_multiplicative_on_random_pairs(corpus, data, seed):
    # verify decides multiplicativity on generator pairs; random pairs
    # through the dense product oracle must agree
    f = data.draw(st.sampled_from(corpus)).hom
    rng = np.random.default_rng(seed)
    X, Y = rng.integers(0, np.asarray(f.source.moduli), size=(2, 16, f.source.dim))
    lhs = f.apply_flat(dense_mul_batch(f.source, X, Y))
    assert np.array_equal(lhs, dense_mul_batch(f.target, f.apply_flat(X), f.apply_flat(Y)))


def test_conjugation_verified_beyond_int64_products():
    # refuted as "multiplicative-random" while products wrapped int64
    N = 3_000_000_021
    A = matrix_algebra(ZMod(N), 2, check=False)
    h = conjugation_auto(A, A.element([1, N - 5, 0, 1]))
    assert h.status == "verified"
    # u x u^-1 for u = [[1, -5], [0, 1]], in Python ints
    x = [[N - 2, 3], [5, N - 7]]
    u, u_inv = [[1, -5], [0, 1]], [[1, 5], [0, 1]]
    ux = [[sum(u[i][k] * x[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    want = [sum(ux[i][k] * u_inv[k][j] for k in range(2)) % N for i in range(2) for j in range(2)]
    assert h.apply_flat(np.ravel(x)).tolist() == want


def test_unit_killing_map_refuted():
    A = matrix_algebra(ZMod(3), 2)
    h = AlgebraHom(A, A, np.zeros((A.dim, A.dim), dtype=np.int64))
    assert h.status == "refuted"
    assert h.refutation["condition"] == "unit"


def test_transpose_refuted_anti_multiplicative():
    A = matrix_algebra(ZMod(3), 2)
    T = np.zeros((4, 4), dtype=np.int64)
    for i in range(2):
        for j in range(2):
            T[j * 2 + i, i * 2 + j] = 1
    h = AlgebraHom(A, A, T)
    assert h.status == "refuted"
    assert h.refutation["condition"] == "multiplicative"


def test_hom_matrix_is_read_only():
    # the memoized image order is read off the matrix, which cannot change
    h = identity_hom(matrix_algebra(ZMod(3), 2))
    assert h.image_order == h.source.size
    with pytest.raises(ValueError):
        h.matrix[0, 1] = 1
    with pytest.raises(ValueError):
        h.matrix += 1


def test_dimension_mismatch():
    A = matrix_algebra(ZMod(2), 2)
    B = matrix_algebra(ZMod(2), 3)
    with pytest.raises(DimensionMismatch):
        AlgebraHom(A, B, np.zeros((3, 3), dtype=np.int64))


def test_ill_formed_base_change_refuted():
    # identity matrix Z/2 coords -> Z/4 coords is not well-defined
    A = matrix_algebra(ZMod(2), 2)
    B = matrix_algebra(ZMod(4), 2)
    h = AlgebraHom(A, B, np.eye(4, dtype=np.int64))
    assert h.status == "refuted"
    assert h.refutation["condition"] == "well-defined"


# ---------------------------------------------------------------------------
# constructors


def test_conjugation_swaps_diagonal():
    A = matrix_algebra(ZMod(3), 2)
    u = A.element([0, 1, 1, 0])  # E_12 + E_21
    h = conjugation_auto(A, u)
    diag = A.element([1, 0, 0, 2])
    assert h.apply(diag).flat.tolist() == [2, 0, 0, 1]


def test_conjugation_requires_unit():
    A = matrix_algebra(ZMod(2), 2)
    with pytest.raises(NotInvertible):
        conjugation_auto(A, A.element([1, 0, 0, 0]))  # E_11 is not invertible


def test_reduction_kernel_is_expanded_ideal():
    A = matrix_algebra(ZMod(4), 2)
    h = reduction_hom(A, RingIdeal(ZMod(4), 2))
    ideal, rep = kernel_ideal(h)
    assert ideal.data == 2
    assert rep.status == "pass"


def test_reduction_by_zero_is_isomorphism():
    A = matrix_algebra(ZMod(4), 2)
    h = reduction_hom(A, RingIdeal(ZMod(4), 4))  # zero ideal
    assert h.is_bijective()


def test_kernel_of_automorphism_is_zero():
    A = matrix_algebra(ZMod(4), 2)
    h = conjugation_auto(A, A.element([1, 1, 0, 1]))
    ideal, rep = kernel_ideal(h)
    assert ideal.is_zero
    assert rep.status == "pass"


def test_diagonal_embed_scalars():
    h = diagonal_embed(ZMod(3), 1, 2)
    img = h.apply_flat(np.asarray([2]))
    assert img.tolist() == [2, 0, 0, 2]


def test_compose_mismatch():
    A = matrix_algebra(ZMod(2), 2)
    B = matrix_algebra(ZMod(2), 3)
    with pytest.raises(ComposabilityMismatch):
        compose(identity_hom(B), identity_hom(A))


def test_crt_composition_consistency():
    # reducing the CRT image at the Z/4 factor equals reducing mod 4 directly
    R = ZMod(12)
    A = matrix_algebra(R, 2)
    product, fwd, _ = crt_decompose(R)
    h = base_change_hom(A, fwd)
    assert h.is_bijective()


@pytest.mark.parametrize("p", [2, 3])
def test_weyl_splitting_all_parameters(p):
    for a in range(p):
        for b in range(p):
            h = weyl_splitting(p, a, b)
            assert h.status == "verified"
            assert h.is_bijective()


def test_weyl_splitting_p11_with_reduced_powers():
    # unreduced int64 matrix powers refuted this genuine splitting at the
    # generator pair [1, 86]
    h = weyl_splitting(11, 10, 10)
    assert h.status == "verified"
    assert h.is_bijective()


def test_weyl_splitting_images_satisfy_relations():
    h = weyl_splitting(3, 1, 2)
    W, M = h.source, h.target
    x = h.apply_flat(unit_basis(W, 3))  # image of x
    y = h.apply_flat(unit_basis(W, 1))  # image of y
    lhs = M.mul_flat(y, x)
    rhs = (M.mul_flat(x, y) + M.unit_flat) % 3
    assert lhs.tolist() == rhs.tolist()


# ---------------------------------------------------------------------------
# theorem checks


def test_center_preservation_conjugation():
    A = matrix_algebra(ZMod(6), 2)
    h = conjugation_auto(A, A.element([1, 1, 0, 1]))
    assert center_preservation_check(h).status == "pass"
    # the induced center map is bijective onto Z(A)
    assert isomorphism_check(h).details["routes"]["center_iso_and_rank"]


def test_center_preservation_over_a_large_prime_is_fast():
    # its preconditions factor 2^61 - 1 (is_reduced, and is_azumaya's residue fields)
    p = 2**61 - 1
    A = matrix_algebra(ZMod(p), 2, check=False)
    h = conjugation_auto(A, A.element([1, p - 5, 0, 1]))
    started = time.perf_counter()
    rep = center_preservation_check(h)
    assert time.perf_counter() - started < 1
    assert rep.status == "pass" and all(rep.preconditions.values())


def test_center_preservation_reduction_mod2():
    A = matrix_algebra(ZMod(6), 2)
    h = reduction_hom(A, RingIdeal(ZMod(6), 2))
    rep = center_preservation_check(h)
    assert rep.status == "pass"
    assert all(rep.preconditions.values())


def test_rank_comparison_reports():
    h = diagonal_embed(ZMod(3), 2, 3)
    rep = rank_comparison_check(h)
    assert rep.status == "pass"
    assert rep.details == {"source_rank": 4, "target_rank": 36}


def test_isomorphism_routes_agree_positive():
    A = matrix_algebra(ZMod(6), 2)
    h = conjugation_auto(A, A.element([1, 2, 0, 1]))
    rep = isomorphism_check(h)
    assert rep.status == "pass"
    assert rep.details["is_isomorphism"]
    assert all(rep.details["routes"].values())


def test_isomorphism_routes_agree_negative():
    h = diagonal_embed(ZMod(2), 2, 2)
    rep = isomorphism_check(h)
    assert rep.status == "pass"
    assert not rep.details["is_isomorphism"]
    assert not any(rep.details["routes"].values())


def test_endo_auto_identity():
    A = matrix_algebra(ZMod(4), 2)
    rep = endo_auto_check(identity_hom(A))
    assert rep.status == "pass"


def test_endo_auto_requires_base_identity():
    # the Frobenius on GF(4) extends to a verified base-changing map of
    # M_2(GF(4)) that does not fix the base, so the endomorphism check
    # refuses it
    F4 = GaloisField.default(2, 2)
    A = matrix_algebra(F4, 2)
    from azumaya.rings import BaseRingHom

    t = F4.element((0, 1))
    frob_t = (t * t).coords
    frob = BaseRingHom(F4, F4, np.asarray([[1, frob_t[0]], [0, frob_t[1]]]))
    h = base_change_hom(A, frob)
    # base_change_hom targets an equal algebra here (Frobenius fixes the
    # structure constants), so source == target
    assert h.source == h.target
    with pytest.raises(PreconditionUnmet):
        endo_auto_check(h)
    rep = isomorphism_check(h)
    assert rep.status == "pass"
    assert rep.details["is_isomorphism"]


def test_jordan_probe_no_index3_in_m2():
    A = matrix_algebra(ZMod(5), 2)
    rep = jordan_obstruction_probe(3, A)
    assert rep.comparable_dict() == {
        "check": "jordan_obstruction",
        "details": {"jordan_types": 2, "largest_index": 2},
        "preconditions": {},
        "status": "pass",
    }


@pytest.mark.parametrize("p,nprime", [(2, 2), (3, 2), (2, 3)], ids=["M2(F_2)", "M2(F_3)", "M3(F_2)"])
def test_jordan_types_give_the_largest_index_of_every_element(p, nprime):
    # every element's index, against the largest over the Jordan types
    A = matrix_algebra(ZMod(p), nprime, check=False)
    every = nilpotency_indices(A, product_rows(0, A.size, A.moduli), A.rank)
    rep = jordan_obstruction_probe(nprime + 1, A)
    assert rep.status == "pass" and rep.details["largest_index"] == every.max() == nprime
    # the indices the Jordan types take are all the indices there are
    types = np.stack([jordan_flat(A.base, lam) for lam in homs._partitions(nprime)])
    assert set(nilpotency_indices(A, types, A.rank).tolist()) == set(every.tolist()) - {0}


@pytest.mark.parametrize(
    "make",
    [
        lambda: opposite(matrix_algebra(ZMod(5), 3, check=False)),
        lambda: weyl_quotient(3, 1, 2),
        lambda: opposite(matrix_algebra(GaloisField.default(2, 2), 2, check=False)),
    ],
    ids=["op(M3(F_5))", "W(3,1,2)", "op(M2(GF(4)))"],
)
def test_jordan_probe_passes_on_forms_in_other_coordinates(make, monkeypatch):
    # the types are pulled back through a searched splitting; each pulled-back
    # element maps to its J_lambda, and nothing is drawn by the probe itself
    A = make()
    nprime = math.isqrt(A.rank)
    pulled = []
    indices = homs.nilpotency_indices

    def recording(B, X, cap):
        pulled.append(X)
        return indices(B, X, cap)

    monkeypatch.setattr(homs, "nilpotency_indices", recording)
    rep = jordan_obstruction_probe(nprime + 1, A)
    assert rep.status == "pass" and rep.details == {"jordan_types": len(list(homs._partitions(nprime))), "largest_index": nprime}
    phi = certified_hom(A)
    want = [jordan_flat(A.base, lam) for lam in homs._partitions(nprime)]
    assert np.array_equal(phi.apply_flat(pulled[0]), np.stack(want))


def test_jordan_probe_fails_on_an_index_above_nprime(monkeypatch):
    # an injected index 4 for J_(2,1) of op(M_3(F_3)): the fail names the
    # pulled-back element, the index and lambda
    A = opposite(matrix_algebra(ZMod(3), 3, check=False))
    indices = homs.nilpotency_indices

    def wrong(B, X, cap):
        index = indices(B, X, cap)
        index[1] = 4
        return index

    monkeypatch.setattr(homs, "nilpotency_indices", wrong)
    rep = jordan_obstruction_probe(4, A)
    assert rep.status == "fail" and rep.details == {"jordan_types": 3, "largest_index": 4}
    assert rep.witness["index"] == 4 and rep.witness["partition"] == [2, 1]
    image = certified_hom(A).apply_flat(np.asarray(rep.witness["element"]))
    assert np.array_equal(image, jordan_flat(ZMod(3), (2, 1)))


def test_jordan_probe_refuses_a_rank_4_algebra_that_is_not_m2():
    # F_2[x]/(x^4) from its structure constants: square rank, a field base,
    # and no splitting, so the lemma's hypothesis A' = M_2(F_2) fails
    table = np.zeros((4, 4, 4), dtype=np.int64)
    for i in range(4):
        for j in range(4 - i):
            table[i, j, i + j] = 1
    A = Algebra(ZMod(2), entries(table), [1, 0, 0, 0])
    assert splitting(A) is None
    with pytest.raises(PreconditionUnmet, match="no verified isomorphism"):
        jordan_obstruction_probe(3, A)


def test_jordan_probe_refuses_non_field_base():
    # Lemma 3.2 bounds nilpotency indices over a field only: M_2(Z/12) holds
    # [[6, 10], [3, 6]] of index 4, which contradicts nothing there
    A = matrix_algebra(ZMod(12), 2)
    with pytest.raises(PreconditionUnmet, match="over a field"):
        jordan_obstruction_probe(3, A)
    assert nilpotency_index(A.element([6, 10, 3, 6]), cap=8) == 4


def test_jordan_probe_vacuous():
    A = matrix_algebra(ZMod(2), 2)
    assert jordan_obstruction_probe(1, A).status == "pass"


def test_jordan_probe_eliminates_its_certificate_once(monkeypatch):
    # the 11 Jordan types of M_6(F_2) are pulled back by one block solve
    A = matrix_algebra(ZMod(2), 6)
    calls = []
    kernel_form = linalg._kernel_form

    def counted(H, N):
        calls.append(H.shape)
        return kernel_form(H, N)

    monkeypatch.setattr(linalg, "_kernel_form", counted)
    rep = jordan_obstruction_probe(7, A)
    assert rep.status == "pass" and rep.details == {"jordan_types": 11, "largest_index": 6}
    assert calls == [(A.dim, A.dim)]


def test_tensor_commutant_diag_m2_in_m4():
    h = diagonal_embed(ZMod(5), 2, 2)
    gens = [h.apply_flat(np.eye(h.source.dim, dtype=np.int64)[j]) for j in range(h.source.dim)]
    C, bij = tensor_commutant_map(h.target, gens)
    assert C.order == 5**4
    assert bij


# ---------------------------------------------------------------------------
# corpus sweeps


def test_corpus_size_and_verification(corpus):
    assert len(corpus) >= 50
    eligible = [e for e in corpus if e.equal_rank_reduced]
    assert len(eligible) >= 50
    for e in corpus:
        assert e.hom.is_verified, e.name


def test_corpus_names_unique_and_deterministic(corpus):
    names = [e.name for e in corpus]
    assert len(names) == len(set(names))
    again = [e.name for e in build_corpus()]
    assert names == again


def test_corpus_suites_build_the_corpus_once(monkeypatch):
    from azumaya import corpus as corpus_mod
    from azumaya import suites

    calls = []

    def counted():
        calls.append(1)
        return build_corpus()

    monkeypatch.setattr(corpus_mod, "build_corpus", counted)
    suites._corpus.cache_clear()
    try:
        suites.run_suite("matrixcenter-thm31", seed=42)
        suites.run_suite("rank-thm41", seed=42)
    finally:
        suites._corpus.cache_clear()
    assert len(calls) == 1


def test_corpus_center_preservation_zero_failures(corpus):
    for e in corpus:
        if not e.equal_rank_reduced:
            continue
        rep = center_preservation_check(e.hom)
        assert rep.status == "pass", e.name


def test_corpus_center_preserved_over_nonreduced_bases(corpus):
    # over a finite base the matrix-units argument (module docstring of
    # azumaya.homs) needs no reduced target: every equal-rank hom out of
    # M_2(Z/4) or M_2(Z/12) into a non-reduced base carries the center into
    # the center
    eligible = [
        e for e in corpus if e.hom.source.rank == e.hom.target.rank and not is_reduced(e.hom.target.base)
    ]
    assert {e.hom.source.base for e in eligible} == {ZMod(4), ZMod(12)}
    assert len(eligible) == 17
    for e in eligible:
        rep = center_preservation_check(e.hom)
        assert rep.status == "pass", e.name
        assert rep.preconditions["target_base_reduced"] is False


def test_corpus_onto_homs_commutant_is_the_center(corpus):
    # route (d) of isomorphism_check takes C = Z(target) when f is onto
    onto = 0
    for e in corpus:
        f = e.hom
        if linalg.Subgroup(f.matrix.T, f.target.moduli).order != f.target.size:
            continue
        onto += 1
        C = commutant(f.target, f.matrix.T)
        assert center(f.target) == C, e.name
    assert 0 < onto < len(corpus)


def test_corpus_image_order_and_kernel_from_one_elimination(corpus):
    for e in corpus:
        f = e.hom
        src, tgt = f.source.moduli, f.target.moduli
        image_order, kernel = linalg.image_order_and_kernel(f.matrix, src, tgt)
        assert image_order == linalg.Subgroup(f.matrix.T, tgt).order, e.name
        # the memoized forward pass gives the same order
        assert f.image_order == image_order, e.name
        assert kernel.order == linalg.kernel_additive(f.matrix, src, tgt).order, e.name
        # |image| |kernel| = |source|, and the kernel maps to 0
        assert image_order * kernel.order == f.source.size, e.name
        assert not f.apply_flat(kernel.generators()).any(), e.name


def _searched_preconditions(f):
    """`_azumaya_preconditions` with `is_azumaya` deciding both sides."""
    return {
        "hom_verified": f.is_verified,
        "source_azumaya": homs._azumaya_ok(f.source),
        "target_azumaya": homs._azumaya_ok(f.target),
        "source_constant_rank": f.source.rank,
        "target_constant_rank": f.target.rank,
        "target_base_reduced": is_reduced(f.target.base),
    }


def test_certified_preconditions_match_the_searched_ones(corpus):
    # a verified bijective hom onto M_n(R') of equal rank certifies its
    # source; on the corpus and the split-cor29 splittings that changes no
    # precondition
    from azumaya.suites import _WEYL_GRID

    maps = [e.hom for e in corpus] + [weyl_splitting(*pab) for pab in _WEYL_GRID]
    for f in maps:
        assert homs._azumaya_preconditions(f) == _searched_preconditions(f), f


def test_a_certificate_of_unequal_rank_certifies_nothing():
    # GF(16) as a rank-4 algebra over F_2: the identity onto M_1(GF(16)) is
    # verified, bijective and of square rank, but GF(16) is commutative of
    # rank 4, so not Azumaya over F_2
    F16 = GaloisField.default(2, 4)
    A = Algebra(ZMod(2), entries(F16.struct), F16.unit_flat, label="GF(16)/F_2")
    f = AlgebraHom(A, matrix_algebra(F16, 1), np.eye(4, dtype=np.int64))
    assert f.is_verified and f.is_bijective() and A.rank == 4
    assert homs._azumaya_preconditions(f)["source_azumaya"] is False
    with pytest.raises(PreconditionUnmet, match="Azumaya"):
        isomorphism_check(f)


def test_the_benchmark_suites_search_one_splitting(monkeypatch):
    # with the Azumaya memo cold, the seven corpus and probe suites search
    # only M_2(F_2) (x) M_2(F_2)^op, which no hom certifies; split-cor29's
    # Weyl quotients are certified by their splittings
    from azumaya import algebras, suites
    from azumaya.algebras import tensor_product

    searched = []
    search = algebras._searched_splitting

    def recording(A):
        searched.append(A)
        return search(A)

    monkeypatch.setattr(algebras, "_searched_splitting", recording)
    homs._azumaya_ok.cache_clear()
    for name in (
        "matrixcenter-thm31",
        "jordan-lem32",
        "center-thm41",
        "rank-thm41",
        "iso-prop51-thm53",
        "endo-cor52",
        "tensor-env-rem23",
    ):
        assert all(rep.status == "pass" for rep in suites.run_suite(name, seed=42)), name
    M2 = matrix_algebra(ZMod(2), 2)
    assert searched == [tensor_product(M2, opposite(M2))]
    searched.clear()
    homs._azumaya_ok.cache_clear()
    assert all(rep.status == "pass" for rep in suites.run_suite("split-cor29", seed=42))
    assert searched == []


def _idempotents_to_diagonal(images):
    """The hom F_2^d -> M_2(F_2) sending the i-th primitive idempotent of
    F_2^d to the flat 2 x 2 matrix images[i]."""
    F2, d = ZMod(2), len(images)
    table = np.zeros((d, d, d), dtype=np.int64)
    table[range(d), range(d), range(d)] = 1
    source = Algebra(F2, entries(table), np.ones(d, dtype=np.int64))
    return AlgebraHom(source, matrix_algebra(F2, 2), np.asarray(images).T)


# e_1 -> E_11 and e_2 -> E_22 fails at the first center generator; with
# e_1 -> 0 in front, the first generator passes and the second fails
_REFUTED_CENTER_MAPS = {
    "F2xF2": [[1, 0, 0, 0], [0, 0, 0, 1]],
    "F2xF2xF2": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
}


def test_center_preservation_matches_the_per_generator_loop(corpus):
    refuted = {name: _idempotents_to_diagonal(images) for name, images in _REFUTED_CENTER_MAPS.items()}
    for f in [e.hom for e in corpus] + list(refuted.values()):
        assert f.is_verified, f.label
        rep = center_preservation_check(f)
        assert rep.comparable_dict() == center_preservation_loop(f).comparable_dict(), f.label
    witness = {"image": [1, 0, 0, 0], "noncommuting_coordinate": 1, "commutator": [0, 1, 0, 0]}
    rep = center_preservation_check(refuted["F2xF2"])
    assert rep.status == "fail" and rep.witness == {"center_generator": [1, 0], **witness}
    rep = center_preservation_check(refuted["F2xF2xF2"])
    assert rep.status == "fail" and rep.witness == {"center_generator": [0, 1, 0], **witness}


def test_corpus_rank_inequality_zero_violations(corpus):
    for e in corpus:
        rep = rank_comparison_check(e.hom)
        assert rep.status == "pass", e.name


def test_corpus_kernels_are_expanded_ideals(corpus):
    for e in corpus:
        _, rep = kernel_ideal(e.hom)
        assert rep.status == "pass", e.name


def test_corpus_isomorphism_routes_agree(corpus):
    for e in corpus:
        rep = isomorphism_check(e.hom)
        assert rep.status == "pass", (e.name, rep.witness)
        if e.kind == "diagonal":
            assert not rep.details["is_isomorphism"], e.name


def test_corpus_endomorphisms_bijective(corpus):
    seen = 0
    for e in corpus:
        h = e.hom
        if h.source != h.target or not h.fixes_base():
            continue
        seen += 1
        assert endo_auto_check(h).status == "pass", e.name
    assert seen >= 10

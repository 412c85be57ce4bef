import random

import numpy as np
import pytest

from azumaya import identities
from azumaya.algebras import AlgebraError, matrix_algebra, weyl_quotient
from azumaya.homs import diagonal_embed, reduction_hom
from azumaya.identities import (
    AlgebraMismatch,
    ArityMismatch,
    BudgetExceeded,
    IdentityError,
    MultilinearIdentity,
    al_vanishing_check,
    evaluate,
    identity_transfer_check,
    nonvanishing_witness,
    standard_identity,
)
from azumaya.rings import GaloisField, RingIdeal, ZMod
from loop_oracles import standard_identity_terms_loop
from ring_oracles import identity_hom


# ---------------------------------------------------------------------------
# representation


def test_standard_identity_shapes():
    assert standard_identity(1).terms == [(1, (1,))]
    s2 = standard_identity(2)
    assert sorted(s2.terms) == [(-1, (2, 1)), (1, (1, 2))]
    assert len(standard_identity(3).terms) == 6


@pytest.mark.parametrize("k", range(1, 9))
def test_standard_identity_terms_match_inversion_count(k):
    assert standard_identity(k).terms == standard_identity_terms_loop(k)


def test_standard_identity_terms_built_on_first_read(monkeypatch):
    # the searches evaluate s_k by the subset DP and never read its terms
    made = []

    def recording(k):
        made.append(standard_identity(k))
        return made[-1]

    monkeypatch.setattr(identities, "standard_identity", recording)
    A = matrix_algebra(ZMod(2), 4, check=False)
    assert al_vanishing_check(A, 4, mode="samples", count=3, seed=1).status == "pass"
    assert nonvanishing_witness(A, 6)[1].status == "pass"
    assert [s.arity for s in made] == [8, 6]
    assert all("terms" not in vars(s) for s in made)
    assert repr(made[0]) == "<s_8: 40320 terms>" and "terms" in vars(made[0])


def test_standard_identity_cap():
    with pytest.raises(IdentityError):
        standard_identity(9)
    with pytest.raises(IdentityError):
        standard_identity(0)


def test_malformed_identity_rejected():
    with pytest.raises(IdentityError):
        MultilinearIdentity(2, [(1, (1, 1))])  # repeated variable
    with pytest.raises(IdentityError):
        MultilinearIdentity(2, [(0, (1, 2))])  # zero coefficient


def test_identity_config_roundtrip():
    s3 = standard_identity(3)
    cfg = s3.to_config()
    rebuilt = MultilinearIdentity(cfg["arity"], [(t["coef"], t["word"]) for t in cfg["terms"]])
    assert rebuilt.to_config() == cfg


# ---------------------------------------------------------------------------
# evaluation


def test_s2_on_matrix_units():
    A = matrix_algebra(ZMod(2), 2)
    E11, E12 = A.element([1, 0, 0, 0]), A.element([0, 1, 0, 0])
    assert evaluate(standard_identity(2), [E11, E12]).flat.tolist() == [0, 1, 0, 0]


def test_alternating_on_repeated_element():
    A = matrix_algebra(ZMod(4), 2)
    rng = random.Random(0)
    s3 = standard_identity(3)
    for _ in range(20):
        x = A.element([rng.randrange(4) for _ in range(4)])
        y = A.element([rng.randrange(4) for _ in range(4)])
        assert evaluate(s3, [x, x, y]).is_zero()
        assert evaluate(s3, [x, y, x]).is_zero()


def test_s4_vanishes_on_basis_m2z4():
    A = matrix_algebra(ZMod(4), 2)
    basis = [A.element(np.eye(4, dtype=np.int64)[i]) for i in range(4)]
    assert evaluate(standard_identity(4), basis).is_zero()


def test_multilinearity_in_each_slot():
    A = matrix_algebra(ZMod(3), 2)
    rng = random.Random(1)
    s3 = standard_identity(3)
    for _ in range(10):
        xs = [A.element([rng.randrange(3) for _ in range(4)]) for _ in range(3)]
        extra = A.element([rng.randrange(3) for _ in range(4)])
        for slot in range(3):
            bumped = list(xs)
            bumped[slot] = xs[slot] + extra
            alt = list(xs)
            alt[slot] = extra
            lhs = evaluate(s3, bumped)
            rhs = evaluate(s3, xs) + evaluate(s3, alt)
            assert lhs == rhs


def test_subset_dp_matches_direct_expansion():
    # the DP evaluator against the alternating-sum definition evaluated
    # term by term through the generic path
    A = matrix_algebra(ZMod(4), 2)
    rng = random.Random(2)
    for k in (2, 3, 4):
        sk = standard_identity(k)
        naive = MultilinearIdentity(k, sk.terms)
        for _ in range(5):
            xs = [A.element([rng.randrange(4) for _ in range(4)]) for _ in range(k)]
            assert evaluate(sk, xs) == evaluate(naive, xs)


def _mat_mul(X, Y, N):
    return [[sum(X[i][k] * Y[k][j] for k in range(2)) % N for j in range(2)] for i in range(2)]


def test_s3_past_int64_matches_alternating_sum():
    # the subset DP sums up to three residues below N = 2^63 - 25
    N = 2**63 - 25
    A = matrix_algebra(ZMod(N), 2, check=False)
    s3 = standard_identity(3)
    rng = random.Random(7)
    for _ in range(50):
        mats = [[[rng.randrange(N) for _ in range(2)] for _ in range(2)] for _ in range(3)]
        expected = [[0, 0], [0, 0]]
        for sign, word in s3.terms:
            P = _mat_mul(_mat_mul(mats[word[0] - 1], mats[word[1] - 1], N), mats[word[2] - 1], N)
            expected = [[(expected[i][j] + sign * P[i][j]) % N for j in range(2)] for i in range(2)]
        xs = [A.element([v for row in M for v in row]) for M in mats]
        assert evaluate(s3, xs).flat.tolist() == [v for row in expected for v in row]
        generic = MultilinearIdentity(3, s3.terms)
        assert evaluate(generic, xs) == evaluate(s3, xs)


def test_evaluate_errors():
    A = matrix_algebra(ZMod(2), 2)
    B = matrix_algebra(ZMod(3), 2)
    s2 = standard_identity(2)
    with pytest.raises(ArityMismatch):
        evaluate(s2, [A.one()])
    with pytest.raises(AlgebraMismatch):
        evaluate(s2, [A.one(), B.one()])


# ---------------------------------------------------------------------------
# AL checks


def test_al_m2f2_exhaustive():
    A = matrix_algebra(ZMod(2), 2)
    rep = al_vanishing_check(A, 2, mode="exhaustive")
    assert rep.status == "pass"
    assert rep.details["tested"] == 16**4


def test_al_weyl_exhaustive():
    rep = al_vanishing_check(weyl_quotient(2, 1, 1), 2, mode="exhaustive")
    assert rep.status == "pass"


def test_al_sampled_requires_seed():
    # past the subset tables, with more subsets than samples, the check
    # scans seeded tuples, and the draw refuses to run without a seed: s_8
    # on M_5(F_2), whose tables stop at size 4, and on M_2(GF(32)), whose
    # tables stop at size 5 and on which s_8 vanishes
    M5 = matrix_algebra(ZMod(2), 5, check=False)
    for A in (M5, matrix_algebra(GaloisField.default(2, 5), 2, check=False)):
        assert identities._depth(A.dim, 8) < 7
        with pytest.raises(AlgebraError, match="needs a seed"):
            al_vanishing_check(A, 4, mode="samples", count=10)
    assert al_vanishing_check(M5, 4, mode="samples", count=3, seed=7).status == "fail"


def test_al_sampled_without_seed_decided_on_subsets():
    # C(4, 4) = 1 <= 10 subsets, on which s_4 vanishes: nothing is drawn
    A = matrix_algebra(ZMod(4), 2)
    rep = al_vanishing_check(A, 2, mode="samples", count=10)
    assert rep.status == "pass" and rep.seed is None
    assert rep.details == {"k": 4, "mode": "samples", "tested": 10}


@pytest.mark.parametrize("seed", [None, 1])
def test_al_unknown_mode_refused(seed):
    A = matrix_algebra(ZMod(6), 2)
    with pytest.raises(IdentityError, match="unknown mode 'sampels'"):
        al_vanishing_check(A, 1, mode="sampels", count=50, seed=seed)


def test_al_sampled_m3z6():
    A = matrix_algebra(ZMod(6), 3)
    rep = al_vanishing_check(A, 3, mode="samples", count=2000, seed=42)
    assert rep.status == "pass"
    assert rep.details["tested"] == 2000


def test_al_budget_exceeded():
    # M_5(F_2) has 25 generators, and its subset tables stop at size 4, so
    # exhaustive s_6 is refused before anything is evaluated
    A = matrix_algebra(ZMod(2), 5, check=False)
    with pytest.raises(BudgetExceeded, match="exhaustive s_6 on 25 generators"):
        al_vanishing_check(A, 3, mode="exhaustive")
    # 6^54 tuples of M_3(Z/6), decided on its C(9, 6) = 84 generator subsets
    rep = al_vanishing_check(matrix_algebra(ZMod(6), 3), 3, mode="exhaustive")
    assert rep.status == "pass" and rep.details == {"k": 6, "mode": "exhaustive", "tested": 6**54}


def test_al_below_boundary_fails_with_witness():
    # s_2 does not vanish on M_2: the check below the AL degree must fail
    A = matrix_algebra(ZMod(2), 2)
    rep = al_vanishing_check(A, 1, mode="exhaustive")
    assert rep.status == "fail"
    assert rep.witness is not None
    # re-evaluate the witness tuple exactly
    xs = [A.element(v) for v in rep.witness["tuple"]]
    assert evaluate(standard_identity(2), xs).flat.tolist() == rep.witness["value"]


# ---------------------------------------------------------------------------
# witnesses


def test_witness_s2_m2f2():
    A = matrix_algebra(ZMod(2), 2)
    elems, rep = nonvanishing_witness(A, 2)
    assert rep.status == "pass"
    assert not evaluate(standard_identity(2), list(elems)).is_zero()


def test_witness_s4_m3():
    A = matrix_algebra(ZMod(2), 3)
    elems, rep = nonvanishing_witness(A, 4)
    assert rep.status == "pass"
    assert not evaluate(standard_identity(4), list(elems)).is_zero()


def test_witness_s6_m4f2_at_default_budget():
    # s_6 does not vanish on M_4 (Amitsur-Levitzki); the basis phase walks
    # 6-subsets of distinct generators, where tuples with repeats would all
    # give zero
    A = matrix_algebra(ZMod(2), 4, check=False)
    elems, rep = nonvanishing_witness(A, 6)
    assert rep.status == "pass"
    assert rep.details["phase"] == "basis"
    assert rep.details["tried"] <= 8008  # C(16, 6)
    assert not evaluate(standard_identity(6), list(elems)).is_zero()
    assert len({e.flat.tobytes() for e in elems}) == 6


def test_witness_s4_m3f3_first_subset():
    A = matrix_algebra(ZMod(3), 3, check=False)
    elems, rep = nonvanishing_witness(A, 4)
    assert rep.status == "pass" and rep.details["tried"] == 1


@pytest.mark.parametrize("budget", [0, -5])
def test_witness_budget_below_1_refused(budget):
    # a walk over no subsets would report not-found for want of trying
    with pytest.raises(IdentityError, match="budget must be >= 1"):
        nonvanishing_witness(matrix_algebra(ZMod(2), 2), 2, budget=budget)


def test_witness_not_found_on_commutative():
    A = matrix_algebra(ZMod(6), 1)
    elems, rep = nonvanishing_witness(A, 2, budget=200)
    assert elems is None
    assert rep.status == "not-found"


# ---------------------------------------------------------------------------
# transfer


def test_transfer_reduction():
    A = matrix_algebra(ZMod(4), 2)
    h = reduction_hom(A, RingIdeal(ZMod(4), 2))
    rep = identity_transfer_check(h, standard_identity(2), trials=100, seed=3)
    assert rep.status == "pass"


def test_transfer_identity_hom():
    A = matrix_algebra(ZMod(3), 2)
    rep = identity_transfer_check(identity_hom(A), standard_identity(3), trials=20, seed=0)
    assert rep.status == "pass"


def test_transfer_diagonal_embed_s4():
    h = diagonal_embed(ZMod(2), 2, 2)
    rep = identity_transfer_check(h, standard_identity(4), trials=100, seed=5)
    assert rep.status == "pass"


# ---------------------------------------------------------------------------
# Azumaya transfer property (Thm 2.6 direction)


@pytest.mark.parametrize(
    "algebra,n",
    [
        (matrix_algebra(ZMod(2), 2), 2),
        (weyl_quotient(2, 0, 1), 2),
        (weyl_quotient(3, 1, 2), 3),
    ],
)
def test_azumaya_algebras_satisfy_own_al_degree(algebra, n):
    mode = "exhaustive" if algebra.size ** (2 * n) <= 10**7 else "samples"
    rep = al_vanishing_check(algebra, n, mode=mode, count=500, seed=9)
    assert rep.status == "pass"

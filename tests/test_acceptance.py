"""Acceptance gate: the eleven headline criteria, one test (and one printed
pass/fail line) each.  All arithmetic is exact; every tolerance is zero."""

import hashlib
import json
import math
import random
import time

import numpy as np
import pytest

from azumaya.algebras import (
    center,
    env_map_bijective,
    ideal_intersection_check,
    is_azumaya,
    jordan_cell,
    matrix_algebra,
    nilpotency_index,
    square_rank_check,
    upper_triangular_algebra,
    weyl_quotient,
)
from azumaya.corpus import build_corpus
from azumaya.homs import (
    center_preservation_check,
    diagonal_embed,
    endo_auto_check,
    isomorphism_check,
    jordan_obstruction_probe,
    kernel_ideal,
    rank_comparison_check,
    tensor_commutant_map,
    weyl_splitting,
)
from azumaya.identities import al_vanishing_check, nonvanishing_witness
from azumaya.reports import CheckReport, worst_exit_code
from azumaya.rings import GaloisField, ProductRing, RingIdeal, ZMod
from azumaya.suites import builtin_suites, run_suite
from ring_oracles import center_bruteforce, entries

MATRIX_GRID = [(n, m) for n in (1, 2, 3) for m in (2, 3, 4, 6, 8, 9, 12)]
WEYL_GRID = [(p, a, b) for p in (2, 3, 5) for a in range(p) for b in range(p)]


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def passing_algebras():
    algebras = [matrix_algebra(ZMod(m), n, check=False) for n, m in MATRIX_GRID]
    algebras += [weyl_quotient(p, a, b) for p, a, b in WEYL_GRID]
    return algebras


def test_criterion_01_azumaya_grid(passing_algebras):
    started = time.monotonic()
    for A in passing_algebras:
        assert is_azumaya(A).status == "pass", A.label
    counterexample = is_azumaya(upper_triangular_algebra(ZMod(2), 2))
    assert counterexample.status == "fail"
    assert counterexample.witness is not None
    assert time.monotonic() - started <= 60


def test_criterion_02_square_rank(passing_algebras):
    for A in passing_algebras:
        rep = square_rank_check(A)
        assert rep.status == "pass", A.label
        assert rep.details["n"] ** 2 == rep.details["rank"]


def test_criterion_03_center_oracle():
    small = [
        matrix_algebra(ZMod(m), 1, check=False) for m in (2, 3, 4, 6, 8, 9, 12)
    ]
    small += [matrix_algebra(ZMod(m), 2, check=False) for m in (2, 3, 4, 6, 8)]
    small += [weyl_quotient(2, a, b) for a in range(2) for b in range(2)]
    small += [
        upper_triangular_algebra(ZMod(2), 2),
        upper_triangular_algebra(ZMod(2), 3),
        matrix_algebra(GaloisField.default(2, 2), 2, check=False),
        matrix_algebra(ProductRing([ZMod(2), ZMod(3)]), 1, check=False),
    ]
    for A in small:
        assert A.size <= 5000, A.label
        zc = center(A)
        brute = center_bruteforce(A)
        assert zc.order == len(brute), A.label
        for e in brute:
            assert zc.contains(e.flat), A.label


def test_criterion_04_weyl_splitting_all_cases():
    started = time.monotonic()
    for p, a, b in WEYL_GRID:
        h = weyl_splitting(p, a, b)
        assert h.status == "verified", (p, a, b)
        assert h.is_bijective(), (p, a, b)
    assert time.monotonic() - started <= 120


def test_criterion_05_al_boundary():
    # s_4 on the rank-4 families
    rep = al_vanishing_check(matrix_algebra(ZMod(2), 2, check=False), 2, mode="exhaustive")
    assert rep.status == "pass" and rep.details["tested"] == 65536
    for m in (4, 6):
        A = matrix_algebra(ZMod(m), 2, check=False)
        assert al_vanishing_check(A, 2, mode="samples", count=2000, seed=42).status == "pass"
    for a in range(2):
        for b in range(2):
            W = weyl_quotient(2, a, b)
            assert al_vanishing_check(W, 2, mode="samples", count=2000, seed=42).status == "pass"
    # s_6 on the rank-9 family
    for m in (2, 3, 6):
        A = matrix_algebra(ZMod(m), 3, check=False)
        assert al_vanishing_check(A, 3, mode="samples", count=2000, seed=42).status == "pass"
    # witnesses below the boundary
    for m in (2, 4, 6):
        elems, rep = nonvanishing_witness(matrix_algebra(ZMod(m), 2, check=False), 2)
        assert rep.status == "pass", m
    for m in (2, 3):
        elems, rep = nonvanishing_witness(matrix_algebra(ZMod(m), 3, check=False), 4)
        assert rep.status == "pass", m


def test_criterion_06_center_preservation_corpus(corpus):
    eligible = [e for e in corpus if e.equal_rank_reduced]
    assert len(eligible) >= 50
    reports = []
    for e in eligible:
        rep = center_preservation_check(e.hom)
        reports.append(rep)
        assert rep.status == "pass", e.name
    assert worst_exit_code(reports) == 0
    # the escalation path: a contradicts-theorem report maps to exit code 3
    contra = CheckReport(check="x", status="contradicts-theorem", witness={"w": 1})
    assert worst_exit_code(reports + [contra]) == 3


def test_criterion_07_rank_inequality_and_jordan(corpus):
    for e in corpus:
        assert rank_comparison_check(e.hom).status == "pass", e.name
    for p in (2, 3, 5):
        for n in range(1, 7):
            if n == 1:
                assert jordan_cell(ZMod(p), 1).is_zero()
                continue
            assert nilpotency_index(jordan_cell(ZMod(p), n), cap=n + 1) == n
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            for nprime in range(1, n):
                A = matrix_algebra(ZMod(p), nprime, check=False)
                rep = jordan_obstruction_probe(n, A)
                assert rep.status == "pass", (p, n, nprime)
                assert rep.details == {"jordan_types": (1, 2, 3)[nprime - 1], "largest_index": nprime}


def test_criterion_08_kernel_and_intersection(corpus):
    for e in corpus:
        _, rep = kernel_ideal(e.hom)
        assert rep.status == "pass", e.name
    A = matrix_algebra(ZMod(12), 2, check=False)
    assert ideal_intersection_check(
        A, [RingIdeal(ZMod(12), 2), RingIdeal(ZMod(12), 3)]
    ).status == "pass"
    rng = random.Random(7)
    divisors = [2, 3, 4, 6, 12]
    for _ in range(20):
        family = [RingIdeal(ZMod(12), rng.choice(divisors)) for _ in range(rng.randint(2, 3))]
        assert ideal_intersection_check(A, family).status == "pass"


def test_criterion_09_isomorphism_criteria(corpus):
    for e in corpus:
        rep = isomorphism_check(e.hom)
        assert rep.status == "pass", (e.name, rep.witness)
        if e.kind == "diagonal":
            assert not rep.details["is_isomorphism"], e.name
            assert not any(rep.details["routes"].values()), e.name
    endos = 0
    for e in corpus:
        h = e.hom
        if h.source != h.target or not h.fixes_base():
            continue
        endos += 1
        assert endo_auto_check(h).status == "pass", e.name
    assert endos >= 10
    h = diagonal_embed(ZMod(5), 2, 2)
    gens = [h.apply_flat(np.eye(h.source.dim, dtype=np.int64)[j]) for j in range(h.source.dim)]
    C, bij = tensor_commutant_map(h.target, gens)
    assert C.order == 5**4  # free of rank 4 over F_5
    assert bij


def test_criterion_10_enveloping_map():
    assert env_map_bijective(matrix_algebra(ZMod(2), 2, check=False))
    assert env_map_bijective(matrix_algebra(ZMod(4), 2, check=False))
    assert env_map_bijective(weyl_quotient(3, 1, 2))
    from azumaya.algebras import Algebra

    R = ZMod(2)
    split_quadratic = Algebra(R, entries([[[1, 0], [0, 0]], [[0, 0], [0, 1]]]), [1, 1])
    assert not env_map_bijective(split_quadratic)


def test_criterion_11_determinism_and_runtime():
    started = time.monotonic()
    first = {}
    for name in builtin_suites():
        first[name] = [r.comparable_dict() for r in run_suite(name, seed=42)]
    elapsed_one_run = time.monotonic() - started
    for name in builtin_suites():
        again = [r.comparable_dict() for r in run_suite(name, seed=42)]
        assert json.dumps(again, sort_keys=True) == json.dumps(first[name], sort_keys=True), name
    assert all(
        rep["status"] in ("pass", "not-found") for reps in first.values() for rep in reps
    )
    # the whole seed-42 report stream: any change to a report shows here.
    # azumaya-def21's UT_2(F_2) witness is its rank, 3, decided before any
    # fiber, and jordan-lem32's probes report their Jordan types, unseeded
    digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()
    assert digest == "f3282883a46d8ddaed54920023ac02856f6ae3ddfa7b42191949e8e561614ccb"
    assert elapsed_one_run <= 600

"""The sparse product kernel against the dense contraction, and each batched
search against the one-tuple-at-a-time loop it replaced (tests/loop_oracles.py)."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya import algebras, homs, identities
from azumaya.algebras import (
    Algebra,
    matrix_algebra,
    opposite,
    product_rows,
    tensor_product,
    upper_triangular_algebra,
    weyl_quotient,
)
from azumaya.homs import (
    VERIFIED,
    AlgebraHom,
    PreconditionUnmet,
    diagonal_embed,
    jordan_obstruction_probe,
    reduction_hom,
    weyl_splitting,
)
from azumaya.identities import (
    MultilinearIdentity,
    _tuples,
    al_vanishing_check,
    evaluate,
    identity_transfer_check,
    nonvanishing_witness,
    standard_identity,
)
from azumaya.rings import GaloisField, ProductRing, RingIdeal, ZMod
from loop_oracles import (
    al_vanishing_check_loop,
    dense_mul_batch,
    exhaustive_tuples_loop,
    identity_transfer_check_loop,
    largest_nilpotency_index_loop,
    nilpotency_indices_walk,
    nonvanishing_witness_loop,
    sampled_tuples_loop,
)
from ring_oracles import entries

# ---------------------------------------------------------------------------
# the product kernel


_KERNEL_ALGEBRAS = {
    "M2(Z/2)": lambda: matrix_algebra(ZMod(2), 2),
    "M3(Z/2)": lambda: matrix_algebra(ZMod(2), 3),
    "M2(Z/12)": lambda: matrix_algebra(ZMod(12), 2),
    "M2(GF(4))": lambda: matrix_algebra(GaloisField.default(2, 2), 2),
    "M2(Z/2 x Z/3)": lambda: matrix_algebra(ProductRing([ZMod(2), ZMod(3)]), 2),
    "UT3(Z/2)": lambda: upper_triangular_algebra(ZMod(2), 3),
    "UT3(Z/6)": lambda: upper_triangular_algebra(ZMod(6), 3),
    "W(2,1,0)": lambda: weyl_quotient(2, 1, 0),
    "W(3,1,2)": lambda: weyl_quotient(3, 1, 2),
    "op(UT3(Z/2))": lambda: opposite(upper_triangular_algebra(ZMod(2), 3)),
    "op(W(3,2,0))": lambda: opposite(weyl_quotient(3, 2, 0)),
    "M2(Z/3)(x)UT2(Z/3)": lambda: tensor_product(
        matrix_algebra(ZMod(3), 2), upper_triangular_algebra(ZMod(3), 2)
    ),
    "W(2,0,1)(x)op(W(2,1,1))": lambda: tensor_product(
        weyl_quotient(2, 0, 1), opposite(weyl_quotient(2, 1, 1))
    ),
}


@functools.cache
def _kernel_algebra(name):
    return _KERNEL_ALGEBRAS[name]()


def _random_rows(A, T, seed):
    rng = np.random.default_rng(seed)
    hi = np.asarray(A.moduli, dtype=np.int64)
    return rng.integers(0, hi, size=(T, A.dim)), rng.integers(0, hi, size=(T, A.dim))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_KERNEL_ALGEBRAS)),
    T=st.sampled_from([1, 7, 4096]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mul_batch_matches_dense_contraction(name, T, seed):
    A = _kernel_algebra(name)
    X, Y = _random_rows(A, T, seed)
    want = dense_mul_batch(A, X, Y)
    got = A.mul_batch(X, Y)
    assert got.dtype == np.int64 and got.shape == (T, A.dim)
    assert np.array_equal(got, want)
    assert np.array_equal(A.mul_flat(X[0], Y[0]), want[0])


def _envelope_top(D):
    """Largest modulus N with D^2 * N^3 < 2^63, the bound of a dense int64
    contraction over the whole tensor (the oracle's switch to Python ints)."""
    N = round(((2**63 - 1) / D**2) ** (1 / 3))
    while D**2 * N**3 >= 2**63:
        N -= 1
    while D**2 * (N + 1) ** 3 < 2**63:
        N += 1
    return N


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("T", [1, 7, 4096])
def test_mul_batch_at_top_of_envelope(n, T):
    # products checked against exact Python-int contractions, up to and
    # beyond the moduli where a dense int64 contraction would wrap
    for N in (_envelope_top(n * n), _envelope_top(n * n) + 1, 2**61 - 1):
        A = matrix_algebra(ZMod(N), n, check=False)
        for seed in range(3):
            X, Y = _random_rows(A, T, seed)
            X[0] = Y[0] = N - 1
            assert np.array_equal(A.mul_batch(X, Y), dense_mul_batch(A, X, Y))
            assert np.array_equal(A.mul_flat(X[0], Y[0]), dense_mul_batch(A, X[:1], Y[:1])[0])


def test_products_beyond_int64_regressions():
    # each wrapped int64 sums: 37 of 200 and 182 of 200 rows came back wrong
    rng = np.random.default_rng(0)
    N = 10**7 + 19
    R = ZMod(N)
    quadratic = Algebra(R, entries([[[1, 0], [0, 1]], [[0, 1], [N - 3, 0]]]), [1, 0])
    for A in (matrix_algebra(ZMod(3_000_000_021), 2, check=False), quadratic):
        hi = max(A.moduli)
        X, Y = rng.integers(0, hi, (200, A.dim)), rng.integers(0, hi, (200, A.dim))
        assert np.array_equal(A.mul_batch(X, Y), dense_mul_batch(A, X, Y))


def test_mul_batch_empty_batch():
    A = matrix_algebra(ZMod(3), 2)
    empty = np.zeros((0, A.dim), dtype=np.int64)
    assert A.mul_batch(empty, empty).shape == (0, A.dim)


# ---------------------------------------------------------------------------
# tuple generation


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exhaustive_tuples_in_product_order(k):
    # every k-tuple of A, in batches of product_rows over k copies of A's
    # coordinates
    A = matrix_algebra(ZMod(2), 2)  # 16 elements, 16^3 = 4096 triples
    total, radices = A.size**k, A.moduli * k
    got = [product_rows(lo, min(lo + 100, total), radices).reshape(-1, k, A.dim) for lo in range(0, total, 100)]
    want = list(exhaustive_tuples_loop(A, k, batch=100))
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_product_rows_matches_itertools():
    radices = (3, 1, 4, 2)
    rows = list(itertools.product(*(range(r) for r in radices)))
    assert product_rows(0, len(rows), radices).tolist() == [list(r) for r in rows]
    assert product_rows(5, 17, radices).tolist() == [list(r) for r in rows[5:17]]


def test_sampled_tuples_draw_in_loop_order():
    A = matrix_algebra(ZMod(6), 2)
    got = list(_tuples(A, 3, 1000, 11)(300))
    want = list(sampled_tuples_loop(A, 3, 1000, 11, batch=300))
    assert [g.shape for g in got] == [w.shape for w in want]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# jordan probe


_JORDAN_CASES = [
    # (n, algebra, samples, seed): the oracle walks every element when there
    # are at most `samples`, else `samples` seeded ones
    (4, lambda: matrix_algebra(ZMod(3), 3, check=False), 3000, 17),  # sampled
    (3, lambda: matrix_algebra(ZMod(5), 2), 10**4, 1),  # every element
    (3, lambda: matrix_algebra(ZMod(9), 2), 10**4, 0),  # every element; index 3 over Z/9
    (3, lambda: matrix_algebra(ZMod(4), 2), 100, 5),  # sampled; index 3 over Z/4
    (3, lambda: matrix_algebra(ZMod(4), 2), 10**3, 5),  # every element; index 3 over Z/4
    (3, lambda: matrix_algebra(GaloisField.default(2, 2), 2), 100, 3),  # sampled, radix 2 per coordinate
    (3, lambda: matrix_algebra(ZMod(2**31 - 1), 2, check=False), 200, 11),  # sampled, near 2^31
]


@functools.cache
def _largest_index_loop(make, samples, seed):
    return largest_nilpotency_index_loop(make(), samples, seed)


@pytest.mark.parametrize("n,make,samples,seed", _JORDAN_CASES)
@pytest.mark.parametrize("chunk", [1, 7, 1024])
def test_jordan_probe_matches_loop(n, make, samples, seed, chunk):
    # the case's elements, all of them or `samples` seeded ones, one at a
    # time and in batches of `chunk` through the probe's kernel
    # `nilpotency_indices`: over a field no index exceeds the largest over
    # the Jordan types, n'; off a field one does, and the probe is refused
    A = make()
    nprime = math.isqrt(A.rank)
    if A.size <= samples:
        X = product_rows(0, A.size, A.moduli)
    else:
        X = algebras.random_rows(seed, A.moduli, 0, samples)
    batches = (algebras.nilpotency_indices(A, X[lo : lo + chunk], A.rank) for lo in range(0, len(X), chunk))
    largest = _largest_index_loop(make, samples, seed)
    assert max(int(index.max()) for index in batches) == largest
    if A.base.is_field:
        rep = jordan_obstruction_probe(n, A)
        assert rep.status == "pass" and largest <= rep.details["largest_index"] == nprime
    else:
        with pytest.raises(PreconditionUnmet, match="over a field"):
            jordan_obstruction_probe(n, A)
        assert largest > nprime


def test_jordan_probe_fail_cases_fail(monkeypatch):
    # the failing path on every field case above: an index above n'
    # injected for the last type, lambda = (1, ..., 1), whose J_lambda and
    # its pullback are 0, fails the probe and names it
    indices = algebras.nilpotency_indices

    def wrong(A, X, cap):
        index = indices(A, X, cap)
        index[-1] = cap + 1
        return index

    monkeypatch.setattr(homs, "nilpotency_indices", wrong)
    fields = [make() for _, make, _, _ in _JORDAN_CASES if make().base.is_field]
    assert len(fields) == 4
    for A in fields:
        rep = jordan_obstruction_probe(3, A)
        nprime = math.isqrt(A.rank)
        assert rep.status == "fail", A
        assert rep.witness == {"element": [0] * A.dim, "index": A.rank + 1, "partition": [1] * nprime}


@pytest.mark.parametrize(
    "p,n", [(2, 2), (3, 2), (5, 2), (2, 3)], ids=["M2(F_2)", "M2(F_3)", "M2(F_5)", "M3(F_2)"]
)
def test_nilpotency_screen_matches_walk_exhaustively(p, n):
    # every element, at every cap from 1 to past the largest index
    A = matrix_algebra(ZMod(p), n, check=False)
    X = product_rows(0, A.size, A.moduli)
    for cap in range(1, A.rank + 2):
        assert np.array_equal(algebras.nilpotency_indices(A, X, cap), nilpotency_indices_walk(A, X, cap))


@pytest.mark.parametrize("name", ["M2(Z/12)", "M2(GF(4))", "UT3(Z/6)", "W(3,1,2)", "M2(Z/3)(x)UT2(Z/3)"])
@pytest.mark.parametrize("seed", [0, 1])
def test_nilpotency_screen_matches_walk_on_seeded_batches(name, seed):
    # seeded rows, with the nilpotent elements of UT3 and the tensor and
    # zero divisors over Z/12 among them
    A = _kernel_algebra(name)
    X = algebras.random_rows(seed, A.moduli, 0, 512)
    for cap in (1, 2, 3, 5, 8, A.rank):
        got = algebras.nilpotency_indices(A, X, cap)
        assert np.array_equal(got, nilpotency_indices_walk(A, X, cap))
    assert (got > 1).any() and (got == 0).any()


# ---------------------------------------------------------------------------
# AL vanishing


def _gf4():
    return GaloisField.default(2, 2)


def _z2z3():
    return ProductRing([ZMod(2), ZMod(3)])


@pytest.mark.parametrize(
    "make,n,mode,count,seed",
    [
        # exhaustive passes, decided on the generator subsets
        (lambda: matrix_algebra(_gf4(), 1), 1, "exhaustive", None, None),
        (lambda: matrix_algebra(_z2z3(), 1), 1, "exhaustive", None, None),
        (lambda: matrix_algebra(ZMod(4), 1), 2, "exhaustive", None, None),  # C(1, 4) = 0
        (lambda: upper_triangular_algebra(ZMod(2), 2), 2, "exhaustive", None, None),
        # exhaustive failures: the first generator pair with s_2 != 0
        (lambda: matrix_algebra(ZMod(4), 2), 1, "exhaustive", None, None),
        (lambda: matrix_algebra(_gf4(), 2), 1, "exhaustive", None, None),
        (lambda: upper_triangular_algebra(_z2z3(), 2), 1, "exhaustive", None, None),
        # sampled, C(dim, 2n) <= count
        (lambda: matrix_algebra(_gf4(), 2), 2, "samples", 100, 1),  # C(8, 4) = 70
        (lambda: matrix_algebra(_z2z3(), 2), 2, "samples", 80, 2),
        (lambda: matrix_algebra(ZMod(4), 2), 2, "samples", 50, 3),  # C(4, 4) = 1
        (lambda: matrix_algebra(ZMod(4), 1), 2, "samples", 0, 4),  # C(1, 4) = 0 = count
        (lambda: matrix_algebra(ZMod(4), 2), 1, "samples", 50, 5),  # C(4, 2) = 6, fails
        (lambda: matrix_algebra(_gf4(), 2), 1, "samples", 50, 6),  # C(8, 2) = 28, fails
        (lambda: upper_triangular_algebra(_z2z3(), 2), 1, "samples", 30, 7),  # C(6, 2) = 15
        (lambda: upper_triangular_algebra(ZMod(2), 2), 1, "samples", 3, 8),  # the oracle's 3 pairs miss
        (lambda: upper_triangular_algebra(ZMod(2), 2), 1, "samples", 3, 9),  # C(3, 2) = 3
        # sampled, C(dim, 2n) > count: decided on the subsets, whose tables fit
        (lambda: matrix_algebra(_gf4(), 2), 2, "samples", 40, 9),
        (lambda: matrix_algebra(_z2z3(), 2), 2, "samples", 30, 10),
        (lambda: matrix_algebra(ZMod(4), 3), 1, "samples", 20, 11),  # C(9, 2) = 36
        (lambda: matrix_algebra(_gf4(), 2), 1, "samples", 10, 12),
        (lambda: upper_triangular_algebra(ZMod(2), 2), 1, "samples", 2, 13),
    ],
)
def test_al_vanishing_matches_loop(make, n, mode, count, seed, monkeypatch):
    # a pass is the loop oracle's report; a failure names the first
    # generator subset with s_2n != 0, which the oracle's tuples may miss
    A = make()
    kwargs = {"mode": mode, "seed": seed} if count is None else {"mode": mode, "count": count, "seed": seed}
    want = al_vanishing_check_loop(A, n, **kwargs)
    sk = standard_identity(2 * n)
    X, value, position = identities._subset_hit(sk, A)
    # at the batch rule's own size, then at a patched size
    for chunk in (None, 7):
        if chunk:
            monkeypatch.setattr(algebras, "search_rows", lambda entries: chunk)
        got = al_vanishing_check(A, n, **kwargs)
        if got.status == "pass":
            assert got.comparable_dict() == want.comparable_dict()
        else:
            assert got.status == "fail" and got.details == {"k": 2 * n, "mode": mode, "tested": position}
            assert got.witness == {"tuple": X.tolist(), "value": value.tolist()}
            xs = [A.element(v) for v in got.witness["tuple"]]
            assert evaluate(sk, xs).flat.tolist() == got.witness["value"] and any(got.witness["value"])


def test_al_vanishing_sampled_fails_on_a_nonvanishing_subset():
    # s_2 does not vanish on UT_2(F_2), and s_4 not on M_3(F_2): the subset
    # walk decides either, whatever the seed, though a sampled tuple scan
    # misses at some seeds (the 3 pairs at seed 8, 1 tuple at seed 7)
    A = upper_triangular_algebra(ZMod(2), 2)
    assert al_vanishing_check(A, 1, mode="samples", count=3, seed=8).status == "fail"
    assert al_vanishing_check_loop(A, 1, mode="samples", count=3, seed=8).status == "pass"
    B = matrix_algebra(ZMod(2), 3, check=False)
    assert identities._depth(B.dim, 4) == 3
    first = al_vanishing_check(B, 2, mode="samples", count=1, seed=0)
    for seed in range(40):
        rep = al_vanishing_check(B, 2, mode="samples", count=1, seed=seed)
        assert rep.status == "fail" and (rep.witness, rep.details) == (first.witness, first.details), seed
    assert al_vanishing_check_loop(B, 2, mode="samples", count=1, seed=7).status == "pass"


def test_passing_exhaustive_s4_on_m2f2_evaluates_one_tuple(monkeypatch):
    # one 4-subset of the four generators decides the 16^4 tuples
    evaluated = []
    evaluate_batch = identities._evaluate_batch

    def counting(identity, A, X):
        evaluated.append(len(X))
        return evaluate_batch(identity, A, X)

    monkeypatch.setattr(identities, "_evaluate_batch", counting)
    rep = al_vanishing_check(matrix_algebra(ZMod(2), 2), 2)
    assert rep.status == "pass" and rep.details["tested"] == 16**4
    assert sum(evaluated) <= 1


# ---------------------------------------------------------------------------
# witnesses


@pytest.mark.parametrize(
    "make,k,budget",
    [
        (lambda: matrix_algebra(ZMod(2), 2), 2, 10000),
        (lambda: matrix_algebra(ZMod(4), 2), 2, 10000),
        (lambda: matrix_algebra(ZMod(2), 3), 4, 10000),
        (lambda: matrix_algebra(ZMod(3), 3, check=False), 4, 10000),
        (lambda: matrix_algebra(ZMod(2), 4, check=False), 6, 10000),
        (lambda: matrix_algebra(ZMod(2), 4, check=False), 6, 300),  # budget ends the basis phase
        (lambda: matrix_algebra(ZMod(6), 1), 2, 200),  # not found: no 2-subset of one generator
        (lambda: matrix_algebra(ZMod(2), 2), 4, 50),  # s_4 vanishes on M_2
    ],
)
def test_witness_matches_loop(make, k, budget, monkeypatch):
    A = make()
    want_elems, want = nonvanishing_witness_loop(A, k, budget=budget, seed=3)
    # at the batch rule's own size, then at patched sizes
    for chunk in (None, 1, 7):
        if chunk:
            monkeypatch.setattr(algebras, "search_rows", lambda entries: chunk)
        got_elems, got = nonvanishing_witness(A, k, budget=budget, seed=3)
        assert got.comparable_dict() == want.comparable_dict()
        if want_elems is None:
            assert got_elems is None
        else:
            assert [e.flat.tolist() for e in got_elems] == [e.flat.tolist() for e in want_elems]


@pytest.mark.parametrize(
    "make,k,budget,tried",
    [
        (lambda: matrix_algebra(ZMod(6), 1), 2, 200, 0),  # C(1, 2) = 0
        (lambda: matrix_algebra(GaloisField.default(2, 2), 1), 2, 200, 1),  # commutative, C(2, 2)
        (lambda: matrix_algebra(ZMod(4), 2), 4, 10000, 1),  # s_4 vanishes on M_2, C(4, 4)
        (lambda: matrix_algebra(ZMod(2), 3), 6, 10000, 84),  # s_6 vanishes on M_3, C(9, 6)
        (lambda: matrix_algebra(ZMod(2), 3), 6, 50, 50),  # the budget ends the walk
    ],
)
def test_witness_not_found_walks_every_subset_within_budget(make, k, budget, tried):
    A = make()
    assert tried == min(budget, math.comb(A.dim, k))
    elems, rep = nonvanishing_witness(A, k, budget=budget)
    assert elems is None and rep.status == "not-found"
    assert rep.details == {"k": k, "tried": tried}


def test_s6_witness_on_m4f2_after_568_subsets():
    _, rep = nonvanishing_witness(matrix_algebra(ZMod(2), 4, check=False), 6)
    assert rep.details == {"k": 6, "tried": 568, "phase": "basis"}


# ---------------------------------------------------------------------------
# s_k on the generator k-subsets: the level tables against one DP per subset


_MATRIX_GRID = [(n, m) for n in (1, 2, 3) for m in (2, 3, 4, 6, 8, 9, 12)]
_WEYL_GRID = [(p, a, b) for p in (2, 3, 5) for a in range(p) for b in range(p)]
_SUBSET_ALGEBRAS = {
    **{f"M{n}(Z/{m})": functools.partial(matrix_algebra, ZMod(m), n, check=False) for n, m in _MATRIX_GRID},
    **{f"W({p},{a},{b})": functools.partial(weyl_quotient, p, a, b) for p, a, b in _WEYL_GRID},
    "M2(GF(4))": lambda: matrix_algebra(_gf4(), 2),
    "M2(Z/2 x Z/3)": lambda: matrix_algebra(_z2z3(), 2),
    # products of two residues pass 2^63: the Python-int path
    "M2(Z/3000000021)": lambda: matrix_algebra(ZMod(3000000021), 2, check=False),
}


def _generator_subsets(D, k):
    return np.asarray(list(itertools.combinations(range(D), k)), dtype=np.int64).reshape(-1, k)


def _subset_values(A, k, depth):
    """s_k on every k-subset of A's generators, from the stored values on
    the depth-subsets."""
    gens = identities._by_generator(A)
    return identities._from_level(A, gens, _generator_subsets(A.dim, k), identities._level(A, gens, depth), depth)


@pytest.mark.parametrize("name", sorted(_SUBSET_ALGEBRAS))
def test_level_tables_match_standard_batch_on_every_subset(name):
    A = _SUBSET_ALGEBRAS[name]()
    for k in range(1, min(A.dim, identities.MAX_ARITY) + 1):
        if math.comb(A.dim, k) > 3000:
            break
        want = identities._standard_batch(A, np.eye(A.dim, dtype=np.int64)[_generator_subsets(A.dim, k)])
        # from the stored tables (k - 1, or the unit for s_1), from halfway
        # and from the generators, where the DP runs per subset
        for depth in sorted({k - 1, k // 2, min(1, k - 1)}):
            got = _subset_values(A, k, depth)
            assert got.dtype == np.int64 and np.array_equal(got, want), (k, depth)


def _walk_per_subset(A, k, budget=None):
    """The first nonzero k-subset by one `_standard_batch` DP per subset."""
    basis = np.eye(A.dim, dtype=np.int64)

    def subsets(rows):
        walk = itertools.islice(itertools.combinations(range(A.dim), k), budget)
        while batch := list(itertools.islice(walk, rows)):
            yield basis[np.asarray(batch, dtype=np.intp)]

    return algebras.first_hit(subsets, (1 << k) * A.dim, identities._nonzero(standard_identity(k), A))


def test_s6_on_m4f2_level_tables_match_per_subset_walk():
    A = matrix_algebra(ZMod(2), 4, check=False)
    assert identities._depth(A.dim, 6) == 5
    got = _subset_values(A, 6, 5)
    want = identities._standard_batch(A, np.eye(A.dim, dtype=np.int64)[_generator_subsets(A.dim, 6)])
    assert np.array_equal(got, want)
    assert (len(want), int(want.any(axis=1).sum())) == (8008, 888)
    X, value, position = identities._subset_hit(standard_identity(6), A)
    X_want, value_want, position_want = _walk_per_subset(A, 6)
    assert position == position_want == 568
    assert np.array_equal(X, X_want) and np.array_equal(value, value_want)


def test_s6_on_m5f2_from_a_partial_level_matches_per_subset_walk():
    # C(25, 5) * 25 entries do not fit the search budget: the DP runs from
    # the stored 4-subsets
    A = matrix_algebra(ZMod(2), 5, check=False)
    assert identities._depth(A.dim, 6) == 4
    got = identities._subset_hit(standard_identity(6), A, budget=3000)
    want = _walk_per_subset(A, 6, budget=3000)
    assert got[2] == want[2] and np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("budget", [1, 10, 100, 10**4])
@pytest.mark.parametrize("n", [4, 5])
def test_s6_witness_within_budget_matches_loop(n, budget, monkeypatch):
    # the stored sizes are those a walk of min(budget, C(D, 6)) subsets can
    # read: M_5(F_2) at budget 10 stores the 1-subsets only, not 12,650
    # 4-subsets
    A, depths = matrix_algebra(ZMod(2), n, check=False), []
    level = identities._level
    monkeypatch.setattr(identities, "_level", lambda A, gens, depth: depths.append(depth) or level(A, gens, depth))
    want_elems, want = nonvanishing_witness_loop(A, 6, budget=budget, seed=3)
    got_elems, got = nonvanishing_witness(A, 6, budget=budget, seed=3)
    assert got.comparable_dict() == want.comparable_dict()
    assert (got_elems is None) == (want_elems is None)
    if want_elems is not None:
        assert [e.flat.tolist() for e in got_elems] == [e.flat.tolist() for e in want_elems]
    walk = min(budget, math.comb(A.dim, 6))
    assert depths == [identities._depth(A.dim, 6, budget)]
    assert all(math.comb(A.dim, m) <= walk * math.comb(6, m) for m in range(1, depths[0] + 1))
    if (n, budget) == (5, 10):
        assert depths == [1]


@pytest.mark.parametrize("D", range(1, 41))
def test_depth_without_a_budget_is_the_full_walk(D):
    # C(D, k) C(k, m) >= C(D, m): a walk of every k-subset never binds
    for k in range(1, 10):
        assert identities._depth(D, k) == identities._depth(D, k, math.comb(D, k))
        assert identities._depth(D, k, 10**9) == identities._depth(D, k)


@pytest.mark.parametrize("D,m", [(1, 1), (4, 2), (9, 4), (16, 8), (25, 3)])
@pytest.mark.parametrize("rows,budget", [(1, 300), (7, None), (1024, None), (7, 20), (1024, 0)])
def test_subset_batches_in_combinations_order(D, m, rows, budget):
    batches = list(identities._subsets(D, m, rows, budget))
    want = list(itertools.islice(itertools.combinations(range(D), m), budget))
    assert all(0 < len(S) <= rows for S in batches)
    assert [tuple(row) for S in batches for row in S.tolist()] == want


@pytest.mark.parametrize("seed", [1, 42, 2024])
def test_sampled_s8_on_m4f2_decided_on_subsets_draws_nothing(seed, monkeypatch):
    A = matrix_algebra(ZMod(2), 4, check=False)
    drawn = []
    random_rows = algebras.random_rows

    def counting(seed, radices, start, stop):
        drawn.append(stop - start)
        return random_rows(seed, radices, start, stop)

    monkeypatch.setattr(identities, "random_rows", counting)
    # the scan the subsets replace: without stored tables, C(16, 8) = 12,870
    # subsets exceed the 200 samples, and the seeded tuples are scanned
    with monkeypatch.context() as scan:
        scan.setattr(identities, "_depth", lambda D, k: 1)
        want = al_vanishing_check(A, 4, mode="samples", count=200, seed=seed).comparable_dict()
    assert sum(drawn) == 200
    drawn.clear()
    assert identities._depth(A.dim, 8) == 7
    assert al_vanishing_check(A, 4, mode="samples", count=200, seed=seed).comparable_dict() == want
    assert drawn == []


# ---------------------------------------------------------------------------
# identity transfer


def _not_multiplicative():
    # the transpose on M_2(F_3) reverses products; marked verified by hand
    A = matrix_algebra(ZMod(3), 2)
    T = np.zeros((4, 4), dtype=np.int64)
    for i, j in itertools.product(range(2), repeat=2):
        T[j * 2 + i, i * 2 + j] = 1
    f = AlgebraHom(A, A, T, label="transpose")
    f.status = VERIFIED
    return f


def _reduction_mod2():
    return reduction_hom(matrix_algebra(ZMod(4), 2), RingIdeal(ZMod(4), 2))


def _product_reduction():
    # `red` of tests/configs/gf_product.json: coordinate radices (4, 2, 2)
    R = ProductRing([ZMod(4), GaloisField.default(2, 2)])
    return reduction_hom(matrix_algebra(R, 2), RingIdeal(R, [2, "zero"]))


_NOT_STANDARD = MultilinearIdentity(3, [(1, (2, 3, 1)), (2, (1, 3, 2))])


@pytest.mark.parametrize(
    "make_hom,identity,trials,seed",
    [
        (_reduction_mod2, standard_identity(2), 100, 3),
        (lambda: diagonal_embed(ZMod(5), 2, 2), standard_identity(4), 100, 5),
        (lambda: weyl_splitting(3, 1, 2), standard_identity(6), 30, 7),
        (lambda: diagonal_embed(ZMod(2), 2, 2), _NOT_STANDARD, 50, 1),
        (_not_multiplicative, standard_identity(2), 100, 9),
        (_not_multiplicative, MultilinearIdentity(2, [(1, (1, 2))]), 5000, 2),
        (_product_reduction, standard_identity(4), 20, 42),
        (lambda: diagonal_embed(ZMod(3000000021), 2, 2), standard_identity(2), 30, 8),
        (lambda: diagonal_embed(ZMod(2**61 - 1), 2, 2), standard_identity(2), 30, 8),
    ],
)
def test_transfer_matches_loop(make_hom, identity, trials, seed, monkeypatch):
    f = make_hom()
    want = identity_transfer_check_loop(f, identity, trials=trials, seed=seed)
    # at the batch rule's own size, then at patched sizes
    for chunk in (None, 1, 7):
        if chunk:
            monkeypatch.setattr(algebras, "search_rows", lambda entries: chunk)
        got = identity_transfer_check(f, identity, trials=trials, seed=seed)
        assert got.comparable_dict() == want.comparable_dict()


def test_transfer_of_non_hom_fails():
    rep = identity_transfer_check(_not_multiplicative(), standard_identity(2), trials=100, seed=9)
    assert rep.status == "fail"

"""The splitting certificate A -> M_n(R) against the enveloping-map
decision and the explicit Weyl splitting."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya import algebras, linalg, rings
from azumaya.algebras import (
    Algebra,
    base_change,
    env_map_bijective,
    is_azumaya,
    matrix_algebra,
    opposite,
    splitting,
    tensor_product,
    upper_triangular_algebra,
    weyl_quotient,
)
from azumaya.homs import weyl_splitting
from azumaya.linalg import is_bijective_additive, kernel_mod, rank_mod_p
from azumaya.rings import BaseRingHom, GaloisField, ProductRing, ZMod, crt_decompose, factorize
from azumaya.suites import _split_quadratic_f2
from ring_oracles import certified_hom, entries, inverse_mod, r_linear, ring_elements, table_algebra, twisted, unit_basis
from test_algebras import _m2_f2_by_f3_4, assert_matches_fiber_loop

MATRIX_GRID = [(n, m) for n in (1, 2, 3) for m in (2, 3, 4, 6, 8, 9, 12)]
WEYL_GRID = [(p, a, b) for p in (2, 3, 5) for a in range(p) for b in range(p)]


def _grid_algebras():
    yield from (matrix_algebra(ZMod(m), n, check=False) for n, m in MATRIX_GRID)
    yield from (weyl_quotient(p, a, b) for p, a, b in WEYL_GRID)


def _assert_certificate(A):
    certified_hom(A)
    assert env_map_bijective(A), A.label


def test_acceptance_grid_certifies():
    algs = list(_grid_algebras())
    assert len(algs) == 59
    for A in algs:
        _assert_certificate(A)


@pytest.mark.parametrize("m", [4, 8])
def test_tensor_squares_certify(m):
    M = matrix_algebra(ZMod(m), 2, check=False)
    _assert_certificate(tensor_product(M, opposite(M)) if m == 4 else tensor_product(M, M))


@pytest.mark.parametrize("m", [2, 12])
def test_benchmark_matrix_algebras_certify(m):
    # M_5(F_2) and M_5(Z/12) of the benchmark's `kernels` workload, and
    # their opposites, which the search certifies
    M = matrix_algebra(ZMod(m), 5, check=False)
    for A in (M, opposite(M)):
        _assert_certificate(A)


@pytest.mark.parametrize("N", [2**62, 3**39, 2**31 * 3**19, 4 * 9 * 25 * 49])
def test_certificate_exact_near_int64(N):
    # Newton lifts and the CRT over moduli whose products leave int64, on
    # the opposite; M_2(Z/N) itself is certified by the identity
    M = matrix_algebra(ZMod(N), 2, check=False)
    for A in (M, opposite(M)):
        _assert_certificate(A)


def _invertible_mod_every_prime(T, N):
    return all(rank_mod_p(T % p, p) == len(T) for p, _ in factorize(N))


def _draw_invertible(data, R, d):
    """A d x d matrix over R = Z/N or GF(q), invertible by construction, as
    the flat R-linear map of `r_linear`: a diagonal of units times
    elementary transvections I + c E_ij, i != j."""
    f, N = R.flatten_len, R._N  # every coordinate is a residue mod N
    elements = [x.coords for x in ring_elements(R)]
    units = [c for c in elements if R.element(c).is_unit()]
    diagonal = np.zeros((d, d, f), dtype=np.int64)
    diagonal[np.arange(d), np.arange(d)] = data.draw(st.lists(st.sampled_from(units), min_size=d, max_size=d))
    T = r_linear(R, diagonal)
    if d > 1:
        steps = st.tuples(st.integers(0, d - 1), st.integers(0, d - 2), st.sampled_from(elements))
        for i, j, c in data.draw(st.lists(steps, max_size=2 * d * d)):
            step = np.zeros((d, d, f), dtype=np.int64)
            step[np.arange(d), np.arange(d)] = R.unit_flat
            step[i, j + (j >= i)] = c  # the j-th column other than column i
            T = T.dot(r_linear(R, step)) % N
    return T


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), N=st.sampled_from([2, 4, 8, 3, 9, 5, 6, 12]))
def test_twisted_matrix_algebras_certify(data, n, N):
    T = _draw_invertible(data, ZMod(N), n * n)
    assert _invertible_mod_every_prime(T, N)
    A = twisted(matrix_algebra(ZMod(N), n, check=False), T)
    A._verify_axioms()
    _assert_certificate(A)


def _diagonal_power(R, d=4):
    """R^d, coordinatewise: commutative, of square rank for d = 4."""
    one = R.one().coords
    table = np.zeros((d, d, d, R.flatten_len), dtype=np.int64)
    for i in range(d):
        table[i, i, i] = one
    return table_algebra(R, table, np.tile(one, (d, 1)), label=f"{R!r}^{d}")


def _truncated_polynomials(R):
    """R[t]/(t^4): local and commutative of square rank."""
    one = R.one().coords
    table = np.zeros((4, 4, 4, R.flatten_len), dtype=np.int64)
    for i in range(4):
        for j in range(4 - i):
            table[i, j, i + j] = one
    unit = np.zeros((4, R.flatten_len), dtype=np.int64)
    unit[0] = one
    return table_algebra(R, table, unit, label=f"{R!r}[t]/t^4")


@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    R=st.sampled_from([ZMod(2), ZMod(3), GaloisField.default(2, 2), GaloisField.default(3, 2)]),
    make=st.sampled_from([_diagonal_power, _truncated_polynomials]),
)
def test_twisted_commutative_rank_4_never_certifies(data, R, make):
    A = twisted(make(R), _draw_invertible(data, R, 4))
    assert splitting(A) is None
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_fiber_loop(A, monkeypatch)
    assert is_azumaya(A).status == "fail"


_FALLBACK_CASES = {
    "UT_2": lambda: upper_triangular_algebra(ZMod(2), 2),
    "UT_4": lambda: upper_triangular_algebra(ZMod(2), 4),
    "split quadratic": _split_quadratic_f2,
    "F_2^4": lambda: _diagonal_power(ZMod(2)),
    "M_2(GF(4))": lambda: matrix_algebra(GaloisField.default(2, 2), 2, check=False),
    "M_2(Z/2 x Z/3)": lambda: matrix_algebra(ProductRing([ZMod(2), ZMod(3)]), 2, check=False),
    "UT_2(Z/2 x Z/3)": lambda: upper_triangular_algebra(ProductRing([ZMod(2), ZMod(3)]), 2),
    "M_3(Z/12)": lambda: matrix_algebra(ZMod(12), 3, check=False),
    "W(3,1,2)": lambda: weyl_quotient(3, 1, 2),
    # M_n(R) itself takes the identity; its opposite goes through the search
    "op(M_2(Z/2 x Z/3))": lambda: opposite(matrix_algebra(ProductRing([ZMod(2), ZMod(3)]), 2, check=False)),
    "op(M_3(Z/12))": lambda: opposite(matrix_algebra(ZMod(12), 3, check=False)),
}


@pytest.mark.parametrize("name", list(_FALLBACK_CASES))
def test_report_equals_forced_env_map_decision(name, monkeypatch):
    assert_matches_fiber_loop(_FALLBACK_CASES[name](), monkeypatch)


@pytest.mark.parametrize("name", ["UT_2", "UT_4", "split quadratic", "F_2^4"])
def test_misses(name):
    assert splitting(_FALLBACK_CASES[name]()) is None


def test_unhandled_bases_refused_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew")

    monkeypatch.setattr(algebras, "random_rows", no_draws)
    # a rank that is not a square
    assert splitting(_FALLBACK_CASES["UT_2"]()) is None


def _forbid_env_maps(monkeypatch):
    """Make every route to an enveloping map or a fiber raise."""

    def forbidden(*args):
        raise AssertionError("env map or fiber formed")

    for name in ("env_map_flat", "env_map_bijective", "quotient_algebra"):
        monkeypatch.setattr(algebras, name, forbidden)


_CERTIFIED_CASES = {
    "M_3(Z/12)": _FALLBACK_CASES["M_3(Z/12)"],
    "W(3,1,2)": _FALLBACK_CASES["W(3,1,2)"],
    "M_2(GF(4))": _FALLBACK_CASES["M_2(GF(4))"],
    "M_3(GF(9))": lambda: matrix_algebra(GaloisField.default(3, 2), 3, check=False),
    "M_2(GF(64))": lambda: matrix_algebra(GaloisField.default(2, 6), 2, check=False),
    "M_2(GF(4)) (x) M_2(GF(4))": lambda: tensor_product(*[matrix_algebra(GaloisField.default(2, 2), 2)] * 2),
}


# forms of M_n(R) that the search certifies over every kind of base: residue
# fields above 64 elements, Z/p^k with p > 64 and product bases, and a Weyl
# quotient
_SEARCHED_FORMS = {
    "op(M_8(Z/67))": lambda: opposite(matrix_algebra(ZMod(67), 8, check=False)),
    "op(M_2(Z/67^2))": lambda: opposite(matrix_algebra(ZMod(67**2), 2, check=False)),
    "op(M_4(GF(128)))": lambda: opposite(matrix_algebra(GaloisField.default(2, 7), 4, check=False)),
    "op(M_2(GF(121)))": lambda: opposite(matrix_algebra(GaloisField.default(11, 2), 2, check=False)),
    # t^2 + 1 over p = 2^61 - 1, a field of about 2^122 elements
    "op(M_2(GF((2^61 - 1)^2)))": lambda: opposite(matrix_algebra(GaloisField(2**61 - 1, [1, 0, 1]), 2, check=False)),
    "op(M_8(Z/2 x Z/3))": lambda: opposite(matrix_algebra(ProductRing([ZMod(2), ZMod(3)]), 8, check=False)),
    "op(M_2(Z/2 x GF(4)))": lambda: opposite(
        matrix_algebra(ProductRing([ZMod(2), GaloisField.default(2, 2)]), 2, check=False)
    ),
    "W(7,5,0)": lambda: weyl_quotient(7, 5, 0),
}
_CERTIFIED_CASES.update(_SEARCHED_FORMS)


@pytest.mark.parametrize("name", list(_CERTIFIED_CASES))
def test_certified_pass_skips_the_env_map(name, monkeypatch):
    A = _CERTIFIED_CASES[name]()
    _forbid_env_maps(monkeypatch)
    assert is_azumaya(A).status == "pass"


@pytest.mark.parametrize("name", list(_CERTIFIED_CASES))
def test_searched_forms_match_the_fiber_loop(name, monkeypatch):
    assert_matches_fiber_loop(_CERTIFIED_CASES[name](), monkeypatch)


@pytest.mark.parametrize("name", ["op(M_8(Z/67))", "op(M_8(Z/2 x Z/3))"])
def test_searched_forms_certify_within_32_mb(name):
    # the fiber loop forms a 4,096 x 4,096 enveloping map per fiber here
    tracemalloc.start()
    try:
        assert is_azumaya(_SEARCHED_FORMS[name]()).status == "pass"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def _twisted_form(data, base, n):
    """A twist of M_n over Z/N, GF(q) or Z/2 x Z/3, the last a twist over
    Z/6 carried to Z/2 x Z/3 by the CRT."""
    if base == "Z/2 x Z/3":
        R, fwd = ZMod(6), crt_decompose(ZMod(6))[1]
    else:
        R, fwd = base, None
    A = twisted(matrix_algebra(R, n, check=False), _draw_invertible(data, R, n * n))
    return A if fwd is None else base_change(A, fwd)


TWIST_BASES = [ZMod(4), ZMod(6), ZMod(9), GaloisField.default(2, 2), GaloisField.default(3, 2), "Z/2 x Z/3"]


@settings(max_examples=20, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), base=st.sampled_from(TWIST_BASES))
def test_twisted_forms_pass_without_env_maps(data, n, base):
    A = _twisted_form(data, base, n)
    A._verify_axioms()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _forbid_env_maps(monkeypatch)
        got = is_azumaya(A).comparable_dict()
    assert got["status"] == "pass"
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(algebras, "splitting", lambda A: None)
        assert is_azumaya(A).comparable_dict() == got


def _ut2_squared(R):
    """UT_2 (x) UT_2 over R: rank 9 = 3^2, a scalar center and a nonzero
    radical, so its failing fibers are explained by a radical element."""
    U = upper_triangular_algebra(R, 2)
    return tensor_product(U, U)


@pytest.mark.parametrize(
    "make, witness",
    [
        (lambda: _diagonal_power(ZMod(2)), "nonscalar_central_element"),
        (lambda: _ut2_squared(ZMod(2)), "radical_element"),
        # Z/3 x Z/2: the fiber at (3, 1), over F_2, fails first
        (lambda: _ut2_squared(ProductRing([ZMod(3), ZMod(2)])), "radical_element"),
        # passes over F_2, fails over F_3
        (_m2_f2_by_f3_4, "nonscalar_central_element"),
        (lambda: tensor_product(matrix_algebra(ZMod(2), 2), _ut2_squared(ZMod(2))), "radical_element"),
    ],
    ids=["F_2^4", "UT_2(x)UT_2(F_2)", "UT_2(x)UT_2(Z/3 x Z/2)", "M_2(F_2) x F_3^4", "M_2(x)UT_2(x)UT_2(F_2)"],
)
def test_failing_fiber_forms_no_env_map(make, witness, monkeypatch):
    A = make()
    assert_matches_fiber_loop(A, monkeypatch)
    assert witness in is_azumaya(A).witness


def test_m3_ut2_squared_fails_by_its_radical_within_64_mb():
    # D = 81: the fiber loop's enveloping map would be 6,561 x 6,561
    A = tensor_product(matrix_algebra(ZMod(2), 3, check=False), _ut2_squared(ZMod(2)))
    tracemalloc.start()
    try:
        rep = is_azumaya(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status == "fail" and rep.witness["radical_dimension"] == 45
    assert peak < 64 * 2**20, peak


# ---------------------------------------------------------------------------
# GF(q) bases: q = 4, 8, 9, 16, 25 and 64

GF_BASES = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (2, 6)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p, k", GF_BASES, ids=[f"GF({p}^{k})" for p, k in GF_BASES])
def test_gf_matrix_algebras_certify(p, k, n):
    # M_n(GF(q)) in its own coordinates, and its opposite through the search
    M = matrix_algebra(GaloisField.default(p, k), n, check=False)
    for A in (M, opposite(M)):
        assert certified_hom(A).target == M
        if A.dim <= 16:  # the enveloping map agrees where it is small
            assert env_map_bijective(A)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), pk=st.sampled_from(GF_BASES[:5]))
def test_twisted_gf_matrix_algebras_certify(data, n, pk):
    R = GaloisField.default(*pk)
    A = twisted(matrix_algebra(R, n, check=False), _draw_invertible(data, R, n * n))
    A._verify_axioms()
    certified_hom(A)


# ---------------------------------------------------------------------------
# a rank that is not a square fails first


def _non_square_cases():
    for R in (ZMod(2), ZMod(6), ProductRing([ZMod(2), ZMod(3)])):
        for n in (2, 3, 4):
            yield f"UT_{n}({R!r})", lambda R=R, n=n: upper_triangular_algebra(R, n)
    yield "M_2(F_2) (x) UT_2(F_2)", lambda: tensor_product(
        matrix_algebra(ZMod(2), 2), upper_triangular_algebra(ZMod(2), 2)
    )
    yield "F_2 x F_2", lambda: _diagonal_power(ZMod(2), 2)


_NON_SQUARE = dict(_non_square_cases())


@pytest.mark.parametrize("name", list(_NON_SQUARE))
def test_non_square_rank_fails_before_any_env_map(name, monkeypatch):
    A = _NON_SQUARE[name]()
    _forbid_env_maps(monkeypatch)
    monkeypatch.setattr(algebras, "splitting", lambda A: pytest.fail("certificate tried"))
    rep = is_azumaya(A)
    assert rep.status == "fail" and rep.witness == {"rank": A.rank}
    assert math.isqrt(A.rank) ** 2 != A.rank


@settings(max_examples=20, deadline=None)
@given(data=st.data(), n=st.integers(2, 4), N=st.sampled_from([2, 3, 4, 9, 6, 12]))
def test_twisted_non_square_rank_fails_before_any_env_map(data, n, N):
    A = upper_triangular_algebra(ZMod(N), n)
    A = twisted(A, _draw_invertible(data, ZMod(N), A.dim))
    A._verify_axioms()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _forbid_env_maps(monkeypatch)
        monkeypatch.setattr(algebras, "splitting", lambda A: pytest.fail("certificate tried"))
        assert is_azumaya(A).comparable_dict()["witness"] == {"rank": A.rank}


def test_inverse_mod_over_a_composite_modulus(monkeypatch):
    # invertible mod 2 and mod 3, with no unit in its first column mod 6
    T = np.asarray(
        [
            [0, 3, 0, 0, 0, 4],
            [0, 4, 3, 4, 0, 0],
            [3, 0, 4, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [2, 0, 0, 0, 0, 3],
        ]
    )
    assert T[:, 0].tolist() == [0, 0, 3, 0, 0, 2] and _invertible_mod_every_prime(T, 6)
    Tinv = inverse_mod(T, 6)
    eye = np.eye(6, dtype=np.int64)
    assert np.array_equal(T.dot(Tinv) % 6, eye) and np.array_equal(Tinv.dot(T) % 6, eye)
    A = twisted(upper_triangular_algebra(ZMod(6), 3), T)
    A._verify_axioms()
    _forbid_env_maps(monkeypatch)
    assert is_azumaya(A).witness == {"rank": 6}


@pytest.mark.parametrize("name", ["op(M_3(Z/12))", "F_2^4"])
def test_refuted_certificate_falls_back(name, monkeypatch):
    # a bijective local matrix that is no hom (the identity, anti-
    # multiplicative from the opposite of a matrix algebra; the transpose
    # would be a hom there) is refuted: only the env map decides
    def identity(A, p, k):
        return np.eye(A.dim, dtype=np.int64)

    monkeypatch.setattr(algebras, "_local_splitting", identity)
    A = _FALLBACK_CASES[name]()
    assert splitting(A) is None
    monkeypatch.undo()
    want = is_azumaya(A).comparable_dict()
    monkeypatch.setattr(algebras, "_local_splitting", identity)
    assert is_azumaya(A).comparable_dict() == want


# ---------------------------------------------------------------------------
# M_n(R) in its matrix-unit coordinates: the identity is the candidate

F4, F128 = GaloisField.default(2, 2), GaloisField.default(2, 7)
STANDARD_BASES = {
    "Z/2": ZMod(2),
    "Z/12": ZMod(12),
    "Z/2^62": ZMod(2**62),
    "GF(4)": F4,
    "GF(128)": F128,
    "Z/67": ZMod(67),
    "Z/2 x Z/3": ProductRing([ZMod(2), ZMod(3)]),
    "Z/4 x Z/3": ProductRing([ZMod(4), ZMod(3)]),
}


def _m3(m):
    return matrix_algebra(ZMod(m), 3)


def _standard_forms():
    for name, R in STANDARD_BASES.items():
        for n in (2, 3):
            yield f"M_{n}({name})", lambda R=R, n=n: matrix_algebra(R, n, check=False)
    # equal to M_n(R), built another way: from the entries alone (which
    # carries the identity rows), twice transposed, or by a base change
    yield "M_3(Z/12) over Z/3", lambda: base_change(_m3(12), BaseRingHom(ZMod(12), ZMod(3), [[1]]))
    yield "M_3(Z/12) over Z/4", lambda: base_change(_m3(12), BaseRingHom(ZMod(12), ZMod(4), [[1]]))
    yield "M_3(Z/3) from its entries", lambda: Algebra(ZMod(3), entries(_m3(3).struct), _m3(3).unit_flat)
    yield "op(op(M_3(Z/12)))", lambda: opposite(opposite(_m3(12)))


_STANDARD = dict(_standard_forms())


@pytest.mark.parametrize("name", list(_STANDARD))
def test_standard_forms_take_the_identity(name, monkeypatch):
    # equality certifies: no search, draw, hom scan, bijectivity
    # elimination, env map or fiber
    A = _STANDARD[name]()

    def forbidden(*args):
        raise AssertionError("searched, drew, checked a hom or formed an env map")

    _forbid_env_maps(monkeypatch)
    for module, fn in [(algebras, "_local_splitting"), (algebras, "random_rows"), (rings, "_first_unmultiplicative"), (linalg, "is_bijective_additive")]:
        monkeypatch.setattr(module, fn, forbidden)
    assert np.array_equal(splitting(A), np.eye(A.dim, dtype=np.int64))
    assert is_azumaya(A).status == "pass"
    monkeypatch.undo()
    assert A == matrix_algebra(A.base, math.isqrt(A.rank)) and certified_hom(A).target == A


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("R", [ZMod(2), ZMod(12), ZMod(9), F4, GaloisField.default(3, 2)], ids=repr)
def test_opposite_forms_are_searched(R, n, monkeypatch):
    A, calls = opposite(matrix_algebra(R, n, check=False)), []
    local = algebras._local_splitting
    monkeypatch.setattr(algebras, "_local_splitting", lambda *args: calls.append(args) or local(*args))
    H = splitting(A)
    assert calls and not np.array_equal(H, np.eye(A.dim, dtype=np.int64))
    assert np.array_equal(certified_hom(A).matrix, H)


def test_search_is_deterministic():
    A = weyl_quotient(5, 2, 1)
    assert np.array_equal(certified_hom(A).matrix, splitting(A))


# ---------------------------------------------------------------------------
# against the explicit Weyl splitting


@pytest.mark.parametrize("p, a, b", WEYL_GRID)
def test_splitting_agrees_with_weyl_splitting_up_to_inner(p, a, b):
    """splitting(W) o weyl_splitting^-1 fixes the base, so by Skolem-Noether
    it is conjugation by a unit u: u X = X' u on the images X, X' of x and
    of y, which generate W.  The solutions u are one kernel computation."""
    explicit = weyl_splitting(p, a, b)
    W, M = explicit.source, explicit.target
    cert = certified_hom(W)
    assert cert.target == M
    blocks = []
    for gen in (unit_basis(W, p), unit_basis(W, 1)):  # x and y
        X, X2 = explicit.apply_flat(gen), cert.apply_flat(gen)
        blocks.append(M.mul_matrices(X[None], "right")[0] - M.mul_matrices(X2[None], "left")[0])  # u -> u X - X' u
    solutions = kernel_mod(np.concatenate(blocks) % p, p)
    assert len(solutions) == 1  # the intertwiners are F_p u
    u = solutions[0]
    assert is_bijective_additive(M.mul_matrices(u[None], "left")[0], M.moduli, M.moduli)
    # u f(w) = f'(w) u on every coordinate generator w of W
    images, images2 = explicit.matrix.T, cert.matrix.T
    lhs = M.mul_batch(np.tile(u, (W.dim, 1)), images)
    rhs = M.mul_batch(images2, np.tile(u, (W.dim, 1)))
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("p, a, b", WEYL_GRID)
def test_unchecked_weyl_equals_checked(p, a, b):
    # the memoized checked build, a fresh one, and an unchecked build of its entries
    W = weyl_quotient(p, a, b)
    weyl_quotient.cache_clear()
    assert weyl_quotient(p, a, b) is not W and weyl_quotient(p, a, b) == W
    (I, J, K), V, _ = W._sparse_rows
    U = Algebra(W.base, ((I, J, K), V), W.unit_flat, check=False)
    assert U == W
    assert np.array_equal(W.struct, U.struct)
    assert np.array_equal(W.unit_flat, U.unit_flat)

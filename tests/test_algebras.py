import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from azumaya import algebras, linalg
from azumaya.algebras import (
    Algebra,
    AlgebraError,
    NotNilpotentWithinCap,
    base_change,
    center,
    commutant,
    env_map_bijective,
    env_map_flat,
    expand_ideal,
    ideal_intersection_check,
    is_azumaya,
    is_central,
    jordan_cell,
    matrix_algebra,
    nilpotency_index,
    opposite,
    quotient_algebra,
    rank_at,
    square_rank_check,
    tensor_product,
    upper_triangular_algebra,
    weyl_quotient,
)
from azumaya.linalg import rank_mod_p
from azumaya.rings import GaloisField, ProductRing, RingIdeal, ZMod, maximal_ideals
from ring_oracles import (
    center_bruteforce,
    entries,
    env_map,
    expand_ideal_loop,
    fiber_loop,
    ideal_closure,
    is_nilpotent_ideal,
    ring_table_dense,
    scalars_flat_loop,
    table_algebra,
    twisted,
    unit_basis,
)


# ---------------------------------------------------------------------------
# construction


def test_matrix_algebra_products():
    A = matrix_algebra(ZMod(5), 2)
    E11, E12, E21 = unit_basis(A, 0), unit_basis(A, 1), unit_basis(A, 2)
    assert A.mul_flat(E11, E12).tolist() == E12.tolist()
    assert A.mul_flat(E12, E11).tolist() == [0, 0, 0, 0]
    assert A.mul_flat(E12, E21).tolist() == E11.tolist()


def test_matrix_algebra_rejects_n0():
    with pytest.raises(AlgebraError):
        matrix_algebra(ZMod(2), 0)


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("R", [ZMod(2), GaloisField(2, [1, 1, 1])], ids=repr)
def test_algebra_refuses_dim_0(R, check):
    with pytest.raises(AlgebraError, match="rank >= 1"):
        Algebra(R, entries(np.zeros((0, 0, 0), dtype=np.int64)), np.zeros(0, dtype=np.int64), check=check)
    # the table of a rank-0 structure_constants config
    with pytest.raises(AlgebraError, match="rank >= 1"):
        table_algebra(R, [], [], check=check)


def test_associativity_checked_at_construction():
    R = ZMod(2)
    # e1*e1 = e2, e2*anything = e1: not associative
    table = [[[0, 1], [1, 0]], [[1, 0], [1, 0]]]
    with pytest.raises(AlgebraError):
        Algebra(R, entries(table), [1, 0])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_associativity_check_names_the_first_failing_triple(data):
    # the check runs one first factor at a time; the dense D^4 comparison
    # over exact ints is the oracle for the first failing basis triple
    A = data.draw(st.sampled_from([lambda: matrix_algebra(ZMod(4), 2), lambda: weyl_quotient(3, 1, 2)]))()
    S = A.struct.copy()
    a, b, k = (data.draw(st.integers(0, A.dim - 1)) for _ in range(3))
    S[a, b, k] = (S[a, b, k] + data.draw(st.integers(1, A.moduli[k] - 1))) % A.moduli[k]
    O = S.astype(object)
    left = np.einsum("abk,kcm->abcm", O, O) % A.moduli[0]
    right = np.einsum("bck,akm->abcm", O, O) % A.moduli[0]
    bad = np.argwhere((left != right).any(axis=3))
    if not len(bad):
        try:
            Algebra(A.base, entries(S), A.unit_flat)
        except AlgebraError as e:  # the unit law may still fail
            assert "associativity" not in str(e)
        return
    with pytest.raises(AlgebraError, match=rf"basis triple \({bad[0][0]}, {bad[0][1]}, {bad[0][2]}\)"):
        Algebra(A.base, entries(S), A.unit_flat)


def test_weyl_relations():
    W = weyl_quotient(2, 0, 0)
    x = unit_basis(W, 2)  # x^1 y^0 at index 1*2+0
    y = unit_basis(W, 1)  # x^0 y^1
    xy = W.mul_flat(x, y)
    yx = W.mul_flat(y, x)
    one = W.unit_flat
    # yx = xy + 1
    assert ((yx - xy) % 2).tolist() == one.tolist()
    # x^2 = a = 0
    assert W.mul_flat(x, x).tolist() == [0, 0, 0, 0]


def test_weyl_powers_fold_to_scalars():
    W = weyl_quotient(3, 1, 2)
    x = unit_basis(W, 3)
    y = unit_basis(W, 1)
    x3 = W.mul_flat(W.mul_flat(x, x), x)
    y3 = W.mul_flat(W.mul_flat(y, y), y)
    assert x3.tolist() == (1 * W.unit_flat % 3).tolist()
    assert y3.tolist() == (2 * W.unit_flat % 3).tolist()


def test_weyl_commutation_closed_form():
    # oracle: y^b x^c = sum_k k! C(b,k) C(c,k) x^(c-k) y^(b-k)
    p = 5
    W = weyl_quotient(p, 0, 0)
    for b, c in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4)]:
        yb = unit_basis(W, b)  # x^0 y^b
        xc = unit_basis(W, c * p)  # x^c y^0
        got = W.mul_flat(yb, xc)
        expect = np.zeros(W.dim, dtype=np.int64)
        for k in range(min(b, c) + 1):
            coef = math.factorial(k) * math.comb(b, k) * math.comb(c, k)
            expect[(c - k) * p + (b - k)] += coef
        assert got.tolist() == (expect % p).tolist()


def test_opposite_reverses_products():
    A = matrix_algebra(ZMod(3), 2)
    Aop = opposite(A)
    x, y = unit_basis(A, 1), unit_basis(A, 2)
    assert Aop.mul_flat(x, y).tolist() == A.mul_flat(y, x).tolist()


def test_elements_of_equal_algebras_combine():
    # two distinct Algebra objects with the same structure are equal: a
    # memoized build and a fresh one
    A = matrix_algebra(ZMod(3), 2)
    matrix_algebra.cache_clear()
    B = matrix_algebra(ZMod(3), 2)
    assert A is not B and A == B and B == A
    x, y = A.element(unit_basis(A, 1)), B.element(unit_basis(B, 2))
    assert (x * y).flat.tolist() == unit_basis(A, 0).tolist()
    assert (y * x).flat.tolist() == unit_basis(A, 3).tolist()
    assert (x + y).flat.tolist() == [0, 1, 1, 0]
    assert x == A.element(unit_basis(B, 1))


def test_element_sums_past_int64():
    # (N-1) + (N-1) = N-2 mod N, whose unreduced sum 2N-2 is past 2^63
    N = 2**63 - 25
    A = matrix_algebra(ZMod(N), 2, check=False)
    x = A.element([N - 1, N - 2, 1, 0])
    assert (x + x).flat.tolist() == [N - 2, N - 4, 2, 0]
    assert (A.zero() - x).flat.tolist() == [1, 2, N - 1, 0]
    assert ((x + x) - x) == x


def test_elements_of_unequal_algebras_raise():
    A = matrix_algebra(ZMod(3), 2)
    for B in (opposite(A), matrix_algebra(ZMod(5), 2), upper_triangular_algebra(ZMod(3), 2)):
        assert A != B and B != A
        x, y = A.one(), B.one()
        for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(AlgebraError):
                op(x, y)
            with pytest.raises(AlgebraError):
                op(y, x)


def test_tensor_product_rank_and_unit():
    A = matrix_algebra(ZMod(2), 2)
    T = tensor_product(A, A)
    assert T.rank == 16
    assert T.mul_flat(T.unit_flat, unit_basis(T, 5)).tolist() == unit_basis(T, 5).tolist()


def test_tensor_product_componentwise():
    A = matrix_algebra(ZMod(3), 2)
    T = tensor_product(A, A)
    # (e_i (x) f_j)(e_k (x) f_l) = e_i e_k (x) f_j f_l on a sample
    x = unit_basis(T, 0 * 4 + 1)  # E11 (x) E12
    y = unit_basis(T, 0 * 4 + 2)  # E11 (x) E21
    got = T.mul_flat(x, y)
    assert got.tolist() == unit_basis(T, 0 * 4 + 0).tolist()  # E11 (x) E11


def test_base_change_preserves_relations():
    from azumaya.rings import BaseRingHom

    A = matrix_algebra(ZMod(4), 2)
    proj = BaseRingHom(ZMod(4), ZMod(2), [[1]])
    B = base_change(A, proj)
    assert B.base.size == 2
    x, y = unit_basis(B, 1), unit_basis(B, 2)
    assert B.mul_flat(x, y).tolist() == unit_basis(B, 0).tolist()


# ---------------------------------------------------------------------------
# centers and commutants


@pytest.mark.parametrize(
    "algebra",
    [
        matrix_algebra(ZMod(2), 2),
        matrix_algebra(ZMod(4), 2),
        matrix_algebra(ZMod(3), 2),
        weyl_quotient(2, 0, 0),
        weyl_quotient(2, 1, 1),
        upper_triangular_algebra(ZMod(2), 2),
        matrix_algebra(GaloisField.default(2, 2), 2),
    ],
)
def test_center_matches_bruteforce(algebra):
    if algebra.size > 5000:
        pytest.skip("oracle scan too large")
    zc = center(algebra)
    brute = center_bruteforce(algebra)
    assert zc.order == len(brute)
    for e in brute:
        assert zc.contains(e.flat)


def test_center_bruteforce_gf4_case():
    A = matrix_algebra(GaloisField.default(2, 2), 2)
    zc = center(A)
    assert zc.order == 4  # GF(4)*1
    assert is_central(A)


def test_center_of_matrix_algebra_is_scalars():
    A = matrix_algebra(ZMod(12), 2)
    assert center(A) == A.unit_span()


def test_upper_triangular_central_but_env_degenerate():
    # the center is just the scalars, yet the algebra is far from Azumaya:
    # the strictly upper-triangular part is a proper two-sided ideal, which
    # the enveloping-map test detects
    A = upper_triangular_algebra(ZMod(2), 2)
    assert is_central(A)
    assert not env_map_bijective(A)


def test_commutant_of_whole_algebra_is_center():
    A = matrix_algebra(ZMod(4), 2)
    gens = np.asarray([unit_basis(A, i) for i in range(4)])
    C = commutant(A, gens)
    assert C == center(A)


def _corpus_algebras():
    from azumaya.corpus import build_corpus

    algebras_seen = []
    for e in build_corpus():
        for A in (e.hom.source, e.hom.target):
            if A not in algebras_seen:
                algebras_seen.append(A)
    return algebras_seen


def test_memoized_center_matches_uncached_on_the_corpus():
    found = _corpus_algebras()
    assert len(found) == 35
    for A in found:
        zc = center(A)
        assert zc == center.__wrapped__(A), A.label
        if A.size <= 5000:
            assert zc.order == len(center_bruteforce(A)), A.label


def test_equal_algebras_share_one_center_entry():
    A = matrix_algebra(ZMod(6), 2, check=False)
    B = Algebra(A.base, entries(A.struct), A.unit_flat.copy(), check=False)
    assert A == B and A is not B
    first = center(A)
    hits, size = center.cache_info().hits, center.cache_info().currsize
    assert center(B) is first
    assert center.cache_info().hits == hits + 1
    assert center.cache_info().currsize == size
    assert B.unit_span() is A.unit_span()


@settings(max_examples=20, deadline=None)
@given(data=st.data(), n=st.integers(1, 2), pk=st.sampled_from([(2, 1), (2, 2), (3, 1), (5, 1)]))
def test_memoized_center_matches_uncached_on_twists(data, n, pk):
    # a coordinate twist is isomorphic to M_n(Z/N) but not equal to it;
    # its center is computed once, and an equal copy hits that entry
    p, k = pk
    N, D = p**k, n * n
    T = np.asarray(data.draw(st.lists(st.integers(0, N - 1), min_size=D * D, max_size=D * D))).reshape(D, D)
    assume(rank_mod_p(T, p) == D)
    A = twisted(matrix_algebra(ZMod(N), n, check=False), T)
    copy = Algebra(A.base, entries(A.struct), A.unit_flat.copy(), check=False)
    zc = center(A)
    assert center(copy) is zc
    assert zc == center.__wrapped__(copy) == A.unit_span()
    assert zc.order == len(center_bruteforce(A)) == N


def test_memoized_results_are_read_only():
    A = matrix_algebra(ZMod(4), 2, check=False)
    for group in (center(A), A.unit_span()):
        with pytest.raises(ValueError, match="read-only"):
            group.H[0, 0] = 3
    assert center(A) == center.__wrapped__(A) == A.unit_span()


def test_memos_are_bounded():
    from azumaya import homs

    for memo in (center, Algebra.unit_span, homs._azumaya_ok, algebras._matrix_algebra, weyl_quotient):
        assert memo.cache_info().maxsize == 256


def test_commutant_of_scalars_is_everything():
    A = matrix_algebra(ZMod(3), 2)
    C = commutant(A, A.unit_flat[None])
    assert C.order == A.size


_SMALL_ALGEBRAS = [
    lambda: matrix_algebra(ZMod(4), 2),
    lambda: matrix_algebra(GaloisField(2, [1, 1, 1]), 2),
    lambda: weyl_quotient(3, 1, 2),
    lambda: upper_triangular_algebra(ZMod(6), 2),
    lambda: upper_triangular_algebra(ZMod(2), 3),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_commutant_of_any_subset_is_a_subring(data):
    # (xy)s = x(sy) = s(xy) whenever x and y commute with s
    A = data.draw(st.sampled_from(_SMALL_ALGEBRAS))()
    coords = st.tuples(*(st.integers(0, m - 1) for m in A.moduli))
    gens = np.asarray(data.draw(st.lists(coords, max_size=3)), dtype=np.int64).reshape(-1, A.dim)
    C = commutant(A, gens)
    basis = C.generators()
    assert C.contains(A.one().flat)
    for u in basis:
        for v in basis:
            assert C.contains(A.mul_flat(u, v))


def test_center_is_the_commutant_of_every_coordinate_on_the_corpus():
    for A in _corpus_algebras():
        assert center(A) == commutant(A, np.eye(A.dim, dtype=np.int64)), A.label


@pytest.mark.parametrize("make", _SMALL_ALGEBRAS)
def test_commutant_of_no_rows_is_the_whole_algebra(make):
    A = make()
    C = commutant(A, np.zeros((0, A.dim), dtype=np.int64))
    assert C.order == A.size
    assert C == linalg.Subgroup(np.eye(A.dim, dtype=np.int64), A.moduli)


# ---------------------------------------------------------------------------
# enveloping map


def test_env_map_bijective_cases():
    assert env_map_bijective(matrix_algebra(ZMod(2), 2))
    assert env_map_bijective(matrix_algebra(ZMod(4), 2))
    assert env_map_bijective(weyl_quotient(3, 1, 2))


def _split_quadratic():
    R = ZMod(2)
    table = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    return Algebra(R, entries(table), [1, 1])


def test_env_map_not_bijective_for_split_quadratic():
    assert not env_map_bijective(_split_quadratic())


def test_env_map_ring_matrix_agrees_with_flat():
    A = matrix_algebra(ZMod(3), 2)
    M = env_map(A)
    F, _, _ = env_map_flat(A)
    assert M.flattened().tolist() == F.tolist()


_ENV_RINGS = [
    ZMod(2),
    ZMod(3),
    ZMod(5),
    ZMod(7),
    ZMod(12),
    GaloisField.default(2, 2),
    ProductRing([ZMod(2), ZMod(3)]),
]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_env_map_flat_matches_ring_matrix_oracle(data):
    kind = data.draw(st.sampled_from(["matrix", "upper_triangular", "weyl"]))
    if kind == "weyl":
        A = weyl_quotient(3, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)))
    elif kind == "matrix":
        A = matrix_algebra(data.draw(st.sampled_from(_ENV_RINGS)), data.draw(st.integers(1, 2)))
    else:
        A = upper_triangular_algebra(data.draw(st.sampled_from(_ENV_RINGS)), 3)
    M = env_map(A)
    F, src, tgt = env_map_flat(A)
    assert F.tolist() == M.flattened().tolist()
    assert src == tgt == M.moduli_cols() == M.moduli_rows()


# ---------------------------------------------------------------------------
# Azumaya decision


def test_is_azumaya_matrix_algebras():
    assert is_azumaya(matrix_algebra(ZMod(12), 2)).status == "pass"
    assert is_azumaya(matrix_algebra(ZMod(8), 3)).status == "pass"


def test_is_azumaya_weyl():
    assert is_azumaya(weyl_quotient(3, 1, 2)).status == "pass"


def test_is_azumaya_counterexample_with_witness():
    rep = is_azumaya(upper_triangular_algebra(ZMod(2), 2))
    assert rep.status == "fail"
    assert rep.witness is not None


def test_is_azumaya_product_base():
    R = ProductRing([ZMod(2), ZMod(3)])
    assert is_azumaya(matrix_algebra(R, 2)).status == "pass"


def _quaternions(R):
    # (-1, -1) on 1, i, j, k: e_x e_y = sign * e_z.  Central simple over
    # every odd residue field, commutative over F_2.
    products = {
        (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }  # fmt: skip
    one = R.unit_flat
    table = np.zeros((4, 4, 4, R.flatten_len), dtype=np.int64)
    for x in range(4):
        table[0, x, x] = table[x, 0, x] = one
    for (x, y), (sign, z) in products.items():
        table[x, y, z] = sign * one
    return table_algebra(R, table, [one, 0 * one, 0 * one, 0 * one])


def _m2_f2_by_f3_4():
    # M_2(F_2) at the first factor of Z/2 x Z/3 and F_3^4 at the second:
    # central simple at the prime 2, commutative at 3
    R, M = ProductRing([ZMod(2), ZMod(3)]), matrix_algebra(ZMod(2), 2)
    table = np.zeros((4, 4, 4, 2), dtype=np.int64)
    table[..., 0] = ring_table_dense(M)[..., 0]
    for i in range(4):
        table[i, i, i, 1] = 1
    return table_algebra(R, table, np.stack([M.unit_flat, np.ones(4, dtype=np.int64)], axis=1))


_AZUMAYA_CASES = (
    [
        (f"M{n}(Z/{m})", lambda n=n, m=m: matrix_algebra(ZMod(m), n, check=False))
        for n in (1, 2, 3)
        for m in (2, 3, 4, 6, 8, 9, 12)
    ]
    + [
        (f"W({p},{a},{b})", lambda p=p, a=a, b=b: weyl_quotient(p, a, b))
        for p in (2, 3, 5)
        for a in range(p)
        for b in range(p)
    ]
    + [
        ("UT2(F_2)", lambda: upper_triangular_algebra(ZMod(2), 2)),
        ("UT4(F_2)", lambda: upper_triangular_algebra(ZMod(2), 4)),
        ("split-quadratic(F_2)", _split_quadratic),
        ("M2(Z/2 x Z/3)", lambda: matrix_algebra(ProductRing([ZMod(2), ZMod(3)]), 2)),
        # product and local bases, where the certificate misses
        ("M2(Z/4 x Z/3)", lambda: matrix_algebra(ProductRing([ZMod(4), ZMod(3)]), 2)),
        ("M2(Z/2 x GF(4))", lambda: matrix_algebra(ProductRing([ZMod(2), GaloisField.default(2, 2)]), 2)),
        ("UT2(Z/2 x Z/3)", lambda: upper_triangular_algebra(ProductRing([ZMod(2), ZMod(3)]), 2)),
        ("UT3(Z/4)", lambda: upper_triangular_algebra(ZMod(4), 3)),
        ("M2(Z/2)(x)UT2(Z/2)", lambda: tensor_product(matrix_algebra(ZMod(2), 2), upper_triangular_algebra(ZMod(2), 2))),
        # of square rank with a scalar center: a radical element explains it
        ("UT2(Z/2)(x)UT2(Z/2)", lambda: tensor_product(*[upper_triangular_algebra(ZMod(2), 2)] * 2)),
        # fails at the prime 2 only: first of Z/6's fibers, second of Z/3 x Z/2's
        ("H(Z/6)", lambda: _quaternions(ZMod(6))),
        ("H(Z/3 x Z/2)", lambda: _quaternions(ProductRing([ZMod(3), ZMod(2)]))),
        # fails at an odd prime only
        ("M2(F_2) x F_3^4", _m2_f2_by_f3_4),
        ("UT2(F_3)", lambda: upper_triangular_algebra(ZMod(3), 2)),
    ]
)


@pytest.mark.parametrize("make", [m for _, m in _AZUMAYA_CASES], ids=[n for n, _ in _AZUMAYA_CASES])
def test_is_azumaya_matches_residue_field_loop(make):
    # the fiber loop against the one bijectivity check over R, the route it
    # replaced: the enveloping map's determinant is a unit iff it is nonzero
    # modulo every maximal ideal m
    A = make()
    rep = is_azumaya(A)
    assert rep.status == ("pass" if env_map_bijective(A) else "fail")
    if rep.status == "pass":
        assert rep.witness is None
        return
    if square_rank_check(A).status == "fail":  # decided before any fiber
        assert rep.witness == {"rank": A.rank}
        return
    # the witness names the first fiber that is not central simple
    fibers = [(repr(m.data), quotient_algebra(A, m)[0]) for m in maximal_ideals(A.base)]
    names = [name for name, _ in fibers]
    first = names.index(rep.witness["maximal_ideal"])
    assert all(env_map_bijective(Am) for _, Am in fibers[:first])
    Am = fibers[first][1]
    assert not env_map_bijective(Am)
    if "nonscalar_central_element" in rep.witness:
        x = np.asarray(rep.witness["nonscalar_central_element"])
        assert center(Am).contains(x) and not Am.unit_span().contains(x)
    else:
        assert_radical_witness(A, rep.witness)


def assert_radical_witness(A, witness):
    """The radical element is nonzero and generates a nilpotent two-sided
    ideal of its fiber, whose radical has the reported dimension."""
    m = next(m for m in maximal_ideals(A.base) if repr(m.data) == witness["maximal_ideal"])
    Am, x = quotient_algebra(A, m)[0], np.asarray(witness["radical_element"])
    assert x.any() and is_nilpotent_ideal(Am, ideal_closure(Am, x[None]))
    assert witness["radical_dimension"] == len(algebras._radical(Am))


def assert_matches_fiber_loop(A, monkeypatch):
    """`is_azumaya` forms no enveloping map, with or without its
    certificate, and gives the status and the failing maximal ideal of the
    enveloping-map fiber loop; a radical witness is checked too."""
    want = fiber_loop(A)

    def forbidden(*args):
        raise AssertionError("env map formed")

    monkeypatch.setattr(algebras, "env_map_flat", forbidden)
    rep = is_azumaya(A)
    assert (rep.status, (rep.witness or {}).get("maximal_ideal")) == want
    monkeypatch.setattr(algebras, "splitting", lambda A: None)
    assert is_azumaya(A).comparable_dict() == rep.comparable_dict()
    if "radical_element" in (rep.witness or {}):
        assert_radical_witness(A, rep.witness)


@pytest.mark.parametrize("make", [m for _, m in _AZUMAYA_CASES], ids=[n for n, _ in _AZUMAYA_CASES])
def test_is_azumaya_forms_env_maps_over_fields_only(make, monkeypatch):
    # it forms none: each fiber is decided by its center and its radical
    assert_matches_fiber_loop(make(), monkeypatch)


# ---------------------------------------------------------------------------
# rank


def test_rank_at_and_constant_rank():
    A = matrix_algebra(ZMod(12), 2)
    assert rank_at(A, RingIdeal(ZMod(12), 2)) == 4


def test_square_rank_check():
    assert square_rank_check(matrix_algebra(ZMod(6), 2)).status == "pass"
    assert square_rank_check(weyl_quotient(2, 1, 1)).status == "pass"


# ---------------------------------------------------------------------------
# ideals in algebras


def test_expand_ideal_order():
    A = matrix_algebra(ZMod(4), 2)
    sub = expand_ideal(A, RingIdeal(ZMod(4), 2))
    assert sub.order == 16  # (2)M_2 has 2^4 elements


# zero, unit and mixed ideals of each base, in the rings' notations
_IDEAL_CASES = {
    "Z12": (ZMod(12), [0, 1, 2, 3, 4, 6]),
    "Z4xGF4": (
        ProductRing([ZMod(4), GaloisField.default(2, 2)]),
        [[0, "zero"], [1, "unit"], [2, "unit"], [1, "zero"], [2, "zero"], [0, "unit"]],
    ),
    "Z2xZ3": (ProductRing([ZMod(2), ZMod(3)]), [[0, 0], [1, 1], [0, 1], [1, 0]]),
    "GF4": (GaloisField.default(2, 2), ["zero", "unit"]),
    "GF9": (GaloisField.default(3, 2), ["zero", "unit"]),
}


@pytest.mark.parametrize("name", _IDEAL_CASES)
def test_expand_ideal_and_scalars_match_the_loops(name):
    ring, ideals = _IDEAL_CASES[name]
    for A in (matrix_algebra(ring, 2), upper_triangular_algebra(ring, 2), upper_triangular_algebra(ring, 3)):
        assert np.array_equal(A.scalars_flat(), scalars_flat_loop(A)), A.label
        for data in ideals:
            I = RingIdeal(ring, data)
            assert expand_ideal(A, I) == expand_ideal_loop(A, I), (A.label, data)


@pytest.mark.parametrize("p,a,b", [(2, 0, 1), (3, 1, 2), (5, 0, 0)])
def test_expand_ideal_and_scalars_match_the_loops_on_weyl(p, a, b):
    W = weyl_quotient(p, a, b)
    assert np.array_equal(W.scalars_flat(), scalars_flat_loop(W))
    for data in (0, 1):
        I = RingIdeal(W.base, data)
        assert expand_ideal(W, I) == expand_ideal_loop(W, I)


def test_quotient_algebra():
    A = matrix_algebra(ZMod(4), 2)
    Q, proj = quotient_algebra(A, RingIdeal(ZMod(4), 2))
    assert Q.base.size == 2
    assert Q.rank == 4


def test_ideal_intersection_check():
    A = matrix_algebra(ZMod(12), 2)
    rep = ideal_intersection_check(A, [RingIdeal(ZMod(12), 2), RingIdeal(ZMod(12), 3)])
    assert rep.status == "pass"


@pytest.mark.parametrize("d1,d2", [(2, 4), (3, 6), (4, 6), (2, 3)])
def test_ideal_intersection_random_families(d1, d2):
    A = matrix_algebra(ZMod(12), 2)
    rep = ideal_intersection_check(A, [RingIdeal(ZMod(12), d1), RingIdeal(ZMod(12), d2)])
    assert rep.status == "pass"


# ---------------------------------------------------------------------------
# nilpotency and Jordan cells


def test_jordan_cell_shape():
    a = jordan_cell(ZMod(2), 2)
    # sends e_2 to e_1: entry (1, 2) = 1 in 1-based terms
    assert a.flat.tolist() == [0, 1, 0, 0]


def test_jordan_cell_n1_is_zero():
    assert jordan_cell(ZMod(3), 1).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jordan_cell_nilpotency_index(p, n):
    assert nilpotency_index(jordan_cell(ZMod(p), n), cap=n + 1) == n


def test_nilpotency_cap_raises():
    A = matrix_algebra(ZMod(5), 2)
    with pytest.raises(NotNilpotentWithinCap):
        nilpotency_index(A.one(), cap=4)

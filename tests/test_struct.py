"""The constructors emit the nonzero entries of the integer structure
tensor; these tests compare it, and the flat unit, against the RingElem
table oracles, and the stored entries against the constructors' dense
bodies (`structure_tensor_dense`, `ring_table_dense`)."""

import itertools

import numpy as np
import pytest

from azumaya import linalg
from azumaya.configio import make_algebra
from azumaya.algebras import (
    Algebra,
    AlgebraError,
    _normal_order,
    base_change,
    flat_entries,
    matrix_algebra,
    opposite,
    quotient_algebra,
    tensor_product,
    upper_triangular_algebra,
    weyl_quotient,
)
from azumaya.rings import (
    GaloisField,
    ProductRing,
    RingElem,
    ZMod,
    crt_decompose,
    maximal_ideals,
    residue_field,
)
from azumaya.suites import _split_quadratic_f2
from ring_oracles import (
    base_change_table,
    entries,
    flatten_table,
    matrix_table,
    opposite_table,
    ring_table_dense,
    structure_tensor_dense,
    structure_tensor_einsum,
    tensor_table,
    upper_triangular_table,
    weyl_table,
)

_RINGS = [
    ZMod(2),
    ZMod(12),
    GaloisField.default(2, 2),
    GaloisField.default(3, 2),
    ProductRing([ZMod(2), ZMod(3)]),
]
_SMALL_RINGS = [ZMod(4), GaloisField.default(2, 2), ProductRing([ZMod(2), ZMod(3)])]


def _assert_matches(A, table, unit):
    struct, unit_flat = flatten_table(A.base, table, unit)
    assert A.struct.dtype == np.int64 and A.struct.shape == struct.shape
    assert np.array_equal(A.struct, struct), A.label
    assert np.array_equal(A.unit_flat, unit_flat), A.label


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("ring", _RINGS, ids=repr)
def test_matrix_algebra_matches_table_oracle(ring, n):
    _assert_matches(matrix_algebra(ring, n, check=False), *matrix_table(ring, n))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("ring", _RINGS, ids=repr)
def test_upper_triangular_matches_table_oracle(ring, n):
    _assert_matches(upper_triangular_algebra(ring, n), *upper_triangular_table(ring, n))


_WEYL = [(p, a, b) for p in (2, 3) for a in range(p) for b in range(p)]
_WEYL += [(5, 0, 0), (5, 2, 3), (5, 4, 1), (7, 0, 0), (7, 1, 1), (7, 6, 3)]


@pytest.mark.parametrize("p,a,b", _WEYL)
def test_weyl_quotient_matches_table_oracle(p, a, b):
    _assert_matches(weyl_quotient(p, a, b), *weyl_table(p, a, b))


@pytest.mark.parametrize("ring", _SMALL_RINGS, ids=repr)
def test_opposite_and_tensor_match_table_oracle(ring):
    M, UT = matrix_algebra(ring, 2), upper_triangular_algebra(ring, 2)
    m, ut = matrix_table(ring, 2), upper_triangular_table(ring, 2)
    ut_op = opposite_table(ring, *ut)
    _assert_matches(opposite(M), *opposite_table(ring, *m))
    _assert_matches(opposite(UT), *ut_op)
    _assert_matches(tensor_product(UT, M), *tensor_table(ring, *ut, *m))
    _assert_matches(tensor_product(M, opposite(UT)), *tensor_table(ring, *m, *ut_op))
    _assert_matches(tensor_product(UT, UT), *tensor_table(ring, *ut, *ut))


def test_weyl_opposite_and_tensor_match_table_oracle():
    R = ZMod(3)
    W, w = weyl_quotient(3, 1, 2), weyl_table(3, 1, 2)
    M, m = matrix_algebra(R, 2), matrix_table(R, 2)
    _assert_matches(opposite(W), *opposite_table(R, *w))
    _assert_matches(tensor_product(W, M), *tensor_table(R, *w, *m))
    _assert_matches(tensor_product(M, opposite(W)), *tensor_table(R, *m, *opposite_table(R, *w)))


@pytest.mark.parametrize("n", [12, 30])
def test_base_change_matches_table_oracle(n):
    R = ZMod(n)
    _, fwd, back = crt_decompose(R)
    projections = [residue_field(R, m)[1] for m in maximal_ideals(R)]
    for A, table in [
        (matrix_algebra(R, 2), matrix_table(R, 2)),
        (upper_triangular_algebra(R, 3), upper_triangular_table(R, 3)),
    ]:
        for hom in [fwd, *projections]:
            _assert_matches(base_change(A, hom), *base_change_table(hom, *table))
        # back from the CRT product, whose coordinates have mixed moduli
        split, split_table = base_change(A, fwd), base_change_table(fwd, *table)
        _assert_matches(base_change(split, back), *base_change_table(back, *split_table))


@pytest.mark.parametrize(
    "make",
    [lambda: weyl_quotient(7, 1, 1), lambda: matrix_algebra(ZMod(12), 5)],
    ids=["W(7,1,1)", "M5(Z/12)"],
)
def test_constructors_make_few_ring_elements(make, monkeypatch):
    calls = 0
    original = RingElem.__init__

    def counting(self, *args):
        nonlocal calls
        calls += 1
        original(self, *args)

    monkeypatch.setattr(RingElem, "__init__", counting)
    make()
    assert calls < 100


def test_algebra_rejects_a_tensor_that_does_not_fit_the_base():
    R = GaloisField.default(2, 2)
    # a nonzero table: an empty entry set fits every rank
    struct, unit = structure_tensor_dense(R, np.ones((2, 2, 2, 2)), [[1, 0], [1, 0]])
    with pytest.raises(AlgebraError):
        Algebra(R, entries(struct[:3, :3, :3]), unit[:3], check=False)
    with pytest.raises(AlgebraError):
        Algebra(R, entries(struct), unit[:2], check=False)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("index", [-1, 4])
def test_algebra_refuses_an_index_outside_the_coordinates(axis, index):
    at = [[0], [0], [0]]
    at[axis] = [index]
    with pytest.raises(AlgebraError, match="do not fit 4 flat coordinates"):
        Algebra(ZMod(2), (at, [1]), [1, 0, 0, 1], check=False)


def test_algebra_sums_repeated_entries_exactly():
    # three entries on one key sum to 3 (2^62 - 1) = 2^62 - 3 mod 2^62, and
    # a pair that cancels is dropped
    R = ZMod(2**62)
    at = ([0, 1, 0, 0, 1],) * 3
    A = Algebra(R, (at, [-1, 5, -1, -1, 2**62 - 5]), [1, 1], check=False)
    (I, J, K), V, ptr = A._sparse_rows
    assert [I.tolist(), J.tolist(), K.tolist(), V.tolist(), ptr.tolist()] == [[0], [0], [0], [2**62 - 3], [0, 1, 1]]


@pytest.mark.parametrize(
    "ring",
    [*_RINGS, ZMod(2**62), GaloisField(2**61 - 1, [1, 0, 1]), ProductRing([ZMod(2**40), GaloisField.default(3, 3)])],
    ids=repr,
)
def test_structure_tensor_matches_the_einsum_body(ring):
    # the entry path gives the einsums' tensor byte for byte, over the
    # int64 path and over Python ints where f (N - 1)^2 leaves int64
    rng = np.random.default_rng(7)
    d, f = 3, ring.flatten_len
    table = rng.integers(-(2**62), 2**62, size=(d, d, d, f))
    unit = rng.integers(-(2**62), 2**62, size=(d, f))
    index = np.nonzero(table.any(axis=3))
    A = Algebra(ring, flat_entries(ring, index, table[index]), unit.reshape(-1), check=False)
    _assert_dense_body(A, *structure_tensor_einsum(ring, table, unit))


# ---------------------------------------------------------------------------
# every constructor's entries against its dense body before it emitted them


def _assert_dense_body(A, struct, unit):
    """A's stored entries, unit and hash are those of the dense tensor."""
    index, values, ptr = linalg.sparse_rows(struct % A._moduli_arr)
    for got, want in zip((*A._sparse_rows[0], A._sparse_rows[1], A._sparse_rows[2]), (*index, values, ptr)):
        assert got.dtype == want.dtype and np.array_equal(got, want), A.label
    assert np.array_equal(A.unit_flat, unit % A._moduli_arr), A.label
    assert hash(A) == hash((A.base, A.rank, values.tobytes(), *(i.tobytes() for i in index))), A.label


def _matrix_dense(ring, n):
    d, one = n * n, ring.one().coords
    r = np.arange(n)
    i, j, l = r[:, None, None], r[None, :, None], r[None, None, :]
    table = np.zeros((d, d, d, ring.flatten_len), dtype=np.int64)
    table[i * n + j, j * n + l, i * n + l] = one  # E_ij E_jl = E_il
    unit = np.zeros((d, ring.flatten_len), dtype=np.int64)
    unit[r * n + r] = one
    return structure_tensor_dense(ring, table, unit)


def _upper_triangular_dense(ring, n):
    pos = {p: a for a, p in enumerate((i, j) for i in range(n) for j in range(i, n))}
    d, one = len(pos), ring.one().coords
    table = np.zeros((d, d, d, ring.flatten_len), dtype=np.int64)
    for i, j, l in itertools.combinations_with_replacement(range(n), 3):
        table[pos[i, j], pos[j, l], pos[i, l]] = one
    unit = np.zeros((d, ring.flatten_len), dtype=np.int64)
    unit[[pos[i, i] for i in range(n)]] = one
    return structure_tensor_dense(ring, table, unit)


def _weyl_dense(p, a, b):
    ring, d = ZMod(p), p * p
    # table[i, j, k, l] holds x^i y^j * x^k y^l = x^i (y^j x^k) y^l
    table = np.zeros((p, p, p, p, d), dtype=np.int64)
    i, l = np.arange(p)[:, None], np.arange(p)[None, :]
    for j in range(p):
        for k in range(p):
            for (c, e), coeff in _normal_order(j, k).items():
                qx, rx = np.divmod(i + c, p)
                qy, ry = np.divmod(e + l, p)
                table[i, j, k, l, rx * p + ry] += coeff % p * (a % p) ** qx * (b % p) ** qy % p
    return structure_tensor_dense(ring, table, np.eye(1, d, dtype=np.int64))


def _tensor_dense(A, B):
    f, M, moduli = A.base.flatten_len, A.base.struct, A.base._moduli_arr
    table = linalg.einsum_mod(
        "ackv,bdlw,vwu->abcdklu", ring_table_dense(A), ring_table_dense(B), M, moduli=moduli, N=A._N
    )
    uA, uB = A.unit_flat.reshape(-1, f), B.unit_flat.reshape(-1, f)
    unit = linalg.einsum_mod("kv,lw,vwu->klu", uA, uB, M, moduli=moduli, N=A._N)
    return structure_tensor_dense(A.base, table, unit)


def _base_change_dense(A, hom):
    H, moduli = hom.matrix, np.asarray(hom.target.moduli, dtype=np.int64)
    table = linalg.einsum_mod("ijks,ts->ijkt", ring_table_dense(A), H, moduli=moduli, N=hom._N)
    unit = linalg.einsum_mod("is,ts->it", A.unit_flat.reshape(A.rank, -1), H, moduli=moduli, N=hom._N)
    return structure_tensor_dense(hom.target, table, unit)


F4 = GaloisField.default(2, 2)
_DIFFERENTIAL_BASES = [
    ZMod(2),
    ZMod(12),
    ZMod(2**62),
    F4,
    GaloisField.default(3, 2),
    ProductRing([ZMod(2), ZMod(3)]),
    ProductRing([ZMod(4), F4]),
    GaloisField(2**61 - 1, [1, 0, 1]),
]


@pytest.mark.parametrize("ring", _DIFFERENTIAL_BASES, ids=repr)
def test_constructors_store_the_entries_of_their_dense_bodies(ring):
    for n in (1, 2, 3):
        M, UT = matrix_algebra(ring, n, check=False), upper_triangular_algebra(ring, n)
        _assert_dense_body(M, *_matrix_dense(ring, n))
        _assert_dense_body(UT, *_upper_triangular_dense(ring, n))
        for A in (M, UT):
            _assert_dense_body(opposite(A), A.struct.transpose(1, 0, 2), A.unit_flat)
    M, UT = matrix_algebra(ring, 2, check=False), upper_triangular_algebra(ring, 2)
    for A, B in [(UT, M), (M, opposite(UT)), (UT, UT)]:
        _assert_dense_body(tensor_product(A, B), *_tensor_dense(A, B))
    T = tensor_product(UT, M)
    for m in maximal_ideals(ring):
        Q, proj = quotient_algebra(T, m)
        _assert_dense_body(Q, *_base_change_dense(T, proj))
    if isinstance(ring, ZMod):
        _, fwd, back = crt_decompose(ring)
        split = base_change(UT, fwd)
        _assert_dense_body(split, *_base_change_dense(UT, fwd))
        _assert_dense_body(base_change(split, back), *_base_change_dense(split, back))


@pytest.mark.parametrize("p,a,b", [(2, 1, 1), (3, 1, 2), (5, 2, 3), (7, 0, 0), (7, 6, 3)])
def test_weyl_quotients_store_the_entries_of_their_dense_bodies(p, a, b):
    W, M = weyl_quotient(p, a, b), matrix_algebra(ZMod(p), 2, check=False)
    _assert_dense_body(W, *_weyl_dense(p, a, b))
    _assert_dense_body(opposite(W), W.struct.transpose(1, 0, 2), W.unit_flat)
    if p <= 3:
        _assert_dense_body(tensor_product(W, M), *_tensor_dense(W, M))
        _assert_dense_body(tensor_product(M, opposite(W)), *_tensor_dense(M, opposite(W)))


def test_table_builds_store_the_entries_of_their_dense_bodies():
    # a `structure_constants` config over GF(4), and the suites' F_2 x F_2
    table = [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]]
    cfg = {"kind": "structure_constants", "ring": {"kind": "gf", "p": 2, "f": [1, 1, 1]}, "rank": 2}
    A = make_algebra({**cfg, "table": table, "unit": [[1, 0], [0, 0]]})
    _assert_dense_body(A, *structure_tensor_dense(A.base, table, [[1, 0], [0, 0]]))
    B = _split_quadratic_f2()
    _assert_dense_body(B, *structure_tensor_dense(ZMod(2), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1]))

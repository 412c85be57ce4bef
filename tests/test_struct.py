"""The constructors emit the integer structure tensor directly; these tests
compare it, and the flat unit, against the RingElem table oracles."""

import numpy as np
import pytest

from azumaya.algebras import (
    Algebra,
    AlgebraError,
    base_change,
    matrix_algebra,
    opposite,
    structure_tensor,
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
from ring_oracles import (
    base_change_table,
    flatten_table,
    matrix_table,
    opposite_table,
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
    struct, unit = structure_tensor(R, np.zeros((2, 2, 2, 2)), [[1, 0], [1, 0]])
    with pytest.raises(AlgebraError):
        Algebra(R, struct[:3, :3, :3], unit[:3], check=False)
    with pytest.raises(AlgebraError):
        Algebra(R, struct, unit[:2], check=False)


@pytest.mark.parametrize(
    "ring",
    [*_RINGS, ZMod(2**62), GaloisField(2**61 - 1, [1, 0, 1]), ProductRing([ZMod(2**40), GaloisField.default(3, 3)])],
    ids=repr,
)
def test_structure_tensor_matches_the_einsum_body(ring):
    # the matrix products give the einsums' tensor byte for byte, over the
    # int64 path and over Python ints where f (N - 1)^2 leaves int64
    rng = np.random.default_rng(7)
    d, f = 3, ring.flatten_len
    table = rng.integers(-(2**62), 2**62, size=(d, d, d, f))
    unit = rng.integers(-(2**62), 2**62, size=(d, f))
    got, want = structure_tensor(ring, table, unit), structure_tensor_einsum(ring, table, unit)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

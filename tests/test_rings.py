import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya.rings import (
    BaseRingHom,
    EmptyProduct,
    GaloisField,
    InvalidBaseHom,
    InvalidIdeal,
    MaxIdeal,
    NonPrimeModulus,
    NotAUnit,
    ProductRing,
    ReduciblePolynomial,
    RingError,
    RingIdeal,
    ZMod,
    crt_decompose,
    factorize,
    intersect_ideals,
    is_reduced,
    make_ring,
    maximal_ideals,
    residue_field,
)
from ring_oracles import base_hom_refutation, inv_coords, mul_coords


# ---------------------------------------------------------------------------
# ZMod basics


def test_zmod_arithmetic():
    R = ZMod(12)
    a, b = R.element((7,)), R.element((8,))
    assert (a + b).coords == (3,)
    assert (a * b).coords == (8,)
    assert (-a).coords == (5,)
    assert (a - b).coords == (11,)


def test_zmod_inverse():
    R = ZMod(12)
    five = R.element((5,))
    assert five.inv().coords == (5,)  # 5*5 = 25 = 1 mod 12
    assert five.is_unit()
    assert not R.element((4,)).is_unit()
    with pytest.raises(NotAUnit):
        R.element((4,)).inv()


def test_zmod_modulus_must_fit_int64():
    assert ZMod(2**63 - 25).moduli == (2**63 - 25,)
    for n in (1, 2**63, 10**20):
        with pytest.raises(RingError):
            ZMod(n)


def test_zmod_size_and_field():
    assert ZMod(7).is_field
    assert not ZMod(12).is_field
    assert ZMod(12).size == 12


# ---------------------------------------------------------------------------
# Galois fields


def test_gf4_table():
    # GF(4) = F_2[t]/(t^2 + t + 1); t^2 = t + 1
    F4 = GaloisField(2, [1, 1, 1])
    t = F4.element((0, 1))
    assert (t * t).coords == (1, 1)
    assert F4.size == 4


def test_gf_reducible_rejected():
    with pytest.raises(ReduciblePolynomial):
        GaloisField(2, [1, 0, 1])  # t^2 + 1 = (t+1)^2 over F_2


def test_gf_nonprime_rejected():
    with pytest.raises(NonPrimeModulus):
        GaloisField(4, [1, 1, 1])


def test_gf_inverse_all_elements():
    F8 = GaloisField.default(2, 3)
    one = F8.one()
    units = [e for e in F8.elements() if not e.is_zero()]
    assert len(units) == 7
    for e in units:
        assert e * e.inv() == one


def test_gf_default_deterministic():
    assert GaloisField.default(2, 2).to_config() == GaloisField.default(2, 2).to_config()
    assert GaloisField.default(3, 2).size == 9


# ---------------------------------------------------------------------------
# product rings


def test_product_ring_componentwise():
    R = ProductRing([ZMod(2), ZMod(3)])
    a = R.element((1, 2))
    b = R.element((1, 1))
    assert (a * b).coords == (1, 2)
    assert R.size == 6


def test_empty_product_rejected():
    with pytest.raises(EmptyProduct):
        ProductRing([])


# ---------------------------------------------------------------------------
# config round-trips


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "zmod", "n": 12},
        {"kind": "gf", "p": 2, "f": [1, 1, 1]},
        {"kind": "product", "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 3}]},
    ],
)
def test_ring_config_roundtrip(config):
    assert make_ring(config).to_config() == config


# ---------------------------------------------------------------------------
# maximal ideals and residue fields


def test_maximal_ideals_z12():
    ms = maximal_ideals(ZMod(12))
    assert sorted(m.locator for m in ms) == [2, 3]


def test_residue_field_projection():
    R = ZMod(12)
    m = MaxIdeal(R, 2)
    field, proj = residue_field(R, m)
    assert field.size == 2
    assert proj.apply(R.element((7,))).coords == (1,)
    assert proj.apply(R.element((6,))).coords == (0,)


def test_residue_field_of_product():
    R = ProductRing([ZMod(4), ZMod(3)])
    ms = maximal_ideals(R)
    assert len(ms) == 2
    sizes = sorted(residue_field(R, m)[0].size for m in ms)
    assert sizes == [2, 3]


def test_is_reduced():
    assert is_reduced(ZMod(6))
    assert not is_reduced(ZMod(12))
    assert not is_reduced(ZMod(4))
    assert is_reduced(GaloisField.default(2, 2))
    assert is_reduced(ProductRing([ZMod(2), ZMod(3)]))
    assert not is_reduced(ProductRing([ZMod(4), ZMod(3)]))


# ---------------------------------------------------------------------------
# CRT


def test_crt_z12():
    product, fwd, back = crt_decompose(ZMod(12))
    assert sorted(f.size for f in product.factors) == [3, 4]
    x = ZMod(12).element((7,))
    split = fwd.apply(x)
    assert back.apply(split) == x


def test_crt_roundtrip_all_elements():
    R = ZMod(60)
    product, fwd, back = crt_decompose(R)
    for e in R.elements():
        assert back.apply(fwd.apply(e)) == e
        assert fwd.apply(back.apply(fwd.apply(e))) == fwd.apply(e)


# ---------------------------------------------------------------------------
# ideals


def test_ideal_canonical_gcd():
    R = ZMod(12)
    assert RingIdeal(R, 8).data == 4  # (8) = (gcd(8,12)) = (4)
    assert RingIdeal(R, 5).data == 1  # unit ideal


def test_ideal_zero_and_unit():
    R = ZMod(12)
    zero = RingIdeal(R, 12)
    assert zero.is_zero
    assert RingIdeal(R, 1).is_unit
    assert not zero.is_unit


def test_ideal_contains():
    R = ZMod(12)
    I = RingIdeal(R, 4)
    assert I.contains(R.element((8,)))
    assert not I.contains(R.element((6,)))


def test_ideal_intersection():
    R = ZMod(12)
    I = RingIdeal(R, 2).intersect(RingIdeal(R, 3))
    assert I.data == 6
    assert intersect_ideals([RingIdeal(R, 2), RingIdeal(R, 3)]).data == 6


def test_ideal_quotient():
    R = ZMod(12)
    target, proj = RingIdeal(R, 4).quotient()
    assert target.size == 4
    assert proj.apply(R.element((7,))).coords == (3,)


def test_unit_ideal_quotient_rejected():
    with pytest.raises(InvalidIdeal):
        RingIdeal(ZMod(12), 1).quotient()


def test_gf_ideals():
    F4 = GaloisField.default(2, 2)
    assert RingIdeal(F4, "zero").is_zero
    assert RingIdeal(F4, "unit").is_unit
    with pytest.raises(InvalidIdeal):
        RingIdeal(F4, 3)


def test_product_ideal():
    R = ProductRing([ZMod(4), ZMod(3)])
    I = RingIdeal(R, (2, 3))  # (2) x (0)
    assert I.contains(R.element((2, 0)))
    assert not I.contains(R.element((2, 1)))


# ---------------------------------------------------------------------------
# base ring homs


def test_base_hom_identity_and_compose():
    R = ZMod(12)
    ident = BaseRingHom.identity(R)
    assert ident.compose(ident).matrix.tolist() == ident.matrix.tolist()


def test_base_hom_verifies_multiplicativity():
    # x -> 2x on Z/4 is additive and well-defined but not a ring hom
    from azumaya.rings import InvalidBaseHom

    with pytest.raises(InvalidBaseHom):
        BaseRingHom(ZMod(4), ZMod(4), [[2]])


# ---------------------------------------------------------------------------
# property tests


@given(st.integers(0, 11), st.integers(0, 11), st.integers(0, 11))
def test_zmod_ring_axioms(a, b, c):
    R = ZMod(12)
    x, y, z = R.element((a,)), R.element((b,)), R.element((c,))
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x


@settings(max_examples=50)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_gf4_ring_axioms(a0, a1, b0, b1):
    F4 = GaloisField.default(2, 2)
    x = F4.element((a0 % 2, a1 % 2))
    y = F4.element((b0 % 2, b1 % 2))
    assert x * y == y * x
    assert x * (y + y) == x * y + x * y


def test_factorize_is_memoized():
    p = 10**14 + 31
    first = factorize(p)
    started = time.perf_counter()
    again = factorize(p)
    assert time.perf_counter() - started < 0.01
    assert again == first == ((p, 1),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert isinstance(factorize(360), tuple)


# ---------------------------------------------------------------------------
# the multiplication tensor against the per-kind arithmetic (ring_oracles)

BIG_PRIMES = (2**61 - 1, 2**63 - 25)


@lru_cache(maxsize=None)
def _gf(p, f):
    try:
        return GaloisField(p, list(f))
    except ReduciblePolynomial:
        return None


@st.composite
def galois_fields(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(1, 3))
    tail = draw(st.tuples(*[st.integers(0, p - 1)] * k))
    F = _gf(p, tail + (1,))
    return F if F is not None else GaloisField.default(p, k)


small_zmods = st.integers(2, 30).map(ZMod)
zmods = st.one_of(small_zmods, st.sampled_from(BIG_PRIMES).map(ZMod))


def _products(factors):
    return st.lists(st.one_of(factors, galois_fields()), min_size=1, max_size=3).map(ProductRing)


rings = st.one_of(zmods, galois_fields(), _products(zmods))


def _coords(data, R):
    return data.draw(st.tuples(*(st.integers(0, m - 1) for m in R.moduli)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_products_match_per_kind_oracle(data):
    R = data.draw(rings)
    x, y = _coords(data, R), _coords(data, R)
    assert (R.element(x) * R.element(y)).coords == mul_coords(R, x, y)
    M = R.mul_matrix(x)
    for t in range(R.flatten_len):
        basis = tuple(int(s == t) for s in range(R.flatten_len))
        assert tuple(int(v) for v in M[:, t]) == mul_coords(R, x, basis)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inverse_matches_per_kind_oracle(data):
    R = data.draw(rings)
    x = R.element(_coords(data, R))
    try:
        expected = inv_coords(R, x.coords)
    except NotAUnit:
        expected = None
    assert x.is_unit() == (expected is not None)
    if expected is None:
        with pytest.raises(NotAUnit):
            x.inv()
    else:
        assert x.inv().coords == expected


def _verdict(source, target, matrix):
    try:
        BaseRingHom(source, target, matrix)
    except InvalidBaseHom as e:
        return str(e)
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_base_hom_verdict_matches_pairwise_oracle(data):
    R = data.draw(rings)
    targets = [R]
    if R._N < 2**32:  # its maximal ideals come from factoring by trial division
        targets += [residue_field(R, m)[0] for m in maximal_ideals(R)]
    T = data.draw(st.sampled_from(targets))
    H = [[data.draw(st.integers(0, m - 1)) for _ in R.moduli] for m in T.moduli]
    if data.draw(st.booleans()):
        # fix the unit: the first unit coordinate is a 1, so solve for its column
        u = R.unit_flat.tolist()
        j0 = u.index(1)
        for row, m, one in zip(H, T.moduli, T.unit_flat.tolist()):
            row[j0] = (one - sum(h * c for j, (h, c) in enumerate(zip(row, u)) if j != j0)) % m
    H = np.asarray(H, dtype=np.int64).reshape(T.flatten_len, R.flatten_len)
    assert _verdict(R, T, H) == base_hom_refutation(R, T, H)


def _frobenius(F):
    """Matrix of x -> x^p: column s holds the coordinates of (t^s)^p."""
    cols = []
    for s in range(F.flatten_len):
        b = F.basis_elem(s)
        power = F.one()
        for _ in range(F.p):
            power = power * b
        cols.append(power.coords)
    return np.asarray(cols, dtype=np.int64).T


@pytest.mark.parametrize("k", [2, 3])
def test_frobenius_verifies(k):
    F = GaloisField.default(2, k)
    H = _frobenius(F)
    assert base_hom_refutation(F, F, H) is None
    hom = BaseRingHom(F, F, H)
    t = F.basis_elem(1)
    assert hom.apply(t) == t * t


def test_base_hom_refutations_name_condition_and_pair():
    # x -> 2x on Z/4 keeps the unit only if 2 = 1
    assert _verdict(ZMod(4), ZMod(4), [[2]]) == "unit is not preserved"
    # 1 -> 1, t -> 0 on GF(4): t * t = t + 1 is sent to 1, not 0
    F4 = GaloisField(2, [1, 1, 1])
    message = "multiplicativity fails on coordinate pair (1, 1)"
    assert _verdict(F4, F4, [[1, 0], [0, 0]]) == message == base_hom_refutation(F4, F4, [[1, 0], [0, 0]])
    # Z/2 -> Z/4 by 1 -> 1 is not additive: 2 * 1 = 2 in Z/4
    assert _verdict(ZMod(2), ZMod(4), [[1]]) == "map is not well-defined on the coordinate moduli"


def test_non_unit_of_product_ring_raises():
    R = ProductRing([ZMod(4), GaloisField(2, [1, 1, 1])])
    for coords in [(2, 1, 0), (1, 0, 0), (0, 0, 1)]:
        x = R.element(coords)
        assert not x.is_unit()
        with pytest.raises(NotAUnit):
            x.inv()
    u = R.element((3, 0, 1))
    assert u * u.inv() == R.one()


def test_ring_tensors_by_kind():
    assert ZMod(12).struct.tolist() == [[[1]]]
    # GF(4): 1, t with t^2 = t + 1
    assert GaloisField(2, [1, 1, 1]).struct.tolist() == [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
    R = ProductRing([ZMod(3), GaloisField(2, [1, 1, 1])])
    assert R.struct[0, 0].tolist() == [1, 0, 0] and not R.struct[0, 1:].any()
    assert R.struct[1:, 1:, 1:].tolist() == GaloisField(2, [1, 1, 1]).struct.tolist()
    assert R.unit_flat.tolist() == [1, 1, 0]

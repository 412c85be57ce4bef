import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya.rings import (
    BaseRingHom,
    EmptyProduct,
    GaloisField,
    InvalidIdeal,
    MaxIdeal,
    NonPrimeModulus,
    NotAUnit,
    ProductRing,
    ReduciblePolynomial,
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

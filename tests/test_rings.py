import itertools
import math
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
from azumaya.algebras import matrix_algebra, rank_at
from azumaya.linalg import Subgroup
from ring_oracles import (
    base_hom_refutation,
    basis_elem,
    element_coords,
    factorize_trial,
    gf_default_search,
    ideal_elements,
    inv_coords,
    irreducible_trial,
    is_prime_trial,
    maximal_ideal_sets,
    mul_coords,
    nilpotent_elements,
    ring_elements,
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


# every monic polynomial of these degrees over these primes: 4,385 in all
GF_GRID = [(2, range(2, 9)), (3, range(2, 7)), (5, range(2, 5)), (7, range(2, 4)), (11, range(2, 4)), (13, [2])]


def _monic(p, k):
    return (list(tail) + [1] for tail in itertools.product(range(p), repeat=k))


def test_gf_irreducibility_matches_trial_division():
    checked = 0
    for p, degrees in GF_GRID:
        for k in degrees:
            for f in _monic(p, k):
                checked += 1
                if irreducible_trial(p, f):
                    assert GaloisField(p, f).f == tuple(f)
                else:
                    with pytest.raises(ReduciblePolynomial):
                        GaloisField(p, f)
    assert checked == 4385


def test_gf_default_is_the_least_irreducible_polynomial():
    for p, degrees in GF_GRID:
        for k in degrees:
            least = next(f for f in _monic(p, k) if irreducible_trial(p, f))
            assert GaloisField.default(p, k).f == tuple(least)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gf_default_matches_the_constructor_search(p):
    # candidates decided before a ring is built: the polynomial the search
    # that built one ring per candidate chose
    for k in range(1, 5):
        assert GaloisField.default(p, k).f == (gf_default_search(p, k) if k > 1 else (0, 1))


def test_gf_default_refuses_a_bad_characteristic_before_any_candidate():
    with pytest.raises(NonPrimeModulus):
        GaloisField.default(4, 2)
    with pytest.raises(RingError, match="below 2\\^63"):
        GaloisField.default(2**63 + 29, 2)


def test_gf_irreducibility_decided_for_a_large_characteristic():
    # p = 2^61 - 1 is 3 mod 4 and 1 mod 3: -1 is not a square and -3 is
    p = 2**61 - 1
    started = time.perf_counter()
    F = GaloisField(p, [1, 0, 1])
    with pytest.raises(ReduciblePolynomial, match="2 irreducible factors"):
        GaloisField(p, [3, 0, 1])
    with pytest.raises(ReduciblePolynomial, match="repeated factor"):
        GaloisField(p, [1, 2, 1])
    assert time.perf_counter() - started < 5
    t = basis_elem(F, 1)
    assert (t * t).coords == (p - 1, 0)


@pytest.mark.parametrize("p", [2**63 + 29, 9223372036854775837])
def test_gf_characteristic_from_2_63_refused(p):
    with pytest.raises(RingError, match="below 2\\^63"):
        GaloisField(p, [0, 1])


def test_gf_inverse_all_elements():
    F8 = GaloisField.default(2, 3)
    one = F8.one()
    units = [e for e in ring_elements(F8) if not e.is_zero()]
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
    assert sorted(m.data for m in ms) == [2, 3]


def test_residue_field_projection():
    R = ZMod(12)
    m = RingIdeal(R, 2)
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
    for e in ring_elements(R):
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


F4 = GaloisField(2, [1, 1, 1])


@pytest.mark.parametrize(
    "factors,sizes",
    [
        ([ZMod(4), ZMod(3)], [2, 3]),
        ([ZMod(4), F4], [2, 4]),
        ([ZMod(2), ZMod(3), F4], [2, 3, 4]),
    ],
    ids=["Z4xZ3", "Z4xGF4", "Z2xZ3xGF4"],
)
def test_maximal_ideals_and_residue_fields_of_products(factors, sizes):
    R = ProductRing(factors)
    A = matrix_algebra(R, 2)
    ms = maximal_ideals(R)
    fields = [residue_field(R, m)[0] for m in ms]
    assert [F.size for F in fields] == sizes
    assert all(F.is_field for F in fields)
    assert not any(m.is_unit for m in ms)
    assert [rank_at(A, m) for m in ms] == [4] * len(ms)


def test_residue_field_of_non_maximal_ideal_refused():
    with pytest.raises(InvalidIdeal):
        residue_field(ZMod(12), RingIdeal(ZMod(12), 4))
    with pytest.raises(InvalidIdeal):
        residue_field(ZMod(12), RingIdeal(ZMod(12), 1))
    with pytest.raises(InvalidIdeal):
        residue_field(ZMod(6), RingIdeal(ZMod(12), 2))


def test_product_maximal_ideal_notation_names_the_factor_units():
    # the other factors carry their own unit notation: 1 for Z/n, "unit" for a field
    R = ProductRing([ZMod(4), F4])
    assert [m.data for m in maximal_ideals(R)] == [(2, "unit"), (1, "zero")]
    assert [m.data for m in maximal_ideals(ProductRing([R, ZMod(3)]))] == [
        ((2, "unit"), 1),
        ((1, "zero"), 1),
        ((1, "unit"), 3),
    ]


@pytest.mark.parametrize(
    "ring,data",
    [
        (ZMod(4), "zero"),
        (ZMod(4), [2]),
        (ZMod(4), None),
        (ZMod(4), 2.5),
        (ZMod(4), True),
        (F4, 0),
        (F4, "one"),
        (F4, None),
        (ProductRing([ZMod(4), F4]), 2),
        (ProductRing([ZMod(4), F4]), [2]),
        (ProductRing([ZMod(4), F4]), [2, 0]),
        (ProductRing([ZMod(4), F4]), "zero"),
    ],
)
def test_malformed_ideal_notation_refused(ring, data):
    with pytest.raises(InvalidIdeal):
        RingIdeal(ring, data)


def test_ideal_from_group_is_the_generated_ideal():
    # the subgroup {0, (2, 0)} of Z/4 x Z/3 generates (2) x (0); t alone generates GF(4)
    R = ProductRing([ZMod(4), ZMod(3)])
    assert RingIdeal.from_group(R, Subgroup([[2, 0]], R.moduli)) == RingIdeal(R, (2, 3))
    assert RingIdeal.from_group(F4, Subgroup([[0, 1]], F4.moduli)).data == "unit"
    assert RingIdeal.from_group(ZMod(12), Subgroup([[8], [6]], (12,))).data == 2


# ---------------------------------------------------------------------------
# base ring homs


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


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(2, 10**6), st.integers(2, 10**4).map(lambda q: q * q * 10007)))
def test_factorize_matches_trial_division(n):
    assert factorize(n) == factorize_trial(n)
    assert ZMod(n).is_field == is_prime_trial(n)


@pytest.mark.parametrize(
    "n,factors",
    [
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2, ..., 23
        (3215031751, ((151, 1), (751, 1), (28351, 1))),
        (3825123056546413051, ((149491, 1), (747451, 1), (34233211, 1))),
        (2147483647 * 4294967291, ((2147483647, 1), (4294967291, 1))),
        (41**2 * 1000003**2, ((41, 2), (1000003, 2))),
        (2**61 - 1, ((2**61 - 1, 1),)),
        (2**63 - 25, ((2**63 - 25, 1),)),
    ],
)
def test_factorize_large_moduli(n, factors):
    assert factorize(n) == factors
    assert math.prod(p**e for p, e in factors) == n


def test_primality_refused_beyond_the_proven_bound():
    with pytest.raises(RingError):
        GaloisField(318665857834031151167461, [0, 1])


def test_is_reduced_of_a_large_prime_is_fast():
    started = time.perf_counter()
    assert is_reduced(ZMod(2**61 - 1))
    assert ZMod(2**61 - 1).is_field
    assert time.perf_counter() - started < 1


def test_maximal_ideals_of_a_two_prime_modulus_are_fast():
    started = time.perf_counter()
    ms = maximal_ideals(ZMod(2147483647 * 4294967291))
    assert time.perf_counter() - started < 1
    assert [m.data for m in ms] == [2147483647, 4294967291]


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
    targets = [R] + [residue_field(R, m)[0] for m in maximal_ideals(R)]
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
        b = basis_elem(F, s)
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
    t = basis_elem(F, 1)
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


# ---------------------------------------------------------------------------
# ideals against their element sets (ring_oracles)


@lru_cache(maxsize=None)
def _field(p, k):
    return GaloisField.default(p, k)


SMALL_FIELDS = [(p, k) for p in (2, 3, 5, 7) for k in range(1, 7) if p**k <= 64]
SMALL_FIELDS += [(p, 1) for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)]


def _small_factors(size):
    return st.one_of(
        st.integers(2, size).map(ZMod),
        st.sampled_from([pk for pk in SMALL_FIELDS if pk[0] ** pk[1] <= size]).map(lambda pk: _field(*pk)),
    )


@st.composite
def small_rings(draw, size=64):
    """Z/n, GF(q) and products of up to three factors, of size <= 64."""
    kind = draw(st.sampled_from(["zmod", "gf", "product"]))
    if kind == "zmod":
        return ZMod(draw(st.integers(2, size)))
    if kind == "gf":
        return _field(*draw(st.sampled_from(SMALL_FIELDS)))
    factors = []
    while len(factors) < 3 and size >= 2 and (len(factors) < 2 or draw(st.booleans())):
        factors.append(draw(_small_factors(size)))
        size //= factors[-1].size
    return ProductRing(factors)


def _small_ideal(data, R):
    gens = data.draw(st.lists(st.sampled_from(element_coords(R)), max_size=3))
    ideal = RingIdeal.from_group(R, Subgroup(np.reshape(gens, (-1, R.flatten_len)), R.moduli))
    return ideal, ideal_elements(R, gens)


def _members(R, ideal):
    return frozenset(x for x in element_coords(R) if ideal.contains(R.element(x)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ideals_match_element_set_oracle(data):
    R = data.draw(small_rings())
    (I, I_set), (J, J_set) = _small_ideal(data, R), _small_ideal(data, R)
    assert _members(R, I) == I_set and I.group.order == len(I_set)
    assert I.is_zero == (len(I_set) == 1)
    assert I.is_unit == (len(I_set) == R.size)
    assert _members(R, I.intersect(J)) == I_set & J_set
    assert (I == J) == (I_set == J_set)
    assert RingIdeal(R, I.data) == I
    assert {g.coords for g in I.generators()} <= I_set


@settings(max_examples=40, deadline=None)
@given(small_rings())
def test_maximal_ideals_and_is_reduced_match_element_set_oracle(R):
    ms = maximal_ideals(R)
    sets = [_members(R, m) for m in ms]
    assert len(set(sets)) == len(ms)
    assert set(sets) == maximal_ideal_sets(R)
    assert is_reduced(R) == (len(nilpotent_elements(R)) == 1)

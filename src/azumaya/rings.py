"""Finite commutative base rings: Z/n, Galois fields, and finite products.

A ring is stored the way an algebra is: its integer multiplication tensor
`struct` over the ring's additive coordinate generators, the coordinates
of its unit, and a modulus per coordinate.  Each kind only fills those
arrays once, at construction: Z/n is [[[1]]], GF(p^k) = F_p[t]/(f) the
regular representation read off the powers of t, and a product ring its
factors' tensors placed block-diagonally.  Everything else is one path
over that data: one product (`mul_batch`), one inverse (solving x*y = 1
through multiplication-by-x), and one hom check (`hom_refutation`), which
algebra homs share.

Elements are stored canonically reduced (each flattened coordinate in
[0, modulus)), so equality is plain tuple comparison.  Every ring here is
finite, hence semi-local and Jacobson; every prime ideal is maximal, which
is why ideals and "rank at a prime" are handled through maximal ideals
alone.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce

import numpy as np

from . import linalg


class RingError(Exception):
    pass


class NonPrimeModulus(RingError):
    pass


class ReduciblePolynomial(RingError):
    pass


class EmptyProduct(RingError):
    pass


class NotAUnit(RingError):
    pass


class InvalidIdeal(RingError):
    pass


class InvalidBaseHom(RingError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


@lru_cache(maxsize=None)
def factorize(n):
    """Prime factorization of n >= 2 as a sorted tuple of (p, e) pairs.

    Trial division, memoized: rings, ideals and bijectivity checks ask for
    the same few moduli again and again."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# rings


class FiniteCommRing:
    """Base class: a ring stored as its multiplication tensor.

    With b_0, ..., b_(f-1) the additive coordinate generators (b_s of order
    moduli[s]), an element is a vector of integers, coordinate s reduced mod
    moduli[s].  `struct[s, t, u]` holds (b_s * b_t)_u and `unit_flat` the
    coordinates of 1; subclasses fill both once through `_store`.
    """

    kind = None

    def _store(self, moduli, struct, unit):
        self.moduli = tuple(moduli)
        self._moduli_arr = np.asarray(self.moduli, dtype=np.int64)
        self._N = max(self.moduli)  # every coordinate is a residue below it
        self.struct = np.asarray(struct, dtype=np.int64)
        self.unit_flat = np.asarray(unit, dtype=np.int64)

    @property
    def flatten_len(self):
        return len(self.moduli)

    @property
    def size(self):
        return math.prod(self.moduli)

    @property
    def is_field(self):
        return False

    def element(self, coords):
        coords = tuple(int(c) % m for c, m in zip(coords, self.moduli, strict=True))
        return RingElem(self, coords)

    def zero(self):
        return RingElem(self, (0,) * self.flatten_len)

    def one(self):
        return RingElem(self, self.unit_flat)

    def basis_elem(self, s):
        """s-th additive coordinate generator (e.g. t^s for a Galois field)."""
        coords = [0] * self.flatten_len
        coords[s] = 1
        return RingElem(self, tuple(coords))

    def elements(self):
        for coords in itertools.product(*(range(m) for m in self.moduli)):
            yield RingElem(self, coords)

    def mul_batch(self, X, Y):
        """Row-wise products of two (T, f) arrays of coordinate residues."""
        return linalg.einsum_mod("ts,tu,suv->tv", X, Y, self.struct, moduli=self._moduli_arr, N=self._N)

    def mul_matrix(self, coords):
        """Integer matrix of multiplication-by-x on flattened coordinates."""
        x = np.asarray(coords, dtype=np.int64)
        return linalg.einsum_mod("s,stu->ut", x, self.struct, moduli=self._moduli_arr[:, None], N=self._N)

    def to_config(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, FiniteCommRing) and self.to_config() == other.to_config()

    def __hash__(self):
        return hash(repr(self.to_config()))


class ZMod(FiniteCommRing):
    """The ring Z/n, 2 <= n < 2^63 (coordinates are int64 residues)."""

    kind = "zmod"

    def __init__(self, n):
        n = int(n)
        if not 2 <= n < 2**63:
            raise RingError(f"modulus must be >= 2 and below 2^63, got {n}")
        self.n = n
        self._store((n,), [[[1]]], [1])

    @property
    def is_field(self):
        return _is_prime(self.n)

    def to_config(self):
        return {"kind": "zmod", "n": self.n}

    def __repr__(self):
        return f"ZMod({self.n})"


class GaloisField(FiniteCommRing):
    """GF(p^k) presented as F_p[t]/(f) for a monic irreducible f.

    Coefficients are stored low-to-high; f has length k+1 with leading 1.
    The coordinate generators are 1, t, ..., t^(k-1), so b_s * b_t = t^(s+t)
    and the multiplication tensor is the regular representation.
    """

    kind = "gf"

    def __init__(self, p, f):
        p = int(p)
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        f = tuple(int(c) % p for c in f[:-1]) + (int(f[-1]),)
        if f[-1] != 1:
            raise RingError("defining polynomial must be monic")
        k = len(f) - 1
        if k < 1:
            raise RingError("defining polynomial must have degree >= 1")
        self.p = p
        self.f = f
        self.k = k
        if k > 1:
            self._check_irreducible()
        powers = self._powers()
        self._store((p,) * k, powers[np.add.outer(np.arange(k), np.arange(k))], powers[0])

    def _powers(self):
        """Coordinates of t^0, ..., t^(2k-2): each is t times the one
        before, with t^k = -(f_0 + f_1 t + ... + f_(k-1) t^(k-1))."""
        p, k = self.p, self.k
        rows = [[int(s == e) for s in range(k)] for e in range(k)]
        for _ in range(k - 1):
            prev = rows[-1]
            shifted = [0] + prev[:-1]
            rows.append([(a - prev[-1] * c) % p for a, c in zip(shifted, self.f[:k])])
        return np.asarray(rows, dtype=np.int64)

    def _check_irreducible(self):
        # exhaustive trial division by monic polynomials of degree <= k/2
        p, k, f = self.p, self.k, self.f
        for c in range(p):
            val = sum(coef * pow(c, i, p) for i, coef in enumerate(f)) % p
            if val == 0:
                raise ReduciblePolynomial(f"t = {c} is a root of {list(f)} mod {p}")
        for deg in range(2, k // 2 + 1):
            for tail in itertools.product(range(p), repeat=deg):
                divisor = list(tail) + [1]
                if self._poly_divides(divisor, list(f), p):
                    raise ReduciblePolynomial(
                        f"{divisor} divides {list(f)} mod {p}"
                    )

    @staticmethod
    def _poly_divides(d, f, p):
        rem = list(f)
        while len(rem) >= len(d):
            lead = rem[-1]
            if lead:
                shift = len(rem) - len(d)
                for i, c in enumerate(d):
                    rem[shift + i] = (rem[shift + i] - lead * c) % p
            rem.pop()
        return all(c == 0 for c in rem)

    @property
    def is_field(self):
        return True

    @classmethod
    def default(cls, p, k):
        """GF(p^k) with the lexicographically smallest irreducible monic f."""
        if k == 1:
            return cls(p, [0, 1])
        for tail in itertools.product(range(p), repeat=k):
            try:
                return cls(p, list(tail) + [1])
            except ReduciblePolynomial:
                continue
        raise RingError("unreachable: irreducible polynomial always exists")

    def to_config(self):
        return {"kind": "gf", "p": self.p, "f": list(self.f)}

    def __repr__(self):
        return f"GaloisField({self.p}, {list(self.f)})"


class ProductRing(FiniteCommRing):
    """Finite product of base rings, coordinates concatenated and the
    factors' multiplication tensors placed block-diagonally."""

    kind = "product"

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise EmptyProduct("product ring needs at least one factor")
        self.factors = factors
        f = sum(r.flatten_len for r in factors)
        struct = np.zeros((f, f, f), dtype=np.int64)
        self._offsets = []
        off = 0
        for r in factors:
            self._offsets.append(off)
            block = slice(off, off + r.flatten_len)
            struct[block, block, block] = r.struct
            off += r.flatten_len
        moduli = [m for r in factors for m in r.moduli]
        self._store(moduli, struct, np.concatenate([r.unit_flat for r in factors]))

    def split(self, coords):
        out = []
        for r, off in zip(self.factors, self._offsets):
            out.append(tuple(coords[off : off + r.flatten_len]))
        return out

    def to_config(self):
        return {"kind": "product", "factors": [r.to_config() for r in self.factors]}

    def __repr__(self):
        return f"ProductRing({self.factors!r})"


def make_ring(config):
    """Build a ring from its configuration dict.  Round-trips to_config()."""
    kind = config.get("kind")
    if kind == "zmod":
        return ZMod(config["n"])
    if kind == "gf":
        return GaloisField(config["p"], config["f"])
    if kind == "product":
        return ProductRing([make_ring(c) for c in config["factors"]])
    raise RingError(f"unknown ring kind: {kind!r}")


# ---------------------------------------------------------------------------
# elements


class RingElem:
    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = tuple(int(c) % m for c, m in zip(coords, ring.moduli, strict=True))

    def _check(self, other):
        if self.ring != other.ring:
            raise RingError("elements of different rings")

    def __add__(self, other):
        self._check(other)
        return RingElem(
            self.ring, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check(other)
        return RingElem(
            self.ring, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return RingElem(self.ring, tuple(-a for a in self.coords))

    def __mul__(self, other):
        self._check(other)
        x, y = (np.asarray([e.coords], dtype=np.int64) for e in (self, other))
        return RingElem(self.ring, self.ring.mul_batch(x, y)[0])

    def inv(self):
        """The y with x * y = 1, solved through multiplication-by-x; in a
        finite commutative ring it exists iff x is a unit, and is unique."""
        R = self.ring
        try:
            y, _ = linalg.solve_additive(R.mul_matrix(self.coords), R.unit_flat, R.moduli, R.moduli)
        except linalg.NoSolution:
            raise NotAUnit(f"{list(self.coords)} is not a unit of {R!r}") from None
        return RingElem(R, y)

    def is_unit(self):
        try:
            self.inv()
        except NotAUnit:
            return False
        return True

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, RingElem)
            and self.ring == other.ring
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"RingElem({self.ring!r}, {self.coords})"


# ---------------------------------------------------------------------------
# homomorphisms


def hom_refutation(matrix, source, target):
    """The first condition under which the additive map `matrix` (target by
    source coordinates, residues) fails to be a unital ring hom, or None.

    Source and target are base rings or algebras, both stored as `moduli`,
    `struct`, `unit_flat` and `_N` with a row-wise `mul_batch`.  The
    conditions, in order: well-definedness over the coordinate moduli, the
    unit, and multiplicativity on the coordinate-generator pairs (j, k),
    the first failing pair in row-major order.  The pairs decide
    multiplicativity, since both products are Z-bilinear.
    """
    if not linalg.check_well_defined(matrix, source.moduli, target.moduli):
        return {"condition": "well-defined"}
    moduli, N = target._moduli_arr, max(source._N, target._N)
    unit = linalg.einsum_mod("j,ij->i", source.unit_flat, matrix, moduli=moduli, N=N)
    if not np.array_equal(unit, target.unit_flat):
        return {"condition": "unit"}
    D = len(source.unit_flat)
    images = matrix.T  # row j is the image of the j-th coordinate generator
    lhs = linalg.einsum_mod("aj,ij->ai", source.struct.reshape(D * D, D), matrix, moduli=moduli, N=N)
    rhs = target.mul_batch(np.repeat(images, D, axis=0), np.tile(images, (D, 1)))
    bad = np.flatnonzero((lhs != rhs).any(axis=1))
    if bad.size:
        return {"condition": "multiplicative", "pair": [int(bad[0]) // D, int(bad[0]) % D]}
    return None


# InvalidBaseHom message for each condition `hom_refutation` reports
_REFUTED = {
    "well-defined": "map is not well-defined on the coordinate moduli",
    "unit": "unit is not preserved",
    "multiplicative": "multiplicativity fails on coordinate pair ({}, {})",
}


class BaseRingHom:
    """Unital ring homomorphism between base rings, as an integer matrix on
    flattened coordinates, verified by `hom_refutation`."""

    def __init__(self, source, target, matrix, verify=True):
        self.source = source
        self.target = target
        self.matrix = np.asarray(matrix, dtype=np.int64)
        if self.matrix.shape != (target.flatten_len, source.flatten_len):
            raise InvalidBaseHom("matrix shape does not match the rings")
        self._N = max(source._N, target._N)  # entries and coordinates are below it
        self.matrix = self.matrix % target._moduli_arr[:, None]
        if verify:
            self.verify()

    def apply(self, elem):
        if elem.ring != self.source:
            raise RingError("element not in the source ring")
        coords = np.asarray(elem.coords, dtype=np.int64)
        vec = linalg.einsum_mod("ij,j->i", self.matrix, coords, moduli=self.target._moduli_arr, N=self._N)
        return self.target.element(vec.tolist())

    def verify(self):
        refutation = hom_refutation(self.matrix, self.source, self.target)
        if refutation is not None:
            raise InvalidBaseHom(_REFUTED[refutation["condition"]].format(*refutation.get("pair", ())))
        return self

    @classmethod
    def identity(cls, ring):
        return cls(ring, ring, np.eye(ring.flatten_len, dtype=np.int64))

    def compose(self, inner):
        """self after inner."""
        if inner.target != self.source:
            raise InvalidBaseHom("homs are not composable")
        N = max(self._N, inner._N)
        moduli = self.target._moduli_arr[:, None]
        matrix = linalg.einsum_mod("ij,jk->ik", self.matrix, inner.matrix, moduli=moduli, N=N)
        return BaseRingHom(inner.source, self.target, matrix)


# ---------------------------------------------------------------------------
# maximal ideals and residue fields


class MaxIdeal:
    """Maximal ideal, encoded by ring kind:

    ZMod(n): a prime p | n.  GaloisField: the zero ideal.  Product: a factor
    index plus a maximal ideal of that factor.
    """

    def __init__(self, ring, locator):
        self.ring = ring
        self.locator = locator
        self._validate()

    def _validate(self):
        r = self.ring
        if isinstance(r, ZMod):
            p = self.locator
            if not (_is_prime(p) and r.n % p == 0):
                raise InvalidIdeal(f"{p} is not a prime divisor of {r.n}")
        elif isinstance(r, GaloisField):
            if self.locator != 0:
                raise InvalidIdeal("a field has only the zero ideal")
        elif isinstance(r, ProductRing):
            i, sub = self.locator
            if not (0 <= i < len(r.factors)):
                raise InvalidIdeal("factor index out of range")
            if not isinstance(sub, MaxIdeal) or sub.ring != r.factors[i]:
                raise InvalidIdeal("locator does not reference the factor ring")
        else:
            raise InvalidIdeal(f"unsupported ring kind {r.kind!r}")

    def as_ideal(self):
        r = self.ring
        if isinstance(r, ZMod):
            return RingIdeal(r, self.locator)
        if isinstance(r, GaloisField):
            return RingIdeal(r, "zero")
        i, sub = self.locator
        data = ["unit"] * len(r.factors)
        data[i] = sub.as_ideal().data
        return RingIdeal(r, tuple(data))

    def key(self):
        if isinstance(self.ring, ProductRing):
            return (self.locator[0], self.locator[1].key())
        return self.locator

    def __eq__(self, other):
        return (
            isinstance(other, MaxIdeal)
            and self.ring == other.ring
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"MaxIdeal({self.ring!r}, {self.locator!r})"


def maximal_ideals(ring):
    """Complete duplicate-free list of maximal ideals."""
    if isinstance(ring, ZMod):
        return [MaxIdeal(ring, p) for p, _ in factorize(ring.n)]
    if isinstance(ring, GaloisField):
        return [MaxIdeal(ring, 0)]
    if isinstance(ring, ProductRing):
        out = []
        for i, factor in enumerate(ring.factors):
            for sub in maximal_ideals(factor):
                out.append(MaxIdeal(ring, (i, sub)))
        return out
    raise RingError(f"unsupported ring kind {ring.kind!r}")


def residue_field(ring, m):
    """Residue field at a maximal ideal and the verified projection onto it."""
    if m.ring != ring:
        raise InvalidIdeal("ideal does not belong to the ring")
    if isinstance(ring, ZMod):
        field = ZMod(m.locator)
        return field, BaseRingHom(ring, field, [[1]])
    if isinstance(ring, GaloisField):
        return ring, BaseRingHom.identity(ring)
    if isinstance(ring, ProductRing):
        i, sub = m.locator
        field, proj = residue_field(ring.factors[i], sub)
        return field, BaseRingHom(ring, field, _on_factor(ring, i, proj.matrix))
    raise RingError(f"unsupported ring kind {ring.kind!r}")


def _on_factor(ring, i, matrix):
    """The matrix of a map out of the i-th factor of a product ring, as a
    map out of the whole ring: zero on the other factors' coordinates."""
    out = np.zeros((len(matrix), ring.flatten_len), dtype=np.int64)
    out[:, ring._offsets[i] : ring._offsets[i] + ring.factors[i].flatten_len] = matrix
    return out


def is_reduced(ring):
    """True iff the ring has no nonzero nilpotent elements."""
    if isinstance(ring, ZMod):
        return all(e == 1 for _, e in factorize(ring.n))
    if isinstance(ring, GaloisField):
        return True
    if isinstance(ring, ProductRing):
        return all(is_reduced(r) for r in ring.factors)
    raise RingError(f"unsupported ring kind {ring.kind!r}")


def crt_decompose(ring):
    """Split Z/n into its maximal prime-power factors.

    Returns (product ring, forward hom, backward hom); the two homs are
    mutually inverse ring isomorphisms.
    """
    if not isinstance(ring, ZMod):
        raise RingError("crt_decompose expects a ZMod ring")
    n = ring.n
    moduli = [p**e for p, e in factorize(n)]
    product = ProductRing([ZMod(q) for q in moduli])
    fwd = BaseRingHom(ring, product, np.ones((len(moduli), 1), dtype=np.int64))
    back_row = []
    for q in moduli:
        rest = n // q
        back_row.append(rest * pow(rest, -1, q) % n)
    back = BaseRingHom(product, ring, np.asarray([back_row], dtype=np.int64))
    return product, fwd, back


# ---------------------------------------------------------------------------
# ideals


class RingIdeal:
    """Ideal of a base ring.

    ZMod(n): generated by a divisor d of n (d = n is the zero ideal, d = 1
    the unit ideal).  GaloisField: "zero" or "unit".  Product: a tuple of
    per-factor ideals.
    """

    def __init__(self, ring, data):
        self.ring = ring
        if isinstance(ring, ZMod):
            d = int(data) % ring.n
            d = math.gcd(d, ring.n)
            self.data = d if d else ring.n
        elif isinstance(ring, GaloisField):
            if data not in ("zero", "unit"):
                raise InvalidIdeal("field ideal must be 'zero' or 'unit'")
            self.data = data
        elif isinstance(ring, ProductRing):
            parts = tuple(data)
            if len(parts) != len(ring.factors):
                raise InvalidIdeal("one ideal per factor required")
            self.data = tuple(
                RingIdeal(r, part).data for r, part in zip(ring.factors, parts)
            )
        else:
            raise InvalidIdeal(f"unsupported ring kind {ring.kind!r}")

    def factor_ideals(self):
        return [RingIdeal(r, d) for r, d in zip(self.ring.factors, self.data)]

    @property
    def is_zero(self):
        if isinstance(self.ring, ZMod):
            return self.data == self.ring.n
        if isinstance(self.ring, GaloisField):
            return self.data == "zero"
        return all(i.is_zero for i in self.factor_ideals())

    @property
    def is_unit(self):
        if isinstance(self.ring, ZMod):
            return self.data == 1
        if isinstance(self.ring, GaloisField):
            return self.data == "unit"
        return all(i.is_unit for i in self.factor_ideals())

    def generators(self):
        """Ring elements generating the ideal as a subgroup."""
        r = self.ring
        if isinstance(r, ZMod):
            return [] if self.data == r.n else [r.element((self.data,))]
        if isinstance(r, GaloisField):
            if self.data == "zero":
                return []
            return [r.basis_elem(s) for s in range(r.flatten_len)]
        gens = []
        for i, ideal in enumerate(self.factor_ideals()):
            for g in ideal.generators():
                coords = [0] * r.flatten_len
                off = r._offsets[i]
                for s, c in enumerate(g.coords):
                    coords[off + s] = c
                gens.append(r.element(coords))
        return gens

    def contains(self, elem):
        r = self.ring
        if isinstance(r, ZMod):
            return elem.coords[0] % self.data == 0
        if isinstance(r, GaloisField):
            return self.data == "unit" or elem.is_zero()
        return all(
            ideal.contains(factor.element(part))
            for ideal, factor, part in zip(
                self.factor_ideals(), r.factors, r.split(elem.coords)
            )
        )

    def intersect(self, other):
        if self.ring != other.ring:
            raise InvalidIdeal("ideals of different rings")
        r = self.ring
        if isinstance(r, ZMod):
            return RingIdeal(r, math.lcm(self.data, other.data))
        if isinstance(r, GaloisField):
            both_unit = self.data == "unit" and other.data == "unit"
            return RingIdeal(r, "unit" if both_unit else "zero")
        return RingIdeal(
            r,
            tuple(
                a.intersect(b).data
                for a, b in zip(self.factor_ideals(), other.factor_ideals())
            ),
        )

    def quotient(self):
        """Quotient ring R/I and the verified projection.

        The unit ideal is rejected: the zero ring is not a valid base ring.
        """
        r = self.ring
        if self.is_unit:
            raise InvalidIdeal("quotient by the unit ideal is the zero ring")
        if isinstance(r, ZMod):
            target = ZMod(self.data)
            return target, BaseRingHom(r, target, [[1]])
        if isinstance(r, GaloisField):
            return r, BaseRingHom.identity(r)
        kept = [
            (i, ideal)
            for i, ideal in enumerate(self.factor_ideals())
            if not ideal.is_unit
        ]
        pieces = []
        for i, ideal in kept:
            tgt, proj = ideal.quotient()
            pieces.append((tgt, _on_factor(r, i, proj.matrix)))
        if len(pieces) == 1:
            tgt, mat = pieces[0]
            return tgt, BaseRingHom(r, tgt, mat)
        target = ProductRing([t for t, _ in pieces])
        mat = np.concatenate([m for _, m in pieces], axis=0)
        return target, BaseRingHom(r, target, mat)

    def key(self):
        return (self.ring.to_config().__repr__(), self.data)

    def __eq__(self, other):
        return isinstance(other, RingIdeal) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"RingIdeal({self.ring!r}, {self.data!r})"


def intersect_ideals(ideals):
    return reduce(lambda a, b: a.intersect(b), ideals)

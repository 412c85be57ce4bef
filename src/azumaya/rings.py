"""Finite commutative base rings: Z/n, Galois fields, and finite products.

A ring is stored as its dense integer multiplication tensor `struct` over
its f additive coordinate generators (an algebra keeps only its tensor's
nonzero entries), the coordinates of its unit, and a modulus per
coordinate.  Each kind only fills those arrays once, at construction: Z/n
is [[[1]]], GF(p^k) = F_p[t]/(f) the regular representation read off the
powers of t, and a product ring its factors' tensors placed
block-diagonally.  Everything else is one path over that data: one product
(`mul_batch`), one inverse (solving x*y = 1 through multiplication-by-x),
and one hom check (`hom_refutation`), which algebra homs share: it reads
`_sparse_rows` and `generators` of both alike.

Elements are stored canonically reduced (each flattened coordinate in
[0, modulus)), so equality is plain tuple comparison.  Every ring here is
finite, hence semi-local and Jacobson; every prime ideal is maximal, which
is why ideals and "rank at a prime" are handled through maximal ideals
alone.

An ideal is its additive subgroup of the coordinates, closed under the
multiplication tensor, held as a canonical `linalg.Subgroup`; containment,
equality, intersection, zero and unit are decided on that group for every
kind.  Only the notation an ideal is written in is per kind: an integer d
for (d) in Z/n (canonically the divisor gcd(d, n), n for the zero ideal),
"zero" or "unit" in a field, and one ideal per factor, as a list or tuple,
in a product.  Each kind reads and writes that notation, forms its
quotient rings and lists the notations of its maximal ideals; nothing else
looks at the kind.  A residue field is a quotient that is a field, and a
ring is reduced iff its maximal ideals intersect in zero.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cached_property, lru_cache, reduce

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


# The first twelve primes as Miller-Rabin bases decide primality below
# this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017): for every Z/n modulus and every GF
# characteristic, as both are refused from 2^63 on.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def _is_prime(n):
    """Deterministic Miller-Rabin, refused beyond the proven bound."""
    if n >= _MR_BOUND:
        raise RingError(f"primality is decided only below {_MR_BOUND}, got {n}")
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n):
    """A proper factor of an odd composite n: Pollard's rho in Brent's
    variant (BIT 20, 1980), one gcd per batch of 128 steps, over the maps
    x -> x^2 + c for c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:  # the batch overshot: replay it one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=None)
def factorize(n):
    """Prime factorization of n >= 2 as a sorted tuple of (p, e) pairs.

    Division by the Miller-Rabin bases, then Miller-Rabin and Brent's rho
    on the rest; memoized, since rings, ideals and bijectivity checks ask
    for the same few moduli again and again."""
    counts = Counter()
    for p in _MR_BASES:
        while n % p == 0:
            n //= p
            counts[p] += 1
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _is_prime(m):
            counts[m] += 1
        else:
            d = _rho(m)
            rest += [d, m // d]
    return tuple(sorted(counts.items()))


# ---------------------------------------------------------------------------
# rings


class FiniteCommRing:
    """Base class: a ring stored as its multiplication tensor.

    With b_0, ..., b_(f-1) the additive coordinate generators (b_s of order
    moduli[s]), an element is a vector of integers, coordinate s reduced mod
    moduli[s].  `struct[s, t, u]` holds (b_s * b_t)_u and `unit_flat` the
    coordinates of 1; subclasses fill both once through `_store`.

    Ideals need four small methods of each kind: `_ideal_rows` reads the
    kind's notation into generating coordinate rows (or raises
    InvalidIdeal), `_ideal_data` writes an ideal's group back as notation,
    `_quotient` gives R/I for a proper ideal as the target ring and the
    projection's matrix, and `_maximal_data` lists the notations of the
    maximal ideals.
    """

    kind = None

    def _store(self, moduli, struct, unit):
        self.moduli = tuple(moduli)
        self._moduli_arr = np.asarray(self.moduli, dtype=np.int64)
        self._N = max(self.moduli)  # every coordinate is a residue below it
        self.struct = np.asarray(struct, dtype=np.int64)
        self.unit_flat = np.asarray(unit, dtype=np.int64)

    @cached_property
    def _sparse_rows(self):
        """Nonzero entries of `struct` by first index, for the hom check."""
        return linalg.sparse_rows(self.struct)

    @property
    def flatten_len(self):
        return len(self.moduli)

    @property
    def generators(self):
        """The identity rows, which generate the ring, for the hom check."""
        return np.eye(self.flatten_len, dtype=np.int64)

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

    def mul_batch(self, X, Y):
        """Row-wise products of two (T, f) arrays of coordinate residues."""
        return linalg.einsum_mod("ts,tu,suv->tv", X, Y, self.struct, moduli=self._moduli_arr, N=self._N)

    def mul_matrix(self, coords):
        """Integer matrix of multiplication-by-x on flattened coordinates."""
        x = np.asarray(coords, dtype=np.int64)
        return linalg.einsum_mod("s,stu->ut", x, self.struct, moduli=self._moduli_arr[:, None], N=self._N)

    def to_config(self):
        raise NotImplementedError

    @cached_property
    def _key(self):
        """The ring's identity: its config, written out once."""
        return repr(self.to_config())

    def __eq__(self, other):
        return isinstance(other, FiniteCommRing) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


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

    def _ideal_rows(self, data):
        if not isinstance(data, (int, np.integer)) or isinstance(data, bool):
            raise InvalidIdeal(f"an ideal of Z/{self.n} is an integer d, for (d), got {data!r}")
        return [[int(data) % self.n]]

    def _ideal_data(self, group):
        return math.gcd(self.n, *group.generators()[:, 0].tolist())

    def _quotient(self, ideal):
        return ZMod(ideal.data), [[1]]

    def _maximal_data(self):
        return [p for p, _ in factorize(self.n)]

    def to_config(self):
        return {"kind": "zmod", "n": self.n}

    def __repr__(self):
        return f"ZMod({self.n})"


def _characteristic(p):
    """p as a GF characteristic: a prime below 2^63."""
    p = int(p)
    if p >= 2**63:
        raise RingError(f"characteristic must be below 2^63, got {p}")
    if not _is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    return p


def _regular_tensor(p, f):
    """Multiplication tensor of F_p[t]/(f), f monic of degree k, over the
    coordinate generators 1, t, ..., t^(k-1): b_s b_t = t^(s+t), read off
    the coordinates of t^0, ..., t^(2k-2).  Each power is t times the one
    before, with t^k = -(f_0 + f_1 t + ... + f_(k-1) t^(k-1))."""
    k = len(f) - 1
    rows = [[int(s == e) for s in range(k)] for e in range(k)]
    for _ in range(k - 1):
        prev = rows[-1]
        shifted = [0] + prev[:-1]
        rows.append([(a - prev[-1] * c) % p for a, c in zip(shifted, f[:k])])
    powers = np.asarray(rows, dtype=np.int64)
    return powers[np.add.outer(np.arange(k), np.arange(k))]


def _reducible(p, f, struct):
    """None when the monic f of degree k >= 2 is irreducible over F_p, else
    why not, by Berlekamp's criterion on its regular tensor `struct`.

    Q, the matrix of the Frobenius x -> x^p of F_p[t]/(f), has column i the
    coordinates of (t^i)^p, all k found at once by binary powering of the
    rows t^i (`linalg.power`).  The ring is reduced (f squarefree) iff no
    nonzero x has x^p = 0, that is iff rank Q = k.  A reduced ring is a
    product of r fields, one per irreducible factor of f, and the fixed
    points of the Frobenius are then F_p^r: rank(Q - I) = k - r.  So f is
    irreducible iff rank Q = k and rank(Q - I) = k - 1: two ranks of a
    k x k matrix, whatever the size of p."""
    k = len(f) - 1
    basis = np.eye(k, dtype=np.int64)
    Q = linalg.power(lambda X, Y: linalg.einsum_mod("ts,tu,suv->tv", X, Y, struct, moduli=p, N=p), basis, p).T
    if linalg.rank_mod_p(Q, p) < k:
        return f"{list(f)} has a repeated factor mod {p}"
    factors = k - linalg.rank_mod_p(Q - basis, p)
    if factors > 1:
        return f"{list(f)} has {factors} irreducible factors mod {p}"
    return None


class GaloisField(FiniteCommRing):
    """GF(p^k) presented as F_p[t]/(f) for a monic irreducible f.

    Coefficients are stored low-to-high; f has length k+1 with leading 1.
    The coordinate generators are 1, t, ..., t^(k-1), so b_s * b_t = t^(s+t)
    and the multiplication tensor is the regular representation.  The
    characteristic p is a prime below 2^63 (coordinates are int64
    residues), and f is checked irreducible by Berlekamp's criterion on
    that tensor (`_reducible`).
    """

    kind = "gf"

    def __init__(self, p, f):
        p = _characteristic(p)
        f = tuple(int(c) % p for c in f[:-1]) + (int(f[-1]),)
        if f[-1] != 1:
            raise RingError("defining polynomial must be monic")
        k = len(f) - 1
        if k < 1:
            raise RingError("defining polynomial must have degree >= 1")
        self.p = p
        self.f = f
        self.k = k
        unit = np.zeros(k, dtype=np.int64)
        unit[0] = 1
        self._store((p,) * k, _regular_tensor(p, f), unit)
        reason = _reducible(p, f, self.struct) if k > 1 else None
        if reason:
            raise ReduciblePolynomial(reason)

    @property
    def is_field(self):
        return True

    def _ideal_rows(self, data):
        rows = {"zero": [], "unit": [self.unit_flat]}
        if not isinstance(data, str) or data not in rows:
            raise InvalidIdeal(f"an ideal of a field is 'zero' or 'unit', got {data!r}")
        return rows[data]

    def _ideal_data(self, group):
        return "zero" if group.order == 1 else "unit"

    def _quotient(self, ideal):  # a proper ideal of a field is zero
        return self, np.eye(self.k, dtype=np.int64)

    def _maximal_data(self):
        return ["zero"]

    @classmethod
    def default(cls, p, k):
        """GF(p^k) with the lexicographically smallest irreducible monic f.
        Each candidate is decided before a ring is built for it: a root 0
        or 1 makes it reducible, and Berlekamp's criterion decides the
        rest."""
        p = _characteristic(p)
        if k == 1:
            return cls(p, [0, 1])
        for tail in itertools.product(range(p), repeat=k):
            f = (*tail, 1)
            if tail[0] and sum(f) % p and not _reducible(p, f, _regular_tensor(p, f)):
                return cls(p, f)
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
        ends = np.cumsum([r.flatten_len for r in factors]).tolist()
        self._blocks = [slice(end - r.flatten_len, end) for r, end in zip(factors, ends)]
        f = ends[-1]
        struct = np.zeros((f, f, f), dtype=np.int64)
        for r, block in zip(factors, self._blocks):
            struct[block, block, block] = r.struct
        moduli = [m for r in factors for m in r.moduli]
        self._store(moduli, struct, np.concatenate([r.unit_flat for r in factors]))

    def _parts(self, group):
        """The projections of an ideal's group onto the factors, which are
        the factors' ideals it is the product of."""
        gens = group.generators()
        return [linalg.Subgroup(gens[:, block], r.moduli) for r, block in zip(self.factors, self._blocks)]

    def _ideal_rows(self, data):
        if not isinstance(data, (list, tuple)) or len(data) != len(self.factors):
            raise InvalidIdeal(
                f"an ideal of a product of {len(self.factors)} rings is one ideal per factor, got {data!r}"
            )
        rows = []
        for r, block, part in zip(self.factors, self._blocks, data):
            sub = np.reshape(r._ideal_rows(part), (-1, r.flatten_len))
            rows.append(np.zeros((len(sub), self.flatten_len), dtype=np.int64))
            rows[-1][:, block] = sub
        return np.concatenate(rows)

    def _ideal_data(self, group):
        return tuple(r._ideal_data(sub) for r, sub in zip(self.factors, self._parts(group)))

    def _quotient(self, ideal):
        pieces = []
        for r, block, sub in zip(self.factors, self._blocks, self._parts(ideal.group)):
            part = RingIdeal.from_group(r, sub)
            if not part.is_unit:  # R/I is the product of the nonzero R_i/I_i
                # the composite projection is verified once, by RingIdeal.quotient
                target, piece = r._quotient(part)
                matrix = np.zeros((target.flatten_len, self.flatten_len), dtype=np.int64)
                matrix[:, block] = piece
                pieces.append((target, matrix))
        if len(pieces) == 1:
            return pieces[0]
        return ProductRing([t for t, _ in pieces]), np.concatenate([m for _, m in pieces])

    def _maximal_data(self):
        # the unit ideal of each factor, read back from its whole group
        units = [r._ideal_data(linalg.Subgroup(np.eye(r.flatten_len, dtype=np.int64), r.moduli)) for r in self.factors]
        return [(*units[:i], m, *units[i + 1 :]) for i, r in enumerate(self.factors) for m in r._maximal_data()]

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
    `unit_flat`, `_N`, the nonzero structure constants by first index
    (`_sparse_rows`) and rows that generate them as rings (`generators`).
    The conditions, in order: well-definedness over the coordinate moduli,
    the unit, and multiplicativity, reported at the first failing pair
    (a, b) of coordinate generators in row-major order.

    Multiplicativity is checked on the pairs (s, e_b) of a generator s and
    a coordinate generator e_b (`_first_unmultiplicative`), |S| D products
    rather than D^2.  That is complete.  Let T be the set of x with
    f(x y) = f(x) f(y) for every coordinate generator y; both sides are
    Z-linear in y, so then for every y.  T is an additive subgroup, and it
    holds 1 once the unit is preserved.  For x1, x2 in T,
    f(x1 x2) = f(x1) f(x2), and f((x1 x2) y) = f(x1 (x2 y)) =
    f(x1) f(x2) f(y) = f(x1 x2) f(y), so T is closed under products; this
    step reads associativity of the source and of the target.  So T is a
    subring, and T contains S, which generates the source: T is all of it.
    A refuted scan runs again over the identity rows, which names the first
    failing pair (a, b) a full check would; when the generators already are
    the identity rows, the first scan named it.
    """
    if not linalg.check_well_defined(matrix, source.moduli, target.moduli):
        return {"condition": "well-defined"}
    moduli, N = target._moduli_arr, max(source._N, target._N)
    unit = linalg.einsum_mod("j,ij->i", source.unit_flat, matrix, moduli=moduli, N=N)
    if not np.array_equal(unit, target.unit_flat):
        return {"condition": "unit"}
    pair = _first_unmultiplicative(matrix, source.generators, source, target, N)
    if pair is None:
        return None
    eye = np.eye(matrix.shape[1], dtype=np.int64)
    if not np.array_equal(source.generators, eye):
        pair = _first_unmultiplicative(matrix, eye, source, target, N)
    return {"condition": "multiplicative", "pair": pair}


def _first_unmultiplicative(matrix, rows, source, target, N):
    """The first pair [t, b] in row-major order with f(x_t e_b) !=
    f(x_t) f(e_b), for the rows x_t of `rows` and the coordinate generators
    e_b of the source, or None.

    For H the matrix, both sides are summed into [t, b, m] over the terms
    of one join each (`_products`): f(x_t e_b) = sum c H[:, k] over the
    terms c e_k of x_t e_b, and f(x_t) f(e_b) = sum_j H[j, b] f(x_t) e'_j =
    sum c H[j, b] e'_m over the terms c e'_m of f(x_t) e'_j.  An entry sums
    at most D^2 + T^2 products of two residues.  Rows go in blocks of at
    most 2^16 entries (or one row), up to the first block that fails."""
    T, D = matrix.shape
    moduli, dtype = target._moduli_arr, linalg._dtype(N, D * D + T * T, 2)
    X = linalg.matmul_mod(rows, matrix.T, moduli=moduli, N=N)  # f(x_t)
    H, rows, X = (a.astype(dtype, copy=False) for a in (matrix, rows, X))
    step, budget = max(1, (1 << 16) // (D * T)), max(1, (1 << 16) // max(D, T))
    for t0 in range(0, len(rows), step):
        acc = np.zeros((min(step, len(rows) - t0), D, T), dtype=dtype)
        for t, b, k, c in _products(rows[t0 : t0 + step], source, budget):
            np.add.at(acc, (t, b), c[:, None] * H.T[k])
        for t, j, m, c in _products(X[t0 : t0 + step], target, budget):
            np.subtract.at(acc, (t, slice(None), m), c[:, None] * H[j])
        bad = (acc % moduli).ravel().nonzero()[0]
        if bad.size:
            return [t0 + int(bad[0]) // (D * T), int(bad[0]) // T % D]
    return None


def _products(Y, ring, budget):
    """The terms c e_k, c = Y[t, i] S[i, j, k] mod the modulus of k, of the
    products of the rows of Y with the e_j, as (t, j, k, c) in chunks of at
    most `budget`: Y's nonzeros (t, i) joined with the ring's entries."""
    (_, J, K), V, ptr = ring._sparse_rows
    t, i = Y.nonzero()
    for x, e in linalg.sparse_join(i, ptr, 0, len(i), budget):
        k = K[e]
        yield t[x], J[e], k, Y[t[x], i[x]] * V[e] % ring._moduli_arr[k]


# InvalidBaseHom message for each condition `hom_refutation` reports
_REFUTED = {
    "well-defined": "map is not well-defined on the coordinate moduli",
    "unit": "unit is not preserved",
    "multiplicative": "multiplicativity fails on coordinate pair ({}, {})",
}


class BaseRingHom:
    """Unital ring homomorphism between base rings, as an integer matrix on
    flattened coordinates, verified by `hom_refutation`."""

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = np.asarray(matrix, dtype=np.int64)
        if self.matrix.shape != (target.flatten_len, source.flatten_len):
            raise InvalidBaseHom("matrix shape does not match the rings")
        self._N = max(source._N, target._N)  # entries and coordinates are below it
        self.matrix = self.matrix % target._moduli_arr[:, None]
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


# ---------------------------------------------------------------------------
# ideals


def _ideal_span(ring, rows):
    """The ideal generated by coordinate rows: the additive subgroup
    spanned by every row times every coordinate generator (1 is a sum of
    those, so it holds the rows themselves)."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, ring.flatten_len)
    products = linalg.einsum_mod("gs,stu->gtu", rows, ring.struct, moduli=ring._moduli_arr, N=ring._N)
    return linalg.Subgroup(products.reshape(-1, ring.flatten_len), ring.moduli)


class RingIdeal:
    """Ideal of a base ring, stored as its additive subgroup of the ring's
    coordinates (`group`, canonical: equal ideals have equal groups).

    It is built from its notation `data`, which depends on the ring's kind
    (see the module docstring), or from any additive subgroup by
    `from_group`; `data` reads the notation back from the group.
    """

    def __init__(self, ring, data):
        self.ring = ring
        self.group = _ideal_span(ring, ring._ideal_rows(data))

    @classmethod
    def from_group(cls, ring, group):
        """The ideal generated by an additive subgroup of the ring's coordinates."""
        ideal = cls.__new__(cls)
        ideal.ring, ideal.group = ring, _ideal_span(ring, group.generators())
        return ideal

    @cached_property
    def data(self):
        return self.ring._ideal_data(self.group)

    @property
    def is_zero(self):
        return self.group.order == 1

    @property
    def is_unit(self):
        return self.group.contains(self.ring.unit_flat)

    def contains(self, elem):
        return self.group.contains(elem.coords)

    def generators(self):
        """Ring elements generating the ideal as a subgroup."""
        return [self.ring.element(g) for g in self.group.generators().tolist()]

    def intersect(self, other):
        if self.ring != other.ring:
            raise InvalidIdeal("ideals of different rings")
        return RingIdeal.from_group(self.ring, self.group.intersection(other.group))

    def quotient(self):
        """Quotient ring R/I and the verified projection.

        The unit ideal is rejected: the zero ring is not a valid base ring.
        """
        if self.is_unit:
            raise InvalidIdeal("quotient by the unit ideal is the zero ring")
        target, matrix = self.ring._quotient(self)
        return target, BaseRingHom(self.ring, target, matrix)

    def __eq__(self, other):
        return isinstance(other, RingIdeal) and self.ring == other.ring and self.group == other.group

    def __hash__(self):
        return hash(self.group)

    def __repr__(self):
        return f"RingIdeal({self.ring!r}, {self.data!r})"


def intersect_ideals(ideals):
    return reduce(lambda a, b: a.intersect(b), ideals)


def maximal_ideals(ring):
    """Complete duplicate-free list of maximal ideals."""
    return [RingIdeal(ring, data) for data in ring._maximal_data()]


def residue_field(ring, m):
    """Residue field at a maximal ideal and the verified projection onto it."""
    if m.ring != ring:
        raise InvalidIdeal("ideal does not belong to the ring")
    field, proj = m.quotient()
    if not field.is_field:
        raise InvalidIdeal(f"{m.data!r} is not a maximal ideal of {ring!r}")
    return field, proj


@lru_cache(maxsize=None)
def is_reduced(ring):
    """True iff the ring has no nonzero nilpotent elements: in a finite
    ring the nilradical is the Jacobson radical, the intersection of the
    maximal ideals.  Memoized, as `_azumaya_preconditions` asks per hom."""
    return intersect_ideals(maximal_ideals(ring)).is_zero


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

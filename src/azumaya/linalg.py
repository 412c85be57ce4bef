"""Exact linear algebra over Z/N and over finite abelian groups.

The canonical row form used throughout is the Howell normal form: unlike a
plain echelon form it is saturated, so two matrices over Z/N have the same
row span iff their Howell forms are identical, and span membership can be
decided by successive leading-coefficient division.  Mixed moduli are
handled by scaling every coordinate into Z/L for L the lcm of the moduli;
the scaling x_j -> (L/N_j) x_j embeds prod Z/N_j into (Z/L)^n as a group.
"""

from __future__ import annotations

import math

import numpy as np

from .rings import factorize


class LinalgError(Exception):
    pass


class NoSolution(LinalgError):
    pass


class IllFormedMap(LinalgError):
    pass


def _xgcd(a, b):
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _unit_lift(a, N):
    """A unit u mod N with u*a = gcd(a, N) mod N."""
    g = math.gcd(a, N)
    b = a // g
    step = N // g
    while math.gcd(b, N) != 1:
        b += step
    return pow(b, -1, N)


def howell(mat, N):
    """Howell normal form of the rows of `mat` over Z/N.

    Returns an array with zero rows pruned, rows ordered by pivot column,
    each pivot the gcd-normalized leading entry, and entries above a pivot
    reduced below it.  The row span (including the multiples contributed by
    zero divisors, via annihilator rows) is preserved exactly.
    """
    A = np.asarray(mat, dtype=np.int64) % N
    if A.ndim != 2:
        raise LinalgError("expected a 2d array")
    ncols = A.shape[1]
    rows = [r for r in A if r.any()]
    pivots = []
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(rows)) if rows[i][c]]
            if not nz:
                break
            # pick the entry with the smallest gcd with N as pivot candidate
            i0 = min(nz, key=lambda i: math.gcd(int(rows[i][c]), N))
            rows[r], rows[i0] = rows[i0], rows[r]
            a = int(rows[r][c])
            g = math.gcd(a, N)
            rows[r] = rows[r] * _unit_lift(a, N) % N
            # eliminate every lower row whose entry is a multiple of g
            stubborn = []
            for i in range(r + 1, len(rows)):
                e = int(rows[i][c])
                if e == 0:
                    continue
                if e % g == 0:
                    rows[i] = (rows[i] - (e // g) * rows[r]) % N
                else:
                    stubborn.append(i)
            if not stubborn:
                break
            # fold one stubborn row into the pivot row to shrink the gcd
            i = stubborn[0]
            b = int(rows[i][c])
            _, s, t = _xgcd(g, b)
            combined = (s * rows[r] + t * rows[i]) % N
            rows[i] = ((-(b // math.gcd(g, b))) * rows[r] + (g // math.gcd(g, b)) * rows[i]) % N
            rows[r] = combined
        if r < len(rows) and rows[r][c]:
            g = int(rows[r][c])
            # annihilator row keeps the span saturated over zero divisors
            q = N // g
            ann = rows[r] * q % N
            if ann.any():
                rows.append(ann)
            for i in range(r):
                e = int(rows[i][c])
                if e >= g:
                    rows[i] = (rows[i] - (e // g) * rows[r]) % N
            pivots.append(c)
            r += 1
    rows = rows[:r]
    if not rows:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.vstack(rows)


def rank_mod_p(mat, p):
    """Rank mod a prime by forward elimination, one modular inverse per
    pivot.

    Row updates form products of two residues, below (p-1)^2; that fits
    int64 only while (p-1)^2 < 2^63 (p <= 3,037,000,499), so larger primes
    eliminate over exact Python ints (object arrays)."""
    dtype = np.int64 if (p - 1) ** 2 < 2**63 else object
    A = np.asarray(mat, dtype=dtype) % p
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        below = A[r + 1 :, c]
        sel = np.nonzero(below)[0]
        if sel.size:
            A[r + 1 + sel] = (A[r + 1 + sel] - np.outer(below[sel], A[r])) % p
        r += 1
    return r


def kernel_mod(A, N):
    """Generators of the right kernel {x : A x = 0} over Z/N, as rows."""
    A = np.asarray(A, dtype=np.int64) % N
    m, n = A.shape
    aug = np.concatenate([A.T, np.eye(n, dtype=np.int64)], axis=1)
    H = howell(aug, N)
    mask = ~H[:, :m].any(axis=1) if H.size else np.zeros(0, dtype=bool)
    return H[mask, m:] if H.size else np.zeros((0, n), dtype=np.int64)


def solve_mod(A, b, N):
    """One solution of A x = b over Z/N, or raise NoSolution."""
    A = np.asarray(A, dtype=np.int64) % N
    b = np.asarray(b, dtype=np.int64) % N
    m, n = A.shape
    aug = np.concatenate([A.T, np.eye(n, dtype=np.int64)], axis=1)
    H = howell(aug, N)
    rem = b.copy()
    x = np.zeros(n, dtype=np.int64)
    for row in H:
        left = row[:m]
        nz = np.nonzero(left)[0]
        if nz.size == 0:
            continue
        c = int(nz[0])
        g = int(left[c])
        if rem[c] % g:
            continue
        t = int(rem[c]) // g
        rem = (rem - t * left) % N
        x = (x + t * row[m:]) % N
    if rem.any():
        raise NoSolution("right-hand side is not in the column span")
    return x


class Subgroup:
    """Subgroup of prod_j Z/N_j, canonically represented.

    Internally the group is embedded into (Z/L)^n by scaling coordinate j
    with L/N_j and stored as the Howell form of the embedded generators, so
    equality of subgroups is equality of arrays.
    """

    def __init__(self, gens, moduli):
        self.moduli = tuple(int(m) for m in moduli)
        self.L = math.lcm(*self.moduli) if self.moduli else 1
        n = len(self.moduli)
        scale = np.asarray([self.L // m for m in self.moduli], dtype=np.int64)
        gens = np.asarray(gens, dtype=np.int64).reshape(-1, n)
        base = np.diag(np.asarray(self.moduli, dtype=np.int64)) * scale[None, :]
        embedded = np.concatenate([gens * scale[None, :], base], axis=0)
        H = howell(embedded, self.L)
        # drop the rows that only express the ambient moduli relations:
        # those are exactly the rows equal to N_j * (L/N_j) e_j = L e_j = 0
        # after reduction, so no filtering beyond howell() is needed; but the
        # diagonal rows N_j e_j (embedded: L e_j = 0 mod L) vanish already.
        self.H = H
        self._scale = scale

    @property
    def order(self):
        if self.H.shape[0] == 0:
            return 1
        total = 1
        for row in self.H:
            g = int(row[np.nonzero(row)[0][0]])
            total *= self.L // g
        return total

    def contains(self, vec):
        v = (np.asarray(vec, dtype=np.int64) % np.asarray(self.moduli)) * self._scale
        v = v % self.L
        for row in self.H:
            nz = np.nonzero(row)[0]
            c = int(nz[0])
            g = int(row[c])
            if v[c] % g == 0:
                v = (v - (int(v[c]) // g) * row) % self.L
        return not v.any()

    def generators(self):
        """Generators back in natural (unscaled) coordinates, as rows."""
        if self.H.shape[0] == 0:
            return np.zeros((0, len(self.moduli)), dtype=np.int64)
        return (self.H // self._scale[None, :]) % np.asarray(self.moduli)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.moduli == other.moduli
            and self.H.shape == other.H.shape
            and bool(np.all(self.H == other.H))
        )

    def __hash__(self):
        return hash((self.moduli, self.H.tobytes()))

    def __le__(self, other):
        if self.moduli != other.moduli:
            raise LinalgError("subgroups of different ambient groups")
        return all(other.contains(g) for g in self.generators())

    def intersection(self, other):
        """Intersection, via the kernel of (x, y) -> x G1 - y G2."""
        if self.moduli != other.moduli:
            raise LinalgError("subgroups of different ambient groups")
        G1 = self.generators()
        G2 = other.generators()
        if G1.shape[0] == 0 or G2.shape[0] == 0:
            return Subgroup(np.zeros((0, len(self.moduli))), self.moduli)
        stacked = np.concatenate([G1, -G2], axis=0)  # (r1+r2, n)
        scale = self._scale
        A = (stacked * scale[None, :]).T % self.L  # columns are combos
        ker = kernel_mod(A, self.L)
        combos = ker[:, : G1.shape[0]] if ker.size else np.zeros((0, G1.shape[0]), dtype=np.int64)
        vecs = combos @ G1 if combos.size else np.zeros((0, len(self.moduli)), dtype=np.int64)
        return Subgroup(vecs, self.moduli)

    def __repr__(self):
        return f"Subgroup(order={self.order}, moduli={self.moduli})"


def check_well_defined(H, src_moduli, tgt_moduli):
    H = np.asarray(H, dtype=np.int64)
    src = np.asarray(src_moduli, dtype=np.int64)
    tgt = np.asarray(tgt_moduli, dtype=np.int64)
    if H.shape != (len(tgt), len(src)):
        raise IllFormedMap("matrix shape does not match the moduli vectors")
    return not np.any((H * src[None, :]) % tgt[:, None])


def kernel_additive(H, src_moduli, tgt_moduli):
    """Kernel of the additive map prod Z/N_j -> prod Z/M_i given by H.

    Requires the map to be well-defined (N_j H[i][j] = 0 mod M_i); raises
    IllFormedMap otherwise.  Returns the kernel as a Subgroup.
    """
    if not check_well_defined(H, src_moduli, tgt_moduli):
        raise IllFormedMap("N_j * H[i][j] != 0 mod M_i for some entry")
    H = np.asarray(H, dtype=np.int64)
    src = tuple(int(m) for m in src_moduli)
    tgt = tuple(int(m) for m in tgt_moduli)
    L = math.lcm(*src, *tgt)
    scaled = H * np.asarray([L // m for m in tgt], dtype=np.int64)[:, None] % L
    gens = kernel_mod(scaled, L)
    return Subgroup(gens, src)


def is_bijective_additive(H, src_moduli, tgt_moduli):
    """Decide bijectivity of a well-defined map of finite abelian groups.

    The group orders must match for bijectivity.  When every modulus is the
    same N the map is a square matrix over Z/N, invertible iff its
    determinant is a unit, i.e. iff it has full rank mod every prime p | N.
    Mixed moduli fall back to the Howell kernel: injective suffices.
    """
    if not check_well_defined(H, src_moduli, tgt_moduli):
        raise IllFormedMap("N_j * H[i][j] != 0 mod M_i for some entry")
    if math.prod(src_moduli) != math.prod(tgt_moduli):
        return False
    moduli = set(int(m) for m in src_moduli) | set(int(m) for m in tgt_moduli)
    if len(moduli) == 1:
        N = moduli.pop()
        return all(rank_mod_p(H, p) == len(src_moduli) for p, _ in factorize(N))
    ker = kernel_additive(H, src_moduli, tgt_moduli)
    return ker.order == 1


def solve_additive(H, b, src_moduli, tgt_moduli):
    """One solution x of H x = b over the coordinate moduli, plus the kernel.

    Raises NoSolution when b is not in the image.
    """
    if not check_well_defined(H, src_moduli, tgt_moduli):
        raise IllFormedMap("map is not well-defined")
    H = np.asarray(H, dtype=np.int64)
    src = tuple(int(m) for m in src_moduli)
    tgt = tuple(int(m) for m in tgt_moduli)
    L = math.lcm(*src, *tgt)
    tscale = np.asarray([L // m for m in tgt], dtype=np.int64)
    scaled = H * tscale[:, None] % L
    bs = np.asarray(b, dtype=np.int64) * tscale % L
    x = solve_mod(scaled, bs, L) % np.asarray(src, dtype=np.int64)
    return x, kernel_additive(H, src, tgt)

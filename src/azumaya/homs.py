"""Ring homomorphisms between algebras, possibly over different base rings.

A hom is stored purely additively: an integer matrix on the flattened
coordinates of source and target.  That single representation covers
base-changing maps (e.g. reduction of matrix entries) uniformly.
Verification is the one hom check base-ring homs use too
(`rings.hom_refutation`): it checks well-definedness over the coordinate
moduli, unit preservation, and multiplicativity on the pairs (s, e_b) of a
generator s of the source as a ring (`Algebra.generators`) and a
coordinate generator e_b; by Z-bilinearity of both products and
associativity this implies full multiplicativity, so the check is
complete; each side is a sparse join with a structure tensor.  A refuted
hom names the first failing pair of coordinate generators, from a scan
over all of them.  All homs here are unital by definition: a non-unital
map is refuted, never accepted.  A hom is checked once, when it is made,
so every `AlgebraHom` is verified or refuted.  Its matrix is read-only, and
its image order comes from one forward pass over it, memoized: bijectivity
and the isomorphism routes all read that order.  A verified bijective hom
onto M_n(R') from an algebra of the same rank n^2 is itself a certificate
that its source is Azumaya (`_azumaya_preconditions`), so no splitting is
searched for that source.

Lemma 3.2 (no element of M_n'(k) has nilpotency index above n') is decided
on the Jordan types: every nilpotent of M_n'(k) is similar to exactly one
J_lambda, lambda a partition of n', and similarity and isomorphisms keep
the index, so `jordan_obstruction_probe` pulls the p(n') matrices J_lambda
back through the isomorphism matrix of `algebras.splitting` (the identity
when A' equals M_n'(k)), all from one elimination of it, and reads their
indices.  Nothing is drawn.

Theorem 4.1's conclusion holds over every finite base, reduced or not.  An
Azumaya source A of rank n^2 over a finite commutative ring is M_n(R) (the
paper's Theorem 2.8 plus Wedderburn).  A unital ring hom f: A -> B, with B
Azumaya of rank n^2 over R', sends the matrix units E_ij to a full set of
n x n matrix units of B, so B = M_n(C) for C their centralizer.  Z(B) lies
in C, and |C|^(n^2) = |B| = |R'|^(n^2) = |Z(B)|^(n^2), so C = Z(B).  f(Z(A))
commutes with every f(E_ij), so it lies in Z(B).  Under the theorem's
preconditions `center_preservation_check` can therefore fail only through
a bug, and there is no counterexample to search for.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .algebras import (
    AlgElem,
    _square_root,
    base_change,
    center,
    commutant,
    commutator_matrix,
    is_azumaya,
    jordan_flat,
    matrix_algebra,
    nilpotency_indices,
    quotient_algebra,
    splitting,
)
from .reports import CONTRADICTS, FAIL, PASS, CheckReport
from .rings import RingIdeal, ZMod, hom_refutation, is_reduced

VERIFIED = "verified"
REFUTED = "refuted"


class HomError(Exception):
    pass


class DimensionMismatch(HomError):
    pass


class ComposabilityMismatch(HomError):
    pass


class NotInvertible(HomError):
    pass


class VerificationFailed(HomError):
    pass


class PreconditionUnmet(HomError):
    pass


class AlgebraHom:
    """Additive map between the flattened modules of two algebras, verified
    when it is made: its status is verified, or refuted with a witness."""

    def __init__(self, source, target, matrix, label=""):
        self.source = source
        self.target = target
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.shape != (target.dim, source.dim):
            raise DimensionMismatch(
                f"expected {(target.dim, source.dim)}, got {matrix.shape}"
            )
        self.matrix = matrix % target._moduli_arr[:, None]
        self.matrix.setflags(write=False)  # `image_order` is memoized on it
        self._N = max(source._N, target._N)  # every entry is a residue below it
        self.label = label
        self.verify()

    def apply(self, elem):
        if elem.algebra != self.source:
            raise HomError("element not in the source algebra")
        return AlgElem(self.target, self.apply_flat(elem.flat))

    def apply_flat(self, flat):
        """Images of flat source coordinates (residues); rows of a
        (..., dim) array map one by one."""
        flat, moduli = np.asarray(flat, dtype=np.int64), self.target._moduli_arr
        return linalg.einsum_mod("...j,ij->...i", flat, self.matrix, moduli=moduli, N=self._N)

    def verify(self):
        """Decide verified/refuted by the one hom check
        (`rings.hom_refutation`), on the source's generators times its
        coordinate generators; returns self.  A refutation carries the first
        failing condition: well-definedness, the unit, or the first pair
        (j, k) of coordinate generators on which f is not multiplicative.
        The constructor calls it, once."""
        self.refutation = hom_refutation(self.matrix, self.source, self.target)
        self.status = REFUTED if self.refutation else VERIFIED
        return self

    @property
    def is_verified(self):
        return self.status == VERIFIED

    def require_verified(self):
        if self.status != VERIFIED:
            raise PreconditionUnmet(f"hom is not verified: {self.refutation}")

    @cached_property
    def image_order(self):
        """|f(source)|, from one forward pass over the matrix
        (`linalg.image_order`)."""
        return linalg.image_order(self.matrix, self.source.moduli, self.target.moduli)

    def is_bijective(self):
        return self.source.size == self.target.size == self.image_order

    def kernel_subgroup(self):
        return linalg.kernel_additive(self.matrix, self.source.moduli, self.target.moduli)

    def fixes_base(self):
        """True when the restriction to R*1 is the identity (needs source =
        target for the comparison to make sense)."""
        if self.source != self.target:
            return False
        V = self.source.scalars_flat()
        return np.array_equal(self.apply_flat(V), V)

    def __repr__(self):
        name = self.label or "hom"
        return f"<{name}: {self.source!r} -> {self.target!r} [{self.status}]>"


def compose(g, f):
    """g after f."""
    if f.target != g.source:
        raise ComposabilityMismatch("inner target differs from outer source")
    moduli = g.target._moduli_arr[:, None]
    matrix = linalg.einsum_mod("ij,jk->ik", g.matrix, f.matrix, moduli=moduli, N=max(g._N, f._N))
    return AlgebraHom(f.source, g.target, matrix, label=f"{g.label}.{f.label}")


# ---------------------------------------------------------------------------
# constructors


def _verified(source, target, matrix, label, failure):
    """The verified hom of `matrix`; a refuted one raises VerificationFailed
    with the message `failure` and the refutation."""
    hom = AlgebraHom(source, target, matrix, label=label)
    if hom.status != VERIFIED:
        raise VerificationFailed(f"{failure}: {hom.refutation}")
    return hom


def conjugation_auto(A, u):
    """x -> u x u^{-1} for a unit u; verified automorphism fixing the base."""
    u_flat = u.flat if isinstance(u, AlgElem) else np.asarray(u, dtype=np.int64)
    L = A.mul_matrices(u_flat[None], "left")[0]
    if not linalg.is_bijective_additive(L, A.moduli, A.moduli):
        raise NotInvertible("left multiplication by u is not bijective")
    u_inv, _ = linalg.solve_additive(L, A.unit_flat, A.moduli, A.moduli)
    # x -> u x, then y -> y u^{-1}
    R = A.mul_matrices(u_inv[None], "right")[0]
    H = linalg.einsum_mod("ij,jk->ik", R, L, moduli=A._moduli_arr[:, None], N=A._N)
    return _verified(A, A, H, "conj", "conjugation failed verification")


def _blockwise(A, ring_hom):
    """Matrix of A -> A (x)_R S on flattened coordinates: the ring-hom matrix
    on each of the rank-many coordinate blocks."""
    return np.kron(np.eye(A.rank, dtype=np.int64), ring_hom.matrix)


def reduction_hom(A, ideal):
    """Canonical surjection A -> A/IA, entries reduced through R -> R/I."""
    Q, proj = quotient_algebra(A, ideal)
    return _verified(A, Q, _blockwise(A, proj), f"mod {ideal.data!r}", "reduction failed verification")


def base_change_hom(A, ring_hom):
    """A -> A (x)_R S along a base-ring hom, identity on the basis."""
    Q = base_change(A, ring_hom)
    return _verified(A, Q, _blockwise(A, ring_hom), "base-change", "base change failed verification")


def diagonal_embed(ring, m, k):
    """M_m(R) -> M_{km}(R), x -> diag(x, ..., x); verified unital injection."""
    if k < 1:
        raise HomError("block count must be >= 1")
    src = matrix_algebra(ring, m)
    tgt = matrix_algebra(ring, k * m)
    f = ring.flatten_len
    n = k * m
    H = np.zeros((tgt.dim, src.dim), dtype=np.int64)
    eye_f = np.eye(f, dtype=np.int64)
    for i in range(m):
        for j in range(m):
            src_slot = i * m + j
            for t in range(k):
                tgt_slot = (t * m + i) * n + (t * m + j)
                H[tgt_slot * f : (tgt_slot + 1) * f, src_slot * f : (src_slot + 1) * f] = eye_f
    return _verified(src, tgt, H, f"diag x{k}", "diagonal embedding failed")


def weyl_splitting(p, a, b):
    """Explicit isomorphism W(p, a, b) -> M_p(F_p): x acts as multiplication
    by (t + a) on F_p[t]/(t^p), y as d/dt + b.

    The relations hold because (t + a)^p = a and (d/dt + b)^p = b in
    characteristic p; everything is re-verified computationally.  W is
    the checked, memoized build of `weyl_quotient`, whose generators x and
    y it proves, so the hom check runs on them.
    """
    from .algebras import weyl_quotient

    ring = ZMod(p)
    a %= p
    b %= p
    W = weyl_quotient(p, a, b)
    M = matrix_algebra(ring, p)
    # on the basis 1, t, ..., t^(p-1)
    I = np.eye(p, dtype=np.int64)
    X = a * I + np.eye(p, k=-1, dtype=np.int64)
    Y = b * I + np.diag(np.arange(1, p, dtype=np.int64), k=1)
    # X^i and Y^j by reduced iterated products, then x^i y^j -> X^i Y^j
    Xs, Ys = [I], [I]
    for _ in range(p - 1):
        Xs.append(linalg.einsum_mod("ij,jk->ik", Xs[-1], X, moduli=p, N=p))
        Ys.append(linalg.einsum_mod("ij,jk->ik", Ys[-1], Y, moduli=p, N=p))
    images = linalg.einsum_mod("iab,jbc->ijac", np.stack(Xs), np.stack(Ys), moduli=p, N=p)
    H = images.reshape(W.dim, M.dim).T
    hom = _verified(W, M, H, f"split W({p},{a},{b})", "splitting failed verification")
    if not hom.is_bijective():
        raise VerificationFailed("splitting is not bijective")
    return hom


# ---------------------------------------------------------------------------
# kernels and ideals


def kernel_ideal(f):
    """Contract ker(f) to a base ideal I and check ker = I*A exactly."""
    from .algebras import expand_ideal

    f.require_verified()
    A = f.source
    base = A.base
    ker = f.kernel_subgroup()
    # restrict f to R*1 to contract the kernel to the base ring
    rker = linalg.kernel_additive(f.apply_flat(A.scalars_flat()).T, base.moduli, f.target.moduli)
    ideal = RingIdeal.from_group(base, rker)
    ok = expand_ideal(A, ideal) == ker
    report = CheckReport(
        check="kernel_ideal",
        status=PASS if ok else FAIL,
        witness=None if ok else {"kernel_order": ker.order, "ideal": repr(ideal.data)},
        details={"ideal": repr(ideal.data)},
    )
    return ideal, report


# ---------------------------------------------------------------------------
# theorem checks


@lru_cache(maxsize=256)
def _azumaya_ok(A):
    return is_azumaya(A).status == PASS


def _azumaya_preconditions(f):
    """Every Algebra is free, so its rank is constant: `A.rank`.

    The source A, of rank d over R, is Azumaya without a search when f is a
    certificate for it: f is verified and bijective, its target equals
    M_n(R') for n^2 = d' its rank, and d = d'.  Then
    |R|^(n^2) = |A| = |R'|^(n^2), so |R| = |R'|.  R*1 lies in Z(A), which
    f maps onto Z(M_n(R')) = R'*1, and R*1 has |R| = |R'| elements because
    A is free, so R*1 = Z(A) and f restricts to a ring isomorphism
    psi: R -> R'.  So M_n(psi^-1) o f is an R-algebra isomorphism
    A -> M_n(R), and A is Azumaya.  The equal ranks are needed: GF(16) as
    a rank-4 algebra over F_2, with the identity onto M_1(GF(16)), is
    verified, bijective and of square rank, but not Azumaya over F_2.
    Otherwise `is_azumaya` decides, memoized per algebra."""
    n = _square_root(f.target.rank)
    certified = (
        f.is_verified
        and n is not None
        and f.source.rank == f.target.rank
        and f.target == matrix_algebra(f.target.base, n)
        and f.is_bijective()
    )
    return {
        "hom_verified": f.is_verified,
        "source_azumaya": certified or _azumaya_ok(f.source),
        "target_azumaya": _azumaya_ok(f.target),
        "source_constant_rank": f.source.rank,
        "target_constant_rank": f.target.rank,
        "target_base_reduced": is_reduced(f.target.base),
    }


def center_preservation_check(f):
    """Images of source-center generators must commute with the whole target.

    The theorem preconditions (verified hom, both sides Azumaya of equal
    constant rank, reduced target base) are evaluated and reported; the
    commutator check itself runs regardless.  A failure with all
    preconditions met is flagged contradicts-theorem.
    """
    pre = _azumaya_preconditions(f)
    pre_met = (
        pre["hom_verified"]
        and pre["source_azumaya"]
        and pre["target_azumaya"]
        and pre["source_constant_rank"] == pre["target_constant_rank"]
        and pre["target_base_reduced"]
    )
    gens = center(f.source).generators()
    images = f.apply_flat(gens)
    # comm[t, :, alpha] is images[t] * eps_alpha - eps_alpha * images[t]
    comm = commutator_matrix(f.target, images).reshape(len(images), f.target.dim, -1)
    bad = np.argwhere(comm.any(axis=1))  # first generator, then lowest alpha
    if not bad.size:
        return CheckReport(check="center_preservation", status=PASS, preconditions=pre)
    t, alpha = (int(k) for k in bad[0])
    return CheckReport(
        check="center_preservation",
        status=CONTRADICTS if pre_met else FAIL,
        witness={
            "center_generator": gens[t].tolist(),
            "image": images[t].tolist(),
            "noncommuting_coordinate": alpha,
            "commutator": comm[t, :, alpha].tolist(),
        },
        preconditions=pre,
    )


def rank_comparison_check(f):
    """rank(source) <= rank(target) for verified homs of Azumaya algebras."""
    f.require_verified()
    pre = _azumaya_preconditions(f)
    if not (pre["source_azumaya"] and pre["target_azumaya"]):
        raise PreconditionUnmet("both algebras must be Azumaya-verified")
    r_src, r_tgt = pre["source_constant_rank"], pre["target_constant_rank"]
    if r_src <= r_tgt:
        return CheckReport(
            check="rank_comparison",
            status=PASS,
            preconditions=pre,
            details={"source_rank": r_src, "target_rank": r_tgt},
        )
    return CheckReport(
        check="rank_comparison",
        status=CONTRADICTS,
        witness={"source_rank": r_src, "target_rank": r_tgt},
        preconditions=pre,
    )


def _partitions(n, top=None):
    """The partitions of n into parts of at most `top` (default n), each a
    tuple with its largest part first, in decreasing lexicographic order."""
    top = n if top is None else top
    if n == 0:
        yield ()
        return
    for part in range(min(n, top), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def jordan_obstruction_probe(n, Aprime, samples=None, seed=None):
    """Lemma 3.2: no element of A' = M_{n'}(k) has nilpotency index above
    n', so none has index n > n'.  Decided on the p(n') Jordan types (see
    the module docstring), pulled back together, by one block solve
    (`linalg.solve_additive`), through the matrix of phi: A' -> M_{n'}(k)
    from `algebras.splitting`, the identity when A' equals M_{n'}(k);
    nothing is drawn, and `samples` and `seed` are not
    read.  Refused, in this order, when the rank is not a square, when
    the base is not a field, where the bound fails (in M_2(Z/12),
    [[6, 10], [3, 6]] has index 4), and, for n > 1, when there is no
    splitting: the lemma's hypothesis is A' = M_{n'}(k).  A fail names the
    pulled-back element, its index and lambda."""
    nprime = _square_root(Aprime.rank)
    if nprime is None:
        raise PreconditionUnmet("probe target must be a full matrix algebra")
    if not Aprime.base.is_field:
        raise PreconditionUnmet("probe target must be a matrix algebra over a field (Lemma 3.2)")
    if n <= 1:
        return CheckReport(check="jordan_obstruction", status=PASS, details={"vacuous": True})
    phi = splitting(Aprime)
    if phi is None:
        raise PreconditionUnmet("probe target has no verified isomorphism to M_n'(k) (Lemma 3.2)")
    types = list(_partitions(nprime))
    J = [jordan_flat(Aprime.base, blocks) for blocks in types]
    X, _ = linalg.solve_additive(phi, np.stack(J), Aprime.moduli, Aprime.moduli)
    index = nilpotency_indices(Aprime, X, Aprime.rank)
    details = {"jordan_types": len(types), "largest_index": int(index.max())}
    above = np.flatnonzero(index > nprime)
    if not above.size:
        return CheckReport(check="jordan_obstruction", status=PASS, details=details)
    t = int(above[0])
    return CheckReport(
        check="jordan_obstruction",
        status=FAIL,
        witness={"element": X[t].tolist(), "index": int(index[t]), "partition": list(types[t])},
        details=details,
    )


def isomorphism_check(f):
    """Four-route isomorphism verdict:

    (a) f maps Z(source) onto Z(target), and the two centers have equal
        order, so the induced center map is bijective;
    (b) equal constant ranks (the free-module rank condition);
    (c) direct bijectivity of the flattened matrix;
    (d) the commutant route: with A2 the image of f, the commutant C of A2
        in the target equals R'*1, the image has full order, and the source
        injects -- making the canonical multiplication map A2 (x) C -> target
        an isomorphism.  (c) and (d) read the one image order of f
        (`AlgebraHom.image_order`): f injects iff its image has |source|
        elements, since |ker f| = |source| / |image|, and is onto iff it has
        |target| elements.  When f is onto, C is by definition
        Z(target), taken from the `center` memo; otherwise it is the
        commutant of f(S), which generates A2 for S the source's generators.

    (a) and (b) together imply (c) by the isomorphism criterion; (c) and (d)
    agree by the commutant decomposition.  Any disagreement is flagged
    contradicts-theorem.
    """
    f.require_verified()
    pre = _azumaya_preconditions(f)
    if not (pre["source_azumaya"] and pre["target_azumaya"]):
        raise PreconditionUnmet("both algebras must be Azumaya-verified")

    src_center, tgt_center = center(f.source), center(f.target)
    image_center = linalg.Subgroup(f.apply_flat(src_center.generators()), f.target.moduli)
    a_ok = image_center == tgt_center and src_center.order == tgt_center.order
    b_ok = pre["source_constant_rank"] == pre["target_constant_rank"]
    c_ok = f.is_bijective()

    injective, onto = f.image_order == f.source.size, f.image_order == f.target.size
    C = center(f.target) if onto else commutant(f.target, f.apply_flat(f.source.generators))
    c_scalar = C == f.target.unit_span()
    d_ok = c_scalar and injective and onto

    verdicts = {"center_iso_and_rank": a_ok and b_ok, "direct_bijectivity": c_ok, "commutant_route": d_ok}
    agree = len(set(verdicts.values())) == 1
    if not agree:
        return CheckReport(
            check="isomorphism",
            status=CONTRADICTS,
            witness={"verdicts": {k: bool(v) for k, v in verdicts.items()}},
            preconditions=pre,
        )
    status = PASS
    return CheckReport(
        check="isomorphism",
        status=status,
        preconditions=pre,
        details={
            "is_isomorphism": bool(c_ok),
            "routes": {k: bool(v) for k, v in verdicts.items()},
            "commutant_order": C.order,
        },
    )


def endo_auto_check(f):
    """A verified base-identity endomorphism of an Azumaya algebra must be
    bijective."""
    f.require_verified()
    if f.source != f.target:
        raise PreconditionUnmet("endomorphism check needs source = target")
    if not f.fixes_base():
        raise PreconditionUnmet("restriction to the base is not the identity")
    pre = _azumaya_preconditions(f)
    if not pre["source_azumaya"]:
        raise PreconditionUnmet("algebra must be Azumaya-verified")
    if f.is_bijective():
        return CheckReport(check="endo_auto", status=PASS, preconditions=pre)
    ker = f.kernel_subgroup()
    gens = ker.generators()
    return CheckReport(
        check="endo_auto",
        status=CONTRADICTS,
        witness={"kernel_generator": gens[0].tolist() if len(gens) else None},
        preconditions=pre,
    )


def tensor_commutant_map(target, sub_gens):
    """The canonical map tau: A2 (x) C -> target for A2 the subalgebra
    spanned by the rows of the (T, dim) array sub_gens and C its commutant
    (a `linalg.Subgroup`); returns (C, bijective).

    Restricted to field bases, where submodules are free and the tensor has
    order q^(dim A2 * dim C); tau is then bijective iff that order matches
    the target and the pairwise products span everything."""
    base = target.base
    if not base.is_field:
        raise PreconditionUnmet("tensor-commutant check needs a field base")
    q = base.size
    A2 = linalg.Subgroup(sub_gens, target.moduli)
    C = commutant(target, A2.generators())
    dim_a = round(math.log(A2.order, q))
    dim_c = round(math.log(C.order, q))
    Ga, Gc = A2.generators(), C.generators()
    # the product of each generator of A2 with each generator of C
    products = target.mul_batch(np.repeat(Ga, len(Gc), axis=0), np.tile(Gc, (len(Ga), 1)))
    span = linalg.Subgroup(products, target.moduli)
    bij = q ** (dim_a * dim_c) == target.size and span.order == target.size
    return C, bij

"""Exact-arithmetic workbench for Azumaya algebras over finite commutative
rings: construction of matrix and reduced Weyl algebra families, ring
homomorphism verification, and machine checks of their structural theorems
(center preservation, rank comparison, isomorphism criteria, standard
polynomial identities)."""

from .rings import (
    BaseRingHom,
    GaloisField,
    ProductRing,
    RingElem,
    RingIdeal,
    ZMod,
    crt_decompose,
    is_reduced,
    make_ring,
    maximal_ideals,
    residue_field,
)
from .algebras import (
    AlgElem,
    Algebra,
    base_change,
    center,
    commutant,
    is_azumaya,
    is_central,
    jordan_cell,
    matrix_algebra,
    nilpotency_index,
    opposite,
    quotient_algebra,
    rank_at,
    tensor_product,
    upper_triangular_algebra,
    weyl_quotient,
)
from .homs import (
    AlgebraHom,
    compose,
    conjugation_auto,
    diagonal_embed,
    endo_auto_check,
    center_preservation_check,
    isomorphism_check,
    kernel_ideal,
    rank_comparison_check,
    reduction_hom,
    weyl_splitting,
)
from .identities import (
    MultilinearIdentity,
    al_vanishing_check,
    evaluate,
    identity_transfer_check,
    nonvanishing_witness,
    standard_identity,
)
from .corpus import build_corpus
from .suites import builtin_suites, run_suite
from .reports import CheckReport

__all__ = [name for name in dir() if not name.startswith("_")]

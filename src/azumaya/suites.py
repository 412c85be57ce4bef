"""Builtin theorem suites: named bundles of checks over fixed object grids
and the deterministic hom corpus.

Each suite returns an ordered list of CheckReports.  No suite draws, so
none needs a seed: `jordan-lem32` decides its probes on the Jordan types,
and `al-thm26` on generator subsets.  `al-thm26` records a given seed in
its reports, and the rest ignore it.
"""

from __future__ import annotations

from functools import lru_cache

from . import corpus as corpus_mod
from . import homs as homs_mod
from . import identities as idn
from .algebras import (
    Algebra,
    env_bijective_check,
    ideal_intersection_check,
    is_azumaya,
    jordan_cell,
    matrix_algebra,
    nilpotency_index,
    opposite,
    square_rank_check,
    tensor_product,
    upper_triangular_algebra,
    weyl_quotient,
)
from .reports import FAIL, PASS, CheckReport
from .rings import RingIdeal, ZMod


class SuiteError(Exception):
    pass


_MATRIX_GRID = [(n, m) for n in (1, 2, 3) for m in (2, 3, 4, 6, 8, 9, 12)]
_WEYL_GRID = [
    (p, a, b) for p in (2, 3, 5) for a in range(p) for b in range(p)
]


def _named(report, name):
    report.check = name
    return report


def _expect_fail(report, name):
    """Wrap an intentionally failing check: pass iff it failed with a witness."""
    ok = report.status == FAIL and report.witness is not None
    return CheckReport(
        check=name,
        status=PASS if ok else FAIL,
        witness=None if ok else {"unexpected_status": report.status},
        details={"inner_witness": report.witness} if ok else {},
    )


def suite_azumaya_def21(seed=None):
    reports = []
    for n, m in _MATRIX_GRID:
        A = matrix_algebra(ZMod(m), n)
        reports.append(_named(is_azumaya(A), f"azumaya:M{n}(Z/{m})"))
    for p, a, b in _WEYL_GRID:
        reports.append(_named(is_azumaya(weyl_quotient(p, a, b)), f"azumaya:W({p},{a},{b})"))
    ut = upper_triangular_algebra(ZMod(2), 2)
    reports.append(_expect_fail(is_azumaya(ut), "azumaya-counterexample:UT2(F_2)"))
    return reports


def suite_al_thm26(seed=None):
    """Amitsur-Levitzki on small matrix and Weyl algebras.  Every check is
    decided on generator subsets and draws nothing, so no seed is needed;
    a given one is recorded in the reports."""
    reports = []
    M2F2 = matrix_algebra(ZMod(2), 2)
    reports.append(_named(idn.al_vanishing_check(M2F2, 2, mode="exhaustive"), "s4:M2(F_2):exhaustive"))
    for a in range(2):
        for b in range(2):
            W = weyl_quotient(2, a, b)
            rep = idn.al_vanishing_check(W, 2, mode="exhaustive")
            reports.append(_named(rep, f"s4:W(2,{a},{b}):exhaustive"))
    for m in (4, 6):
        A = matrix_algebra(ZMod(m), 2)
        reports.append(
            _named(
                idn.al_vanishing_check(A, 2, mode="samples", count=2000, seed=seed),
                f"s4:M2(Z/{m}):sampled",
            )
        )
    for m in (2, 3, 6):
        A = matrix_algebra(ZMod(m), 3)
        reports.append(
            _named(
                idn.al_vanishing_check(A, 3, mode="samples", count=2000, seed=seed),
                f"s6:M3(Z/{m}):sampled",
            )
        )
    for m in (2, 4):
        A = matrix_algebra(ZMod(m), 2)
        _, rep = idn.nonvanishing_witness(A, 2, seed=seed)
        reports.append(_named(rep, f"s2-witness:M2(Z/{m})"))
    for m in (2, 3):
        A = matrix_algebra(ZMod(m), 3)
        _, rep = idn.nonvanishing_witness(A, 4, seed=seed)
        reports.append(_named(rep, f"s4-witness:M3(Z/{m})"))
    return reports


def suite_split_cor29(seed=None):
    reports = []
    for p, a, b in _WEYL_GRID:
        hom = homs_mod.weyl_splitting(p, a, b)
        rep = homs_mod.isomorphism_check(hom)
        ok = rep.status == PASS and rep.details.get("is_isomorphism")
        reports.append(
            CheckReport(
                check=f"split:W({p},{a},{b})",
                status=PASS if ok else (rep.status if rep.status != PASS else FAIL),
                witness=rep.witness if not ok and rep.witness else (None if ok else {"details": rep.details}),
                details=rep.details,
            )
        )
    return reports


@lru_cache(maxsize=None)
def _corpus():
    """The hom corpus, built once per process and shared by the corpus
    suites (read-only: a tuple)."""
    return tuple(corpus_mod.build_corpus())


def suite_matrixcenter_thm31(seed=None):
    """Center preservation restricted to matrix-algebra corpus homs."""
    reports = []
    for e in _corpus():
        if e.kind in ("weyl_splitting",) or not e.equal_rank_reduced:
            continue
        reports.append(_named(homs_mod.center_preservation_check(e.hom), f"matrixcenter:{e.name}"))
    return reports


def suite_jordan_lem32(seed=None):
    reports = []
    for p in (2, 3, 5):
        ring = ZMod(p)
        for n in range(2, 7):
            idx = nilpotency_index(jordan_cell(ring, n), cap=n + 1)
            reports.append(
                CheckReport(
                    check=f"jordan-cell:F_{p}:n={n}",
                    status=PASS if idx == n else FAIL,
                    witness=None if idx == n else {"index": idx},
                    details={"index": idx},
                )
            )
        for n in range(2, 5):
            for nprime in range(1, n):
                A = matrix_algebra(ring, nprime)
                rep = homs_mod.jordan_obstruction_probe(n, A)
                reports.append(_named(rep, f"jordan-probe:F_{p}:n={n}:nprime={nprime}"))
    return reports


def suite_center_thm41(seed=None):
    reports = []
    for e in _corpus():
        if not e.equal_rank_reduced:
            continue
        reports.append(_named(homs_mod.center_preservation_check(e.hom), f"center:{e.name}"))
    return reports


def suite_rank_thm41(seed=None):
    reports = []
    for e in _corpus():
        rep = homs_mod.rank_comparison_check(e.hom)
        reports.append(_named(rep, f"rank:{e.name}"))
    return reports


def suite_iso_prop51_thm53(seed=None):
    reports = []
    for e in _corpus():
        rep = homs_mod.isomorphism_check(e.hom)
        if e.kind == "diagonal" and rep.status == PASS and rep.details.get("is_isomorphism"):
            rep = CheckReport(
                check=rep.check,
                status=FAIL,
                witness={"unexpected": "diagonal embedding reported as isomorphism"},
                details=rep.details,
            )
        reports.append(_named(rep, f"iso:{e.name}"))
    # Commutant of diagonally embedded M_2 in M_4(F_5): rank 4, tau bijective
    d2 = homs_mod.diagonal_embed(ZMod(5), 2, 2)
    # the images of the coordinate generators: the columns of the matrix
    C, bij = homs_mod.tensor_commutant_map(d2.target, d2.matrix.T)
    ok = C.order == 5**4 and bij
    reports.append(
        CheckReport(
            check="commutant-tau:M2-in-M4(F_5)",
            status=PASS if ok else FAIL,
            witness=None if ok else {"commutant_order": C.order, "tau_bijective": bij},
            details={"commutant_order": C.order, "tau_bijective": bij},
        )
    )
    return reports


def suite_endo_cor52(seed=None):
    reports = []
    for e in _corpus():
        h = e.hom
        if h.source != h.target or not h.fixes_base():
            continue
        reports.append(_named(homs_mod.endo_auto_check(h), f"endo:{e.name}"))
    if not reports:
        raise SuiteError("corpus contains no base-identity endomorphisms")
    return reports


def _split_quadratic_f2():
    """F_2 x F_2 as a rank-2 algebra over F_2 (idempotent basis): commutative
    but not central, so its enveloping map cannot be bijective."""
    # the nonzeros of its table: e_0 e_0 = e_0 and e_1 e_1 = e_1
    return Algebra(ZMod(2), (([0, 1], [0, 1], [0, 1]), [1, 1]), [1, 1], label="F_2xF_2")


def suite_tensor_env_rem23(seed=None):
    reports = []
    env_cases = [
        ("M2(F_2)", matrix_algebra(ZMod(2), 2), True),
        ("M2(Z/4)", matrix_algebra(ZMod(4), 2), True),
        ("W(3,1,2)", weyl_quotient(3, 1, 2), True),
        ("F_2xF_2", _split_quadratic_f2(), False),
    ]
    for name, A, expected in env_cases:
        reports.append(_named(env_bijective_check(A, expected), f"env:{name}"))
    # tensor of Azumaya algebras is Azumaya (Rem 2.3(6))
    M2 = matrix_algebra(ZMod(2), 2)
    T = tensor_product(M2, opposite(M2))
    reports.append(_named(is_azumaya(T), "azumaya:M2(F_2)(x)op"))
    # ideal correspondence and intersection identity (Rem 2.3(2),(3))
    M212 = matrix_algebra(ZMod(12), 2)
    reports.append(
        _named(
            ideal_intersection_check(M212, [RingIdeal(ZMod(12), 2), RingIdeal(ZMod(12), 3)]),
            "intersection:M2(Z/12):(2),(3)",
        )
    )
    red = homs_mod.reduction_hom(M212, RingIdeal(ZMod(12), 2))
    ideal, rep = homs_mod.kernel_ideal(red)
    reports.append(_named(rep, "kernel-ideal:M2(Z/12)-mod2"))
    for n, m in [(1, 4), (2, 6), (3, 4)]:
        A = matrix_algebra(ZMod(m), n)
        reports.append(_named(square_rank_check(A), f"square-rank:M{n}(Z/{m})"))
    return reports


BUILTIN_SUITES = {
    "azumaya-def21": suite_azumaya_def21,
    "al-thm26": suite_al_thm26,
    "split-cor29": suite_split_cor29,
    "matrixcenter-thm31": suite_matrixcenter_thm31,
    "jordan-lem32": suite_jordan_lem32,
    "center-thm41": suite_center_thm41,
    "rank-thm41": suite_rank_thm41,
    "iso-prop51-thm53": suite_iso_prop51_thm53,
    "endo-cor52": suite_endo_cor52,
    "tensor-env-rem23": suite_tensor_env_rem23,
}


def builtin_suites():
    return list(BUILTIN_SUITES)


def run_suite(name, seed=None):
    if name not in BUILTIN_SUITES:
        raise SuiteError(f"unknown suite {name!r}; known: {', '.join(BUILTIN_SUITES)}")
    return BUILTIN_SUITES[name](seed=seed)

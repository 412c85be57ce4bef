import importlib
import inspect
import json
import pkgutil
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import azumaya
from azumaya import algebras
from azumaya.cli import main
from azumaya.configio import MAX_DRAWS, ConfigError, RunConfig, load_run_config, make_algebra, make_hom, make_identity
from azumaya.suites import builtin_suites, run_suite
from azumaya.reports import CheckReport, worst_exit_code
from ring_oracles import unit_basis


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


BASIC = {
    "seed": 42,
    "objects": {
        "rings": {"R4": {"kind": "zmod", "n": 4}, "F2": {"kind": "zmod", "n": 2}},
        "algebras": {
            "M2_4": {"kind": "matrix", "n": 2, "ring": "R4"},
            "M2_F2": {"kind": "matrix", "n": 2, "ring": "F2"},
        },
        "homs": {
            "red": {"kind": "reduction", "source": "M2_4", "ideal": 2},
            "conj": {"kind": "conjugation", "source": "M2_4", "u": [[1, 1], [0, 1]]},
        },
        "identities": {"s2": {"standard": 2}},
    },
    "checks": [
        {"name": "az", "check": "is_azumaya", "algebra": "M2_4"},
        {"name": "ker", "check": "kernel_ideal", "hom": "red"},
        {"name": "iso", "check": "isomorphism", "hom": "conj"},
        {"name": "transfer", "check": "identity_transfer", "hom": "red", "identity": "s2"},
    ],
}


# ---------------------------------------------------------------------------
# report plumbing


def test_report_requires_witness_on_fail():
    with pytest.raises(ValueError):
        CheckReport(check="x", status="fail")
    with pytest.raises(ValueError):
        CheckReport(check="x", status="bogus")


def test_worst_exit_code():
    ok = CheckReport(check="a", status="pass")
    bad = CheckReport(check="b", status="fail", witness={})
    contra = CheckReport(check="c", status="contradicts-theorem", witness={})
    assert worst_exit_code([ok]) == 0
    assert worst_exit_code([ok, bad]) == 1
    assert worst_exit_code([ok, bad, contra]) == 3


def test_comparable_dict_excludes_timing():
    rep = CheckReport(check="a", status="pass", timing=1.23)
    assert "timing" not in rep.comparable_dict()
    assert rep.to_dict()["timing"] == 1.23


def test_report_roundtrips_through_json():
    rep = CheckReport(
        check="a", status="fail", witness={"v": [1, 2]}, seed=7, details={"n": 3}
    )
    assert json.loads(json.dumps(rep.comparable_dict())) == rep.comparable_dict()


# ---------------------------------------------------------------------------
# config parsing


def test_run_config_basic(tmp_path):
    cfg = load_run_config(write_config(tmp_path, BASIC))
    assert set(cfg.algebras) == {"M2_4", "M2_F2"}
    assert cfg.homs["red"].is_verified
    assert cfg.seed == 42
    # the retired exhaustive budget's key still loads, whatever its value
    assert set(load_run_config(write_config(tmp_path, dict(BASIC, max_tuples=-1))).algebras) == {"M2_4", "M2_F2"}


def test_config_unknown_ring_name():
    with pytest.raises(ConfigError):
        make_algebra({"kind": "matrix", "n": 2, "ring": "nope"}, {})


def test_config_invalid_matrix_size():
    with pytest.raises(ConfigError):
        make_algebra({"kind": "matrix", "n": 0, "ring": {"kind": "zmod", "n": 2}})


@pytest.mark.parametrize("rank", [0, -1])
def test_cli_structure_constants_rank_below_1_exits_2(tmp_path, capsys, rank):
    # refused at load, naming the algebra, before any check reaches it
    algebra = {"kind": "structure_constants", "ring": {"kind": "zmod", "n": 2}, "rank": rank, "table": [], "unit": []}
    data = {"objects": {"algebras": {"A": algebra}}, "checks": [{"check": "is_azumaya", "algebra": "A"}]}
    assert main(["check", "all", "--config", write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err == "error: objects.algebras.A: rank must be >= 1\n"


# a table or unit of rank 1 with two entries at one level; the first is
# F_2 x F_2's table, which loaded as F_2 when the extra entries were dropped
_LONGER_THAN_RANK = {
    "table": ([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1]),
    "table[0]": ([[[1], [0]]], [1]),
    "table[0][0]": ([[[1, 0]]], [1]),
    "unit": ([[[1]]], [1, 0]),
}


@pytest.mark.parametrize("level", _LONGER_THAN_RANK)
def test_cli_structure_constants_longer_than_rank_exits_2(tmp_path, capsys, level):
    table, unit = _LONGER_THAN_RANK[level]
    algebra = {"kind": "structure_constants", "ring": {"kind": "zmod", "n": 2}, "rank": 1, "table": table, "unit": unit}
    data = {"objects": {"algebras": {"A": algebra}}, "checks": [{"check": "is_azumaya", "algebra": "A"}]}
    assert main(["check", "all", "--config", write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"error: objects.algebras.A.{level}: rank 1 needs 1 entries, got 2\n"


def test_config_noncanonical_ring_rejected():
    with pytest.raises(ConfigError):
        make_algebra({"kind": "matrix", "n": 1, "ring": {"kind": "zmod", "n": 4, "extra": 1}})


def test_config_structure_constants():
    cfg = {
        "kind": "structure_constants",
        "ring": {"kind": "zmod", "n": 2},
        "rank": 2,
        "table": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        "unit": [1, 1],
    }
    A = make_algebra(cfg)
    assert A.rank == 2
    assert A.mul_flat(unit_basis(A, 0), unit_basis(A, 1)).tolist() == [0, 0]


def test_config_identity_standard_alias():
    ident = make_identity({"standard": 3})
    assert ident.arity == 3 and len(ident.terms) == 6


# M_2(GF(32)) has 20 flat coordinates: C(20, 8) = 125,970 > 2000 generator
# 8-subsets, and the level tables stop at size 5, so the sampled s_8 scans
# drawn tuples
SAMPLED_S8 = {
    "objects": {
        "rings": {"F32": {"kind": "gf", "p": 2, "f": [1, 0, 1, 0, 0, 1]}},
        "algebras": {"A": {"kind": "matrix", "n": 2, "ring": "F32"}},
    },
    "checks": [{"name": "al", "check": "al_vanishing", "algebra": "A", "n": 4, "mode": "samples"}],
}


def test_config_seed_required_for_sampled_checks(tmp_path, capsys):
    # the config loads without a seed; the check is refused at its first draw
    assert RunConfig(SAMPLED_S8).seed is None
    assert RunConfig(dict(SAMPLED_S8, seed=1)).seed == 1
    assert main(["check", "all", "--config", write_config(tmp_path, SAMPLED_S8)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checks.al: ") and "needs a seed" in err


def test_config_without_seed_loads_a_witness_search():
    # the witness search walks generator subsets and draws nothing
    data = {
        "objects": {
            "rings": {"F2": {"kind": "zmod", "n": 2}},
            "algebras": {"A": {"kind": "matrix", "n": 2, "ring": "F2"}},
        },
        "checks": [{"name": "w", "check": "nonvanishing_witness", "algebra": "A", "k": 2}],
    }
    cfg = RunConfig(data)
    assert cfg.seed is None and [c["check"] for c in cfg.checks] == ["nonvanishing_witness"]


def _seedless(check):
    return {
        "objects": {
            "rings": {"F2": {"kind": "zmod", "n": 2}},
            "algebras": {"A": {"kind": "matrix", "n": 2, "ring": "F2"}},
        },
        "checks": [dict(check, name="c", algebra="A")],
    }


def test_cli_sampled_al_failure_on_a_subset_draws_nothing(tmp_path, capsys):
    # s_2 is nonzero on a generator pair of M_2(F_2): the walk names it,
    # with no draw and no seed
    path = write_config(tmp_path, _seedless({"check": "al_vanishing", "n": 1, "mode": "samples", "count": 100}))
    assert main(["check", "all", "--config", path]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert "seed" not in rep and rep["status"] == "fail" and rep["details"]["mode"] == "samples"


def test_cli_seedless_al_check_runs_exhaustively(tmp_path, capsys):
    # no mode means the exhaustive scan, which draws nothing
    path = write_config(tmp_path, _seedless({"check": "al_vanishing", "n": 2}))
    assert main(["check", "all", "--config", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "pass" and rep["details"]["mode"] == "exhaustive"


def test_cli_seedless_exhaustive_jordan_probe_runs(tmp_path, capsys):
    # the probe reads M_2(F_2)'s two Jordan types and draws nothing; a
    # config's `samples` key still loads, unread
    path = write_config(tmp_path, _seedless({"check": "jordan_obstruction", "n": 3, "samples": 15}))
    assert main(["check", "all", "--config", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert "seed" not in rep and rep["status"] == "pass"
    assert rep["details"] == {"jordan_types": 2, "largest_index": 2}


def test_cli_jordan_probe_without_a_splitting_is_precondition_unmet(tmp_path, capsys):
    # F_2[x]/(x^4) from its structure constants: rank 4 over a field, but
    # not M_2(F_2), so the lemma's hypothesis is unmet
    table = [[[int(i + j == k) for k in range(4)] for j in range(4)] for i in range(4)]
    data = {
        "objects": {
            "algebras": {
                "A": {"kind": "structure_constants", "ring": {"kind": "zmod", "n": 2}, "rank": 4, "table": table, "unit": [1, 0, 0, 0]}
            }
        },
        "checks": [{"name": "c", "check": "jordan_obstruction", "algebra": "A", "n": 3}],
    }
    assert main(["check", "all", "--config", write_config(tmp_path, data)]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "precondition-unmet" and "no verified isomorphism" in rep["details"]["reason"]


# s_8 on M_5(F_2): its subset tables stop at size 4, and C(25, 8) > 3, so
# the sampled check draws; s_8 does not vanish on M_5
PAST_TABLES_M5 = {
    "objects": {
        "rings": {"F2": {"kind": "zmod", "n": 2}},
        "algebras": {"A": {"kind": "matrix", "n": 5, "ring": "F2"}},
    },
    "checks": [{"name": "c", "check": "al_vanishing", "algebra": "A", "n": 4, "mode": "samples", "count": 3}],
}


def test_cli_seed_option_serves_a_seedless_sampled_config(tmp_path, capsys):
    # s_4 on M_2(F_2) is decided on its one generator 4-subset: no draw, no seed
    path = write_config(tmp_path, _seedless({"check": "al_vanishing", "n": 2, "mode": "samples", "count": 100}))
    assert main(["check", "all", "--config", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert "seed" not in rep and rep["details"] == {"k": 4, "mode": "samples", "tested": 100}
    # past the subset tables the check draws
    path = write_config(tmp_path, PAST_TABLES_M5)
    assert main(["check", "all", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: checks.c: a seeded draw needs a seed")
    assert main(["check", "all", "--config", path, "--seed", "42"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["seed"] == 42 and rep["status"] == "fail"


@pytest.mark.parametrize("seed", [None, 42])
def test_cli_unknown_al_mode_exits_2(tmp_path, capsys, seed):
    # the config loads; the mode is refused when the check runs
    data = dict(_seedless({"check": "al_vanishing", "n": 1, "mode": "sampels"}), seed=seed)
    assert RunConfig(data).seed == seed
    assert main(["check", "all", "--config", write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith("error: checks.c: unknown mode 'sampels'")


# one config per kind of check that draws, each with a seedless check named "c"
DRAWING_CHECKS = {
    "transfer": {
        "objects": BASIC["objects"],
        "checks": [{"name": "c", "check": "identity_transfer", "hom": "red", "identity": "s2"}],
    },
    "al-past-tables": dict(SAMPLED_S8, checks=[dict(SAMPLED_S8["checks"][0], name="c")]),
    "al-past-tables-nonvanishing": PAST_TABLES_M5,
}


@pytest.mark.parametrize("kind", sorted(DRAWING_CHECKS))
def test_cli_seedless_check_refused_at_its_first_draw(tmp_path, capsys, kind):
    path = write_config(tmp_path, DRAWING_CHECKS[kind])
    assert main(["construct", "--config", path]) == 0
    capsys.readouterr()
    assert main(["check", "all", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checks.c: a seeded draw needs a seed") and "Traceback" not in err


def test_config_duplicate_check_names():
    data = dict(BASIC, checks=[{"name": "x", "check": "is_azumaya", "algebra": "M2_4"}] * 2)
    with pytest.raises(ConfigError):
        RunConfig(data)


def test_explicit_hom_roundtrip():
    algebras = {
        "A": make_algebra({"kind": "matrix", "n": 2, "ring": {"kind": "zmod", "n": 2}})
    }
    import numpy as np

    h = make_hom(
        {"kind": "explicit", "source": "A", "target": "A", "matrix": np.eye(4, dtype=int).tolist()},
        algebras,
    )
    assert h.is_verified


# ---------------------------------------------------------------------------
# CLI subcommands


def test_cli_check_all(tmp_path, capsys):
    path = write_config(tmp_path, BASIC)
    code = main(["check", "all", "--config", path])
    out = capsys.readouterr()
    assert code == 0
    lines = [json.loads(line) for line in out.out.strip().splitlines()]
    assert [l["check"] for l in lines] == ["az", "ker", "iso", "transfer"]
    assert all(l["status"] == "pass" for l in lines)
    assert "4 checks" in out.err


GF_PRODUCT_CONFIG = str(Path(__file__).parent / "configs" / "gf_product.json")


@pytest.mark.parametrize(
    "argv", [["construct"], ["check", "all", "--seed", "42"]], ids=["construct", "check-all"]
)
def test_cli_gf_and_product_rings_byte_identical(argv, capsys):
    # M_2 over GF(4) and over Z/4 x GF(4), a reduction by the ideal (2, zero)
    runs = []
    for _ in range(2):
        assert main([*argv, "--config", GF_PRODUCT_CONFIG]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    lines = [json.loads(line) for line in runs[0].splitlines()]
    if argv[0] == "check":
        assert [r["status"] for r in lines] == ["pass"] * 6
        by_name = {r["check"]: r for r in lines}
        assert by_name["iso_conj"]["details"]["is_isomorphism"] is True
        assert by_name["iso_red"]["details"]["is_isomorphism"] is False
    else:
        assert all(o["canonical"]["status"] == "verified" for o in lines if o["type"] == "hom")


CONFIGS = Path(__file__).parent / "configs"


def _check_all(name, *seed):
    return ["check", "all", "--config", str(CONFIGS / f"{name}.json"), *seed]


# (argv, pin, exit code): every pinned stream, one row per pin, and the
# jordan suite once more without a seed, since none of its checks draws
_PINNED = {
    "tensor-env-rem23": (["suite", "tensor-env-rem23", "--seed", "42", "--json"], 0),
    "al-thm26": (["suite", "al-thm26", "--seed", "42", "--json"], 0),
    # its transfer draws over the mixed radices (4, 2, 2)
    "gf_product": (_check_all("gf_product", "--seed", "42"), 0),
    # reductions by a GF zero ideal and a product ideal, their kernel ideals,
    # an intersection over Z/4 x GF(4) and a failing is_azumaya over Z/2 x Z/3
    "ideals": (_check_all("ideals", "--seed", "42"), 1),
    # failing center-preservation and Azumaya checks, with their witnesses
    "commutants": (_check_all("commutants", "--seed", "42"), 1),
    # is_azumaya over product and local bases: two passes and six fails, one
    # at a second maximal ideal and one explained by a radical element
    "fibers": (_check_all("fibers", "--seed", "42"), 1),
    # checked Weyl and structure-constant builds, enveloping maps and a
    # refuted transpose hom
    "structure": (_check_all("structure", "--seed", "42"), 1),
    "azumaya-def21": (["suite", "azumaya-def21", "--seed", "42", "--json"], 0),
    "split-cor29": (["suite", "split-cor29", "--seed", "42", "--json"], 0),
    "center-thm41": (["suite", "center-thm41", "--seed", "42", "--json"], 0),
    "iso-prop51-thm53": (["suite", "iso-prop51-thm53", "--seed", "42", "--json"], 0),
    "matrixcenter-thm31": (["suite", "matrixcenter-thm31", "--seed", "42", "--json"], 0),
    "rank-thm41": (["suite", "rank-thm41", "--seed", "42", "--json"], 0),
    "endo-cor52": (["suite", "endo-cor52", "--seed", "42", "--json"], 0),
    "jordan-lem32": (["suite", "jordan-lem32", "--seed", "42", "--json"], 0),
    "jordan-lem32-seedless": (["suite", "jordan-lem32", "--json"], 0),
    # M_2 over GF((2^61 - 1)^2) by t^2 + 1, irreducible by Berlekamp's criterion
    "gf_large": (_check_all("gf_large"), 0),
    # M_2 and M_3 in matrix-unit coordinates and their opposites
    "forms": (_check_all("forms"), 0),
    # s_2n decided on generator subsets in either mode; one check draws
    "vanishing": (_check_all("vanishing", "--seed", "7"), 1),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_cli_output_matches_its_pin(name, capsys):
    argv, code = _PINNED[name]
    assert main(argv) == code
    pin = CONFIGS / (name.removesuffix("-seedless") + ".expected")
    assert capsys.readouterr().out == pin.read_text()


def test_cli_pins_all_have_a_row():
    assert {p.stem for p in CONFIGS.glob("*.expected")} == {name for name in _PINNED if "seedless" not in name}


def test_cli_truncated_table_exits_2(capsys):
    # a structure_constants table longer than its rank is refused at load
    assert main(_check_all("truncated")) == 2
    assert capsys.readouterr().err.startswith("error: objects.algebras.")


def test_cli_env_map_too_large_exits_2_before_forming_it(monkeypatch, capsys, tmp_path):
    # M_4(F_2) (x) M_5(F_2) builds from its entries, but its enveloping map
    # would be a 160,000 x 160,000 matrix: the check is refused by its size
    def forbidden(A):
        raise AssertionError("env_map_flat called")

    monkeypatch.setattr(algebras, "env_map_flat", forbidden)
    data = json.loads((CONFIGS / "large_builds.json").read_text())
    data["checks"] = [{"name": "env", "check": "env_bijective", "algebra": "M4(x)M5"}]
    assert main(["check", "all", "--config", write_config(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checks.env: the enveloping map of rank 400 needs 25600000000 dense entries")


@pytest.mark.parametrize("ideal", ["zero", 2.5, None, [2], True])
def test_cli_malformed_zmod_ideal_exits_2(tmp_path, capsys, ideal):
    data = json.loads(json.dumps(BASIC))
    data["objects"]["homs"]["red"]["ideal"] = ideal
    assert main(["check", "all", "--config", write_config(tmp_path, data)]) == 2
    assert "ideal of Z/4" in capsys.readouterr().err


def test_cli_malformed_product_ideal_exits_2(tmp_path, capsys):
    data = json.loads(Path(GF_PRODUCT_CONFIG).read_text())
    data["objects"]["homs"]["red"]["ideal"] = 2
    assert main(["construct", "--config", write_config(tmp_path, data)]) == 2
    assert "one ideal per factor" in capsys.readouterr().err


def test_cli_single_check(tmp_path, capsys):
    path = write_config(tmp_path, BASIC)
    code = main(["check", "az", "--config", path])
    out = capsys.readouterr()
    assert code == 0
    assert len(out.out.strip().splitlines()) == 1


def test_cli_unknown_check(tmp_path, capsys):
    path = write_config(tmp_path, BASIC)
    assert main(["check", "nope", "--config", path]) == 2


def test_cli_construct_echoes_canonical(tmp_path, capsys):
    path = write_config(tmp_path, BASIC)
    code = main(["construct", "--config", path])
    out = capsys.readouterr()
    assert code == 0
    objects = [json.loads(line) for line in out.out.strip().splitlines()]
    by_name = {o["object"]: o for o in objects}
    assert by_name["R4"]["canonical"] == {"kind": "zmod", "n": 4}
    assert by_name["s2"]["canonical"]["arity"] == 2


def test_cli_invalid_config_exits_2(tmp_path, capsys):
    bad = {"objects": {"algebras": {"A": {"kind": "matrix", "n": 0, "ring": {"kind": "zmod", "n": 2}}}}}
    path = write_config(tmp_path, bad)
    assert main(["construct", "--config", path]) == 2


def test_cli_config_integers_beyond_int64_load(tmp_path, capsys):
    # a conjugation unit and an explicit hom matrix with entries past int64
    # are reduced mod the moduli in Python, as structure constants are
    big = 10**20  # divisible by 4
    data = {
        "objects": {
            "rings": {"R4": {"kind": "zmod", "n": 4}},
            "algebras": {"A": {"kind": "matrix", "n": 2, "ring": "R4"}},
            "homs": {
                "conj": {"kind": "conjugation", "source": "A", "u": [[1, big + 1], [0, 1]]},
                "id": {
                    "kind": "explicit",
                    "source": "A",
                    "target": "A",
                    "matrix": [[big + (i == j) for j in range(4)] for i in range(4)],
                },
            },
        }
    }
    path = write_config(tmp_path, data)
    assert main(["construct", "--config", path]) == 0
    cfg = load_run_config(path)
    assert cfg.homs["conj"].is_verified and cfg.homs["id"].is_verified
    assert np.array_equal(cfg.homs["id"].matrix, np.eye(4, dtype=np.int64))


def test_cli_modulus_beyond_int64_exits_2(tmp_path, capsys):
    data = {"objects": {"algebras": {"A": {"kind": "matrix", "n": 2, "ring": {"kind": "zmod", "n": 10**20}}}}}
    assert main(["construct", "--config", write_config(tmp_path, data)]) == 2
    assert "below 2^63" in capsys.readouterr().err


def test_cli_oversized_algebra_exits_2_before_allocating(tmp_path, capsys):
    # M_40 would need a 30.5 GiB table; refused from its size alone
    data = {"objects": {"algebras": {"A": {"kind": "matrix", "n": 40, "ring": {"kind": "zmod", "n": 2}}}}}
    path = write_config(tmp_path, data)
    start = time.perf_counter()
    assert main(["construct", "--config", path]) == 2
    assert time.perf_counter() - start < 1
    assert "above the cap" in capsys.readouterr().err


def test_cli_refuted_hom_exits_1(tmp_path, capsys):
    data = {
        "objects": {
            "rings": {"F2": {"kind": "zmod", "n": 2}},
            "algebras": {"A": {"kind": "matrix", "n": 2, "ring": "F2"}},
            "homs": {
                "bad": {
                    "kind": "explicit",
                    "source": "A",
                    "target": "A",
                    "matrix": [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
                }
            },
        },
        "checks": [{"name": "az", "check": "is_azumaya", "algebra": "A"}],
    }
    path = write_config(tmp_path, data)
    code = main(["check", "all", "--config", path])
    out = capsys.readouterr()
    assert code == 1
    first = json.loads(out.out.strip().splitlines()[0])
    assert first["status"] == "fail"
    assert first["witness"]["condition"] == "unit"


@pytest.mark.parametrize(
    "ring,message",
    [
        # t^2 + 3 splits mod 2^61 - 1; trial division over every c < p never ended
        ({"kind": "gf", "p": 2**61 - 1, "f": [3, 0, 1]}, "2 irreducible factors"),
        # a prime above 2^63: its residues do not fit int64
        ({"kind": "gf", "p": 9223372036854775837, "f": [0, 1]}, "characteristic must be below 2^63"),
    ],
)
def test_cli_gf_ring_refused_exits_2(tmp_path, capsys, ring, message):
    path = write_config(tmp_path, {"objects": {"rings": {"R": ring}}})
    started = time.perf_counter()
    assert main(["construct", "--config", path]) == 2
    assert time.perf_counter() - started < 5
    err = capsys.readouterr().err
    assert err.startswith("error: objects.rings.R: ") and message in err and "Traceback" not in err


def test_cli_suite_unknown_exits_2(capsys):
    assert main(["suite", "definitely-not-a-suite"]) == 2


def test_no_suite_draws(monkeypatch):
    # every suite runs without a seed and draws no tuple (the splitting
    # search draws under its own fixed seed)
    def forbidden(*args):
        raise AssertionError("a suite drew")

    monkeypatch.setattr(azumaya.identities, "random_rows", forbidden)
    for name in builtin_suites():
        assert all(r.status in ("pass", "not-found") for r in run_suite(name)), name


def test_every_seed_default_is_none():
    # a missing seed is decided only where a check draws; no function
    # replaces it with a default of its own
    defaults = {}
    for info in pkgutil.iter_modules(azumaya.__path__, "azumaya."):
        module = importlib.import_module(info.name)
        members = [v for v in vars(module).values() if getattr(v, "__module__", None) == info.name]
        members += [v for c in members if inspect.isclass(c) for v in vars(c).values()]
        for fn in members:
            if inspect.isfunction(fn) and fn.__module__ == info.name:
                seed = inspect.signature(fn).parameters.get("seed")
                if seed is not None and seed.default is not inspect.Parameter.empty:
                    defaults[f"{info.name}.{fn.__qualname__}"] = seed.default
    assert {
        "azumaya.homs.jordan_obstruction_probe",
        "azumaya.identities.identity_transfer_check",
        "azumaya.identities.nonvanishing_witness",
        "azumaya.identities.al_vanishing_check",
        "azumaya.reports.CheckReport.__init__",
        "azumaya.suites.run_suite",
    } <= set(defaults)
    assert {name: d for name, d in defaults.items() if d is not None} == {}


def test_cli_suite_al_thm26_runs_without_seed(capsys):
    # every check is decided on generator subsets, so nothing is drawn
    code = main(["suite", "al-thm26"])
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert code == 0
    assert len(lines) == 14 and all(l["status"] == "pass" for l in lines)


def test_cli_suite_runs(capsys):
    code = main(["suite", "tensor-env-rem23"])
    out = capsys.readouterr()
    assert code == 0
    lines = [json.loads(line) for line in out.out.strip().splitlines()]
    assert all(l["status"] == "pass" for l in lines)


def test_cli_search_subcommand_is_gone(capsys):
    # the randomized counterexample search is deleted (see azumaya.homs)
    with pytest.raises(SystemExit) as exc:
        main(["search", "counterexample", "--seed", "3"])
    assert exc.value.code == 2
    assert "invalid choice: 'search'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "check",
    [
        {"check": "al_vanishing", "algebra": "M2_4", "n": "two"},
        # s_18: above identities.MAX_ARITY
        {"check": "al_vanishing", "algebra": "M2_4", "n": 9},
        {"check": "nonvanishing_witness", "algebra": "M2_4", "k": 12},
        {"check": "identity_transfer", "hom": "red", "identity": "s2", "trials": "x"},
        # no samples: s_2 does not vanish on M_2(Z/4), yet nothing would be tested
        {"check": "al_vanishing", "algebra": "M2_4", "n": 1, "mode": "samples", "count": 0},
        {"check": "jordan_obstruction", "algebra": "M2_4", "n": "three"},
        {"check": "identity_transfer", "hom": "red", "identity": "s2", "trials": 0},
        # a witness search that walks no subsets would report not-found
        {"check": "nonvanishing_witness", "algebra": "M2_4", "k": 2, "budget": -5},
        {"check": "nonvanishing_witness", "algebra": "M2_4", "k": 2, "budget": 0},
    ],
)
def test_cli_malformed_check_parameter_exits_2(tmp_path, capsys, check):
    data = dict(BASIC, checks=[dict(check, name="bad")])
    assert main(["check", "all", "--config", write_config(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checks.bad: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "check",
    [
        {"check": "al_vanishing", "algebra": "M2_4", "n": 1, "mode": "samples"},
        # the count is held to the cap in either mode
        {"check": "al_vanishing", "algebra": "M2_4", "n": 1},
        {"check": "identity_transfer", "hom": "red", "identity": "s2"},
        {"check": "nonvanishing_witness", "algebra": "M2_4", "k": 2},
    ],
)
def test_cli_draws_above_cap_exit_2(tmp_path, capsys, check):
    # refused before anything is drawn: at 10 us a trial, 10^9 trials would
    # run for about 3 hours
    key = {
        "al_vanishing": "count",
        "identity_transfer": "trials",
        "nonvanishing_witness": "budget",
    }
    data = dict(BASIC, checks=[dict(check, name="big", **{key[check["check"]]: MAX_DRAWS + 1})])
    started = time.perf_counter()
    assert main(["check", "all", "--config", write_config(tmp_path, data)]) == 2
    assert time.perf_counter() - started < 5
    err = capsys.readouterr().err
    assert err.startswith("error: checks.big: ") and f"between 1 and {MAX_DRAWS}" in err


@pytest.mark.parametrize("expected", ["true", 1])
def test_cli_env_bijective_expected_is_a_boolean(tmp_path, capsys, expected):
    # M_2(F_2)'s enveloping map is bijective; "true" would fail it and 1
    # would pass it, so anything but a JSON boolean is refused
    data = dict(BASIC, checks=[{"name": "env", "check": "env_bijective", "algebra": "M2_F2", "expected": expected}])
    assert main(["check", "all", "--config", write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"error: checks.env: expected must be true or false, got {expected!r}\n"


# ---------------------------------------------------------------------------
# fuzz: every config either runs or is refused


def _junk():
    return st.one_of(
        st.none(),
        st.booleans(),
        st.text(max_size=3),
        st.floats(-3, 3),
        st.lists(st.integers(0, 3), max_size=2),
    )


def _param(valid, bad=(), wrong_in=30):
    """A value from `valid`, or about once in `wrong_in` draws junk or one
    of `bad`: out-of-range values that must be refused before anything of
    their size is built."""
    wrong = st.one_of(st.sampled_from(bad), _junk()) if bad else _junk()
    return st.integers(1, wrong_in).flatmap(lambda i: wrong if i == 1 else valid)


def _check_param(valid, bad=()):
    # malformed more often than an object field: each check reads several
    return _param(valid, bad, wrong_in=4)


# per check kind, the parameters it reads besides its algebra and hom
_CHECK_PARAMS = {
    "is_azumaya": {},
    "square_rank": {},
    "env_bijective": {"expected": _check_param(st.booleans())},
    "ideal_intersection": {"ideals": _check_param(st.lists(_check_param(st.integers(0, 12)), min_size=2, max_size=3))},
    "center_preservation": {},
    "rank_comparison": {},
    "isomorphism": {},
    "endo_auto": {},
    "kernel_ideal": {},
    "jordan_obstruction": {"n": _check_param(st.integers(1, 4))},
    "al_vanishing": {
        "n": _check_param(st.integers(1, 2), bad=(-1, 0, 9)),
        "mode": _check_param(st.sampled_from(["exhaustive", "samples"]), bad=("sampels",)),
        "count": _check_param(st.integers(1, 12), bad=(-1, 0)),
    },
    "nonvanishing_witness": {
        "k": _check_param(st.integers(1, 4), bad=(-1, 0, 12)),
        "budget": _check_param(st.integers(1, 12)),
    },
    "identity_transfer": {"identity": _param(st.just("s"), bad=("nope",)), "trials": _check_param(st.integers(1, 12))},
}


@st.composite
def _fuzz_check(draw):
    kind = draw(st.sampled_from(sorted(_CHECK_PARAMS)))
    check = {
        "check": draw(_param(st.just(kind), bad=("no_such_check",))),
        "algebra": draw(_param(st.sampled_from(["A", "B"]), bad=("nope",))),
        "hom": draw(_param(st.just("h"), bad=("nope",))),
    }
    for key, value in _CHECK_PARAMS[kind].items():
        if draw(st.booleans()):
            check[key] = draw(value)
    if draw(st.booleans()):
        check["name"] = draw(_param(st.text("abcdefgh", min_size=3, max_size=3)))
    return check


@st.composite
def _fuzz_config(draw):
    """M_n over Z/m, one more algebra, a hom out of M_n and s_k, for
    m <= 12, n <= 2 and k <= 4, with 1 to 3 checks; any field may be
    malformed."""
    m = draw(_param(st.integers(2, 12), bad=(-1, 0, 1)))
    n = draw(_param(st.integers(1, 2), bad=(-1, 0)))
    # the zero ideal or a proper one: a unit ideal is refused
    divisors = [d for d in range(2, m) if m % d == 0] if isinstance(m, int) else []
    ideal = draw(_param(st.sampled_from([0, *divisors]), bad=(-1,)))
    unit = draw(_param(st.just([[1, 1], [0, 1]] if n == 2 else [[1]])))
    hom = draw(
        st.sampled_from(
            [
                {"kind": "reduction", "source": "A", "ideal": ideal},
                {"kind": "conjugation", "source": "A", "u": unit},
            ]
        )
    )
    other = draw(
        st.sampled_from(
            [
                {"kind": "upper_triangular", "n": 2, "ring": "R"},
                {"kind": "weyl", "p": 2, "a": 1, "b": 0},
                {"kind": "matrix", "n": 1, "ring": "R"},
            ]
        )
    )
    data = {
        "objects": {
            "rings": {"R": {"kind": "zmod", "n": m}},
            "algebras": {"A": {"kind": "matrix", "n": n, "ring": "R"}, "B": other},
            "homs": {"h": hom},
            "identities": {"s": {"standard": draw(_param(st.integers(1, 4), bad=(-1, 0, 12)))}},
        },
        "checks": draw(st.lists(_fuzz_check(), min_size=1, max_size=3)),
    }
    for i, check in enumerate(data["checks"]):
        if isinstance(check.get("name"), str):
            check["name"] += str(i)  # a duplicate name is refused
    if draw(st.booleans()):
        data["seed"] = draw(_param(st.integers(0, 100)))
    if draw(st.booleans()):
        data["max_tuples"] = draw(_param(st.integers(1, 10**5), bad=(-1, 0)))
    return data


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_fuzz_config())
def test_fuzz_config_runs_or_is_refused(tmp_path, data):
    # Z/n with n <= 12, M_n with n <= 2 and s_k with k <= 4 when valid; a
    # check either runs to a verdict (0, 1 or 3) or is refused (2), never raises
    code = main(["check", "all", "--config", write_config(tmp_path, data)])
    assert code in (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# suites


def test_builtin_suite_names():
    assert builtin_suites() == [
        "azumaya-def21",
        "al-thm26",
        "split-cor29",
        "matrixcenter-thm31",
        "jordan-lem32",
        "center-thm41",
        "rank-thm41",
        "iso-prop51-thm53",
        "endo-cor52",
        "tensor-env-rem23",
    ]


def test_deterministic_suite_reports_stable():
    a = [r.comparable_dict() for r in run_suite("tensor-env-rem23")]
    b = [r.comparable_dict() for r in run_suite("tensor-env-rem23")]
    assert a == b


def test_sampled_suite_stable_for_fixed_seed():
    # al-thm26's sampled-mode checks record the seed
    a = [r.comparable_dict() for r in run_suite("al-thm26", seed=42)]
    b = [r.comparable_dict() for r in run_suite("al-thm26", seed=42)]
    assert a == b and all(r["seed"] == 42 for r in a if "sampled" in r["check"])

"""`algebras.random_rows`, the seeded candidate stream, against a loop that
draws each row alone: row t depends only on the seed, the radices and t,
every entry lies below its radix, and no passing sampled report depends on
which rows are drawn."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya import algebras
from azumaya import identities
from azumaya.algebras import AlgebraError, matrix_algebra, random_rows
from azumaya.cli import main
from azumaya.homs import diagonal_embed, jordan_obstruction_probe
from azumaya.identities import _tuples, identity_transfer_check, standard_identity
from azumaya.rings import GaloisField, ProductRing, ZMod

SRC = Path(algebras.__file__).parent
CONFIGS = Path(__file__).parent / "configs"

# a radix of one, small ones, either side of 2^31 and 2^32, and wide ones
_ONE_RADIX = [1, 2, 3, 5, 12, 2**31 - 1, 2**32 - 1, 2**32, 3000000021, 2**61 - 1]
_MIXED = [(4, 2, 2) * 4, (2, 3), (3, 2**61 - 1)]


def _rows_one_at_a_time(seed, radices, T):
    rows = [random_rows(seed, radices, t, t + 1)[0] for t in range(T)]
    return np.array(rows, dtype=np.int64).reshape(T, len(radices))


def _assert_same_draws(radices, T, seed):
    """One call for rows 0..T-1 against a loop drawing each row alone."""
    got, want = random_rows(seed, radices, 0, T), _rows_one_at_a_time(seed, radices, T)
    assert got.dtype == want.dtype == np.int64 and got.shape == want.shape == (T, len(radices))
    assert np.array_equal(got, want)
    assert ((0 <= got) & (got < np.asarray(radices, dtype=object))).all()


@pytest.mark.parametrize("T", [0, 1, 7, 1024])
@pytest.mark.parametrize("m", [1, 9])
@pytest.mark.parametrize("r", _ONE_RADIX)
def test_one_radix_matches_loop(r, m, T):
    for seed in (0, 42):
        _assert_same_draws((r,) * m, T, seed)


@pytest.mark.parametrize("T", [0, 1, 7, 1024])
@pytest.mark.parametrize("radices", _MIXED, ids=["(4,2,2)x4", "(2,3)", "(3,2^61-1)"])
def test_mixed_radices_match_loop(radices, T):
    for seed in (0, 42):
        _assert_same_draws(radices, T, seed)


_RADIX = st.one_of(
    st.just(1),
    st.just(2**63 - 1),
    st.integers(1, 40),
    st.integers(2**31 - 8, 2**32 + 8),
    st.integers(2**32 + 9, 2**63 - 1),
)
_SEED = st.one_of(
    st.sampled_from([0, -1, -42, 2**64, 2**64 + 42, 3**50]),
    st.integers(-(2**70), 2**70),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_RADIX, min_size=1, max_size=5),
    _SEED,
    st.integers(0, 60),
    st.lists(st.integers(0, 60), max_size=5),
)
def test_short_mixed_tuples_match_loop(radices, seed, T, cuts):
    # any split of rows 0..T-1 into batches gives the same rows
    _assert_same_draws(radices, T, seed)
    bounds = [0, *sorted(c for c in cuts if c <= T), T]
    parts = [random_rows(seed, radices, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(parts), random_rows(seed, radices, 0, T))


@pytest.mark.parametrize("rows", [1, 7, 1024])
def test_candidate_batches_name_rows_by_index(rows):
    # the seeded candidate batches of `identities._tuples`: triples of
    # M_1(Z/4 x GF(4)), whose coordinates have radices (4, 2, 2)
    A = matrix_algebra(ProductRing([ZMod(4), GaloisField.default(2, 2)]), 1, check=False)
    batches = list(_tuples(A, 3, 2000, 42)(rows))
    assert all(0 < len(X) <= rows and X.shape[1:] == (3, 3) for X in batches)
    assert np.array_equal(np.concatenate(batches).reshape(2000, 9), random_rows(42, (4, 2, 2) * 3, 0, 2000))


@pytest.mark.parametrize("radices", [(0,), (3, 2**63), (-1, 2)])
def test_radix_outside_int64_draws_refused(radices):
    with pytest.raises(ValueError, match="radices"):
        random_rows(0, radices, 0, 1)


@pytest.mark.parametrize("seed", [0, 42, -1, 2**64 - 1])
def test_next_seed_is_no_shifted_copy(seed):
    # over radix 2^63 - 1 the entries are all but raw 64-bit words, so a
    # copy of one stream shifted by fewer than 4096 entries would share
    # values with the other; two sets of 4096 random words meet with odds
    # about 2^24 / 2^63
    a = random_rows(seed, (2**63 - 1,), 0, 4096).ravel()
    b = random_rows(seed + 1, (2**63 - 1,), 0, 4096).ravel()
    assert not set(a.tolist()) & set(b.tolist())


@pytest.mark.parametrize("r", [2, 3])
def test_frequencies_near_uniform(r):
    n = 10**5
    counts = np.bincount(random_rows(2024, (r,) * 10, 0, n // 10).ravel(), minlength=r)
    sigma = (n * (1 / r) * (1 - 1 / r)) ** 0.5
    assert counts.sum() == n
    assert (abs(counts - n / r) < 5 * sigma).all(), counts


def test_draw_without_a_seed_refused():
    with pytest.raises(AlgebraError, match="seed"):
        random_rows(None, (2, 3), 0, 1)
    with pytest.raises(AlgebraError, match="seed"):
        next(_tuples(matrix_algebra(ZMod(6), 1), 2, 5, None)(10))
    f, s4 = diagonal_embed(ZMod(5), 2, 2), standard_identity(4)
    with pytest.raises(AlgebraError, match="seed"):
        identity_transfer_check(f, s4, trials=10, seed=None)
    # the jordan probe reads the Jordan types and draws nothing, so it needs
    # no seed
    rep = jordan_obstruction_probe(3, matrix_algebra(ZMod(5), 3), seed=None)
    assert rep.status == "pass" and rep.details == {"jordan_types": 3, "largest_index": 3}


def test_no_library_module_imports_random():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "random" not in {a.name.split(".")[0] for a in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "random", path.name


def test_pinned_sampled_reports_do_not_depend_on_the_rows_drawn(monkeypatch, capsys):
    # the pinned transfer over radices (4, 2, 2) passes and records only its
    # count, so another seed's rows give the same bytes
    draw, seeds = identities.random_rows, []

    def next_seed(seed, *args):
        seeds.append(seed)
        return draw(seed + 1, *args)

    monkeypatch.setattr(identities, "random_rows", next_seed)
    assert main(["check", "all", "--config", str(CONFIGS / "gf_product.json"), "--seed", "42"]) == 0
    assert capsys.readouterr().out == (CONFIGS / "gf_product.expected").read_text()
    assert seeds == [42]  # the transfer drew under the patch

"""`algebras.random_rows`, which replays rng.randrange from the generator's
32-bit words in bulk, against the per-draw loop it replaced
(tests/loop_oracles.py): the same draws and the same generator state after."""

import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya import algebras
from azumaya.algebras import random_rows, splitting, weyl_quotient
from azumaya.homs import diagonal_embed
from azumaya.identities import identity_transfer_check, standard_identity
from azumaya.rings import ZMod
from azumaya.suites import suite_jordan_lem32
from loop_oracles import identity_transfer_check_loop, random_rows_loop

CONFIGS = Path(__file__).parent / "configs"

# one word per draw up to 2^32 - 1; 2^32 and up take two, the last shifted
_ONE_RADIX = [1, 2, 3, 5, 12, 2**31 - 1, 2**32 - 1, 2**32, 3000000021, 2**61 - 1]
# which radix an attempt serves depends on the rejections before it
_MIXED = [(4, 2, 2) * 4, (2, 3), (3, 2**61 - 1)]


def _assert_same_draws(radices, T, seed):
    rng, loop_rng = random.Random(seed), random.Random(seed)
    got, want = random_rows(rng, radices, T), random_rows_loop(loop_rng, radices, T)
    assert got.dtype == want.dtype and got.shape == want.shape == (T, len(radices))
    assert np.array_equal(got, want)
    assert rng.getrandbits(64) == loop_rng.getrandbits(64)


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
    st.integers(1, 40),
    st.integers(2**31 - 8, 2**32 + 8),
    st.integers(2**32 + 9, 2**63 - 1),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_RADIX, min_size=1, max_size=5), st.integers(0, 2**64), st.integers(0, 60))
def test_short_mixed_tuples_match_loop(radices, seed, T):
    _assert_same_draws(tuple(radices), T, seed)


@pytest.mark.parametrize("radices", [(0,), (3, 2**63), (-1, 2)])
def test_radix_outside_int64_draws_refused(radices):
    with pytest.raises(ValueError, match="radices"):
        random_rows(random.Random(0), radices, 1)


def test_seeded_checks_never_call_randrange(monkeypatch):
    # the jordan suite, a sampled transfer and the splitting certificate's
    # draws all come from random_rows, so their reports survive a
    # randrange that raises
    f, s4 = diagonal_embed(ZMod(5), 2, 2), standard_identity(4)
    transfer = identity_transfer_check_loop(f, s4, trials=100, seed=5).comparable_dict()
    W = weyl_quotient(5, 1, 1, check=False)
    with monkeypatch.context() as loop:
        loop.setattr(algebras, "random_rows", random_rows_loop)
        split = splitting(W).matrix

    def no_randrange(self, *args, **kwargs):
        raise AssertionError("randrange called")

    monkeypatch.setattr(random.Random, "randrange", no_randrange)
    reports = [r.comparable_dict() for r in suite_jordan_lem32(seed=42)]
    stream = json.dumps({"reports": reports}, sort_keys=True) + "\n"
    assert stream == (CONFIGS / "jordan-lem32.expected").read_text()
    assert identity_transfer_check(f, s4, trials=100, seed=5).comparable_dict() == transfer
    assert np.array_equal(splitting(W).matrix, split)

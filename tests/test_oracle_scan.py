"""The slice scan's shortcuts, checked on the games the identity suite draws.

`enumerate_grid` runs the ESE and VSE tests only on rows below their
slice's kC (or on every row of a fallback slice): above kC player n can
step down one grid step and stay satisfied, so the point is neither an ESE
nor a VSE candidate. Here the tests run on every band row instead, and no
candidate may turn up at or above kC. The
benchmark's verify_2p deck, loaded from perfbench/decks.py (only read),
must give the exhaustive reference's arrays bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from segic import GameSpec, enumerate_grid
from segic import oracle

from helpers import perfbench_decks, random_two_player
from test_oracle_identity import assert_identical, small_games


def band_candidates(game, step):
    """Counts over the final band rows at or above kC in slices that do not fall back.

    Returns (SE rows there, ESE or VSE candidates there) with the candidate
    tests run on every band row.
    """
    seen = {}
    classify, contradicted = oracle._classify, oracle._contradicted

    def unrestricted(game, P, grid_step, cand):
        seen["masks"] = classify(game, P, grid_step, np.ones_like(cand))
        return seen["masks"]

    def record(ends, sat, s, k):
        seen["rows"] = ends, s, k
        return contradicted(ends, sat, s, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_classify", unrestricted)
        mp.setattr(oracle, "_contradicted", record)
        enumerate_grid(game, step)
    _, se, ese, vse = seen["masks"]
    ends, s, k = seen["rows"]
    above = ~ends.fallback[s] & (k >= ends.kC[s])
    return int(np.sum(above & se)), int(np.sum(above & (ese | vse)))


def test_no_candidate_from_kC_up_in_criterion_2_draws():
    rng = np.random.default_rng(0)
    tested = 0
    for _ in range(1000):
        game = random_two_player(rng)
        se_rows, found = band_candidates(game, game.p_max / 200.0)
        assert found == 0
        tested += se_rows
    assert tested > 0  # the claim was put to the test on some SE rows


def test_no_candidate_from_kC_up_in_three_player_draws():
    rng = np.random.default_rng(3)
    tested = 0
    for _ in range(40):
        a = 10.0 ** rng.uniform(-2, 0, (3, 3))
        np.fill_diagonal(a, 1.0)
        game = GameSpec(attenuation=a, noise=10.0 ** rng.uniform(-2, 0, 3),
                        thresholds=10.0 ** rng.uniform(-1.5, 0, 3), p_max=10.0)
        se_rows, found = band_candidates(game, game.p_max / 40.0)
        assert found == 0
        tested += se_rows
    assert tested > 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_games())
def test_no_candidate_from_kC_up_in_small_random_games(case):
    game, step = case
    assert band_candidates(game, step)[1] == 0


def test_verify_2p_deck_matches_reference():
    deck = perfbench_decks().verify_deck(1)
    assert len(deck) == 148
    for op in deck:
        game = GameSpec(attenuation=op.a, noise=op.noise, thresholds=op.gammas, p_max=op.p_max)
        assert_identical(game, game.p_max / (200.0 if game.n == 2 else 40.0))

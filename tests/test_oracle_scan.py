"""The slice scan's shortcuts, checked on the games the identity suite draws.

`enumerate_grid` runs the ESE and VSE tests only on rows below their
slice's kC (or on every row of a fallback slice): above kC player n can
step down one grid step and stay satisfied, so the point is neither an ESE
nor a VSE candidate. Here the tests run on every band row instead, and no
candidate may turn up at or above kC. The
benchmark's verify_2p deck, loaded from perfbench/decks.py (only read),
must give the exhaustive reference's arrays bit for bit. g_best and
g_worst, read from the slice runs, must be the rows that the first argmin
and argmax of the expanded runs' sums pick, on runs of every shape.
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


def random_runs(rng, n):
    """Runs of random shape over a small grid, in the layout `_se_points` reads.

    Each slice gets a random interior [a1, b1) and random SE rows below and
    above it, some slices none. Half the grids put p_n's rows next to
    1e16, where a slice's consecutive row sums can round to one value.
    """
    axis = np.arange(6.0)
    if rng.random() < 0.5:
        axis = np.r_[axis, 1e16 + 2.0 * np.arange(4)]
    m = axis.size
    prefix = oracle._slices(axis, n - 1)
    a1, b1, band_se, k_se = [], [], [], []
    for _ in range(prefix.shape[0]):
        lo, hi = np.sort(rng.integers(0, m + 1, 2))
        if rng.random() < 0.3:
            hi = lo  # no interior
        below = np.flatnonzero(rng.random(lo) < 0.5)
        above = hi + np.flatnonzero(rng.random(m - hi) < 0.5)
        a1.append(lo)
        b1.append(hi)
        band_se += [below.size, above.size]
        k_se += [*below, *above]
    return (prefix, axis, np.array(a1), np.array(b1), np.array(band_se),
            np.array(k_se, dtype=np.intp))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extremes_match_expanded_runs(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(300):
        runs = random_runs(rng, n)
        g_best, g_worst = oracle._extremes(*runs)
        points = oracle._se_points(*runs)
        if points.shape[0] == 0:
            assert g_best is None and g_worst is None
            continue
        sums = points.sum(axis=1)
        assert g_best.tobytes() == points[int(np.argmin(sums))].tobytes()
        assert g_worst.tobytes() == points[int(np.argmax(sums))].tobytes()

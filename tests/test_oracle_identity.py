"""The slice scan returns the exhaustive scan's arrays, bit for bit.

`reference_oracle.enumerate_grid` classifies every grid point; the
production scan classifies only bands around each slice's interval ends.
Every array of the result must match exactly: same values, same order,
same shape, and None where the reference has None. `se_points` is expanded
from the scan's runs on access, and `se_count` must equal its length.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segic import GameSpec, InvalidInputError, enumerate_grid, load_scenario
from segic import oracle

import reference_oracle
from helpers import random_two_player

FIELDS = ("se_points", "ese_candidates", "vse_candidates", "g_best", "g_worst")
SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))


def assert_identical(game, step):
    got = enumerate_grid(game, step)
    want = reference_oracle.enumerate_grid(game, step)
    assert got.grid_step == want.grid_step
    for field in FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        if b is None:
            assert a is None, field
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.flags.c_contiguous == b.flags.c_contiguous, field
        assert np.array_equal(a, b), field
    assert got.se_count == want.se_points.shape[0]
    assert got.is_empty == want.is_empty
    # a VSE candidate cannot step down and stay satisfied, so it is an ESE candidate
    ese = {tuple(row) for row in got.ese_candidates}
    assert all(tuple(row) in ese for row in got.vse_candidates)


def default_step(game):
    return game.p_max / (200.0 if game.n <= 2 else 40.0)


def test_criterion_2_draws():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        game = random_two_player(rng)
        assert_identical(game, game.p_max / 200.0)


def test_three_player_draws():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a = 10.0 ** rng.uniform(-2, 0, (3, 3))
        np.fill_diagonal(a, 1.0)
        game = GameSpec(attenuation=a, noise=10.0 ** rng.uniform(-2, 0, 3),
                        thresholds=10.0 ** rng.uniform(-1.5, 0, 3), p_max=10.0)
        assert_identical(game, game.p_max / 40.0)


@pytest.mark.parametrize("step", [0.01, 0.05, 0.25, 0.3, 0.005])
def test_reference_game_steps(g0, step):
    assert_identical(g0, step)


@pytest.mark.parametrize("step", [0.125, 0.0625, 0.03125])
def test_boundaries_through_grid_points(step):
    # dyadic data: both floors are p_other / 2 + 1/8 exactly, so whole rows
    # of grid points sit on a boundary and SAT_TOL decides them
    game = GameSpec(attenuation=[[1.0, 0.5], [0.5, 1.0]], noise=[0.125, 0.125],
                    thresholds=[0.5, 0.5], p_max=1.0)
    assert_identical(game, step)


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenarios(path):
    game, _ = load_scenario(path)
    assert_identical(game, default_step(game))


def _g0_variant(g0, **changes):
    fields = dict(attenuation=g0.attenuation, noise=g0.noise,
                  thresholds=g0.thresholds, p_max=g0.p_max)
    fields.update(changes)
    return GameSpec(**fields)


@pytest.mark.parametrize("step", [0.25, 0.05])
def test_tiny_thresholds(g0, step):
    assert_identical(_g0_variant(g0, thresholds=[1e-15, 1e-15]), step)


def test_one_zero_threshold(g0):
    assert_identical(_g0_variant(g0, thresholds=[0.0, 0.5]), 0.01)
    assert_identical(_g0_variant(g0, thresholds=[0.5, 0.0]), 0.01)


def test_zero_cross_gains(g0):
    assert_identical(_g0_variant(g0, attenuation=np.eye(2)), 0.01)
    assert_identical(_g0_variant(g0, attenuation=[[1.0, 0.0], [0.5, 1.0]]), 0.01)
    assert_identical(_g0_variant(g0, attenuation=[[1.0, 0.5], [0.0, 1.0]]), 0.01)
    # player 1's noise of 1e20 rounds its rate to 0 at every positive grid power
    assert_identical(GameSpec(attenuation=np.eye(2), noise=[1e20, 0.1],
                              thresholds=[0.0, 0.5], p_max=10.0), 0.05)


@pytest.mark.parametrize("scale", [1e-9, 1e-10, 1e-12])
def test_scaled_down_game(g0, scale):
    # powers and noise scaled down until SAT_TOL is a grid step and more:
    # at 1e-10 one grid step is half SAT_TOL, and at 1e-12 SAT_TOL spans the
    # whole box
    game = _g0_variant(g0, noise=g0.noise * scale, p_max=scale)
    assert_identical(game, game.p_max / 200.0)


@pytest.mark.parametrize("step", [1.5e-12, 1.8e-12])
def test_step_below_two_sat_tol(step):
    # ESE candidates reach p_n = floor + step + SAT_TOL, three rows above the
    # floor when step < 2 * SAT_TOL, while VSE candidates stay below
    # floor + step - SAT_TOL, less than one row above it
    p_max = 200.0 * step
    game = GameSpec(attenuation=[[1.0, 0.5], [0.5, 1.0]], noise=[10.0 * p_max] * 2,
                    thresholds=[np.log(1.05) / np.log(4.0)] * 2, p_max=p_max)
    assert_identical(game, step)


@pytest.mark.parametrize("last", [True, False])
def test_cancelling_interference(last):
    # interference of 1e-15 * p next to a player's own power of up to 10:
    # (p_j * 1e-15 + p_i) - p_i keeps few digits, and a floor factor of 1e15
    # turns that into a floor that jitters by whole grid rows
    gfac = np.log(1e15 + 1.0) / np.log(4.0)
    a, noise, gammas = [[1.0, 1e-15], [0.1, 1.0]], [0.1, 1e-15], [0.1, gfac]
    if not last:  # the same game with the players swapped
        a, noise, gammas = [[1.0, 0.1], [1e-15, 1.0]], noise[::-1], gammas[::-1]
    game = GameSpec(attenuation=a, noise=noise, thresholds=gammas, p_max=10.0)
    assert_identical(game, 0.05)


@pytest.mark.parametrize("gammas", [[600.0, 0.5], [0.5, 600.0]])
def test_overflowing_threshold(gammas):
    # 4**600 overflows to an infinite floor factor: no game to scan
    player = gammas.index(600.0)
    with pytest.raises(InvalidInputError, match=rf"thresholds\[{player}\] = 600\.0 overflows"):
        GameSpec(attenuation=[[1.0, 0.5], [0.5, 1.0]], noise=[0.1, 0.1],
                 thresholds=gammas, p_max=1.0)


def test_single_player():
    game = GameSpec(attenuation=[[1.0]], noise=[0.1], thresholds=[0.5], p_max=1.0)
    for step in (0.01, 0.3, 0.1):
        assert_identical(game, step)


def test_four_players_coarse():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = 10.0 ** rng.uniform(-2, -0.5, (4, 4))
        np.fill_diagonal(a, 1.0)
        game = GameSpec(attenuation=a, noise=10.0 ** rng.uniform(-2, 0, 4),
                        thresholds=rng.uniform(0.05, 0.5, 4), p_max=1.0)
        assert_identical(game, 0.125)


def test_bands_that_miss_their_end_fall_back(g0, monkeypatch):
    # shift the predicted ends by three rows: every band then sees a row on
    # the wrong side of its end, and the slice is classified row by row
    place = oracle._slice_ends

    def misplaced(*args):
        ends = place(*args)
        ends.kL = ends.kL + 3
        ends.kU = ends.kU - 3
        return ends

    monkeypatch.setattr(oracle, "_slice_ends", misplaced)
    assert_identical(g0, 0.01)
    assert_identical(g0, 0.3)


@st.composite
def small_games(draw):
    n = draw(st.integers(1, 3))
    positive = st.floats(1e-3, 3.0)
    a = np.array([[draw(st.sampled_from([0.0, 1.0]) | positive) for _ in range(n)]
                  for _ in range(n)])
    np.fill_diagonal(a, 1.0)
    noise = [draw(positive) for _ in range(n)]
    gammas = [draw(st.sampled_from([0.0, 1e-15]) | st.floats(1e-3, 2.0)) for _ in range(n)]
    p_max = draw(st.sampled_from([1.0, 10.0, 0.3]))
    game = GameSpec(attenuation=a, noise=noise, thresholds=gammas, p_max=p_max)
    cells = draw(st.integers(1, 30 if n < 3 else 12))
    return game, p_max / cells


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_games())
def test_small_random_games(case):
    game, step = case
    assert_identical(game, step)

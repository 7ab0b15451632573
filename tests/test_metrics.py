from dataclasses import replace

import numpy as np
import pytest

from segic import (
    GameSpec,
    NoEquilibriumError,
    enumerate_grid,
    is_satisfaction_equilibrium,
    max_price_of_satisfaction,
    price_of_efficiency,
    solve_ese,
)
from segic.model import SAT_TOL

from helpers import draw_feasible_in_box


class TestPriceOfEfficiency:
    def test_reference_game(self, g0):
        poe = price_of_efficiency(g0, enumerate_grid(g0, 0.01))
        assert poe == pytest.approx(1.0, abs=1e-9)

    def test_single_player(self):
        game = GameSpec(attenuation=[[1.0]], noise=[0.1], thresholds=[0.5], p_max=1.0)
        poe = price_of_efficiency(game, enumerate_grid(game, 0.01))
        assert poe == 1.0

    def test_empty_se_set_raises(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation, noise=g0.noise, thresholds=[1, 1], p_max=1.0
        )
        with pytest.raises(NoEquilibriumError):
            price_of_efficiency(game, enumerate_grid(game, 0.01))

    def test_random_feasible_games(self):
        rng = np.random.default_rng(21)
        for game, _ in draw_feasible_in_box(rng, 20):
            poe = price_of_efficiency(game, enumerate_grid(game, game.p_max / 200.0))
            assert poe == pytest.approx(1.0, abs=1e-6)

    def test_candidate_outside_bound_raises(self, g0):
        # an ESE candidate has ese - SAT_TOL w <= p <= ese + (step + SAT_TOL) w
        # with w = A^-1 1; move one a further step * w above that
        scan = enumerate_grid(g0, 0.01)
        w = np.linalg.solve(g0.A, np.ones(2))
        moved = scan.ese_candidates.copy()
        moved[0] = solve_ese(g0) + (2 * scan.grid_step + SAT_TOL) * w
        with pytest.raises(NoEquilibriumError, match="ESE candidate row 0"):
            price_of_efficiency(g0, replace(scan, ese_candidates=moved))


class TestMaxPriceOfSatisfaction:
    def test_reference_game(self, g0):
        mposa, worst = max_price_of_satisfaction(g0)
        assert mposa == pytest.approx(5.0, abs=1e-9)
        np.testing.assert_allclose(worst, [1.0, 1.0])
        # the oracle confirms (1, 1) is the g-worst SE
        oracle_worst = enumerate_grid(g0, 0.01).g_worst
        np.testing.assert_allclose(oracle_worst, worst, atol=1e-12)

    def test_ese_at_corner_gives_one(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation,
            noise=g0.noise,
            thresholds=g0.thresholds,
            p_max=0.2,
        )
        mposa, worst = max_price_of_satisfaction(game)
        assert mposa == pytest.approx(1.0, abs=1e-12)

    def test_single_player_interval(self):
        game = GameSpec(attenuation=[[1.0]], noise=[0.1], thresholds=[0.5], p_max=1.0)
        mposa, worst = max_price_of_satisfaction(game)
        assert mposa == pytest.approx(10.0, abs=1e-12)
        np.testing.assert_allclose(worst, [1.0])

    def test_full_power_formula_consistency(self):
        rng = np.random.default_rng(22)
        for game, ese in draw_feasible_in_box(rng, 50):
            full = np.full(game.n, game.p_max)
            if not is_satisfaction_equilibrium(game, full):
                continue
            mposa, worst = max_price_of_satisfaction(game)
            np.testing.assert_allclose(worst, full)
            expected = game.n * game.p_max / ese.sum()
            assert mposa == pytest.approx(expected, rel=1e-12)

    def test_corner_not_se_uses_polytope_worst(self):
        # asymmetric coupling: player 1 can never be satisfied at (p_max, p_max)
        game = GameSpec(
            attenuation=[[1.0, 0.1], [1.0, 1.0]],
            noise=[0.1, 0.1],
            thresholds=[1.0, 0.3],
            p_max=10.0,
        )
        full = np.full(2, game.p_max)
        assert not is_satisfaction_equilibrium(game, full)
        mposa, worst = max_price_of_satisfaction(game)
        assert is_satisfaction_equilibrium(game, worst, tol=1e-7)
        # grid scan agrees on the maximal total power among SEs
        oracle_worst = enumerate_grid(game, game.p_max / 200.0).g_worst
        assert worst.sum() >= oracle_worst.sum() - 1e-9
        assert abs(worst.sum() - oracle_worst.sum()) <= 2 * (game.p_max / 200.0) * 2
        assert mposa >= 1.0

    def test_mposa_at_least_one(self):
        rng = np.random.default_rng(23)
        for game, _ in draw_feasible_in_box(rng, 100):
            mposa, _ = max_price_of_satisfaction(game)
            assert mposa >= 1.0 - 1e-12

    def test_empty_se_raises(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation, noise=g0.noise, thresholds=[1, 1], p_max=1.0
        )
        with pytest.raises(NoEquilibriumError):
            max_price_of_satisfaction(game)

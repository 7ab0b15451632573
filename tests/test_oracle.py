import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from segic import GameSpec, enumerate_grid, exists_two_player, price_of_efficiency, solve_ese
from segic.model import satisfied_mask
from segic.oracle import ResourceLimitError

from helpers import draw_feasible_in_box, random_two_player, try_ese


class TestEnumerate:
    def test_reference_game_candidates(self, g0):
        result = enumerate_grid(g0, 0.01)
        assert result.ese_candidates.shape[0] >= 1
        # the exact ESE (0.2, 0.2) is itself a grid point and must be listed
        dists = np.max(np.abs(result.ese_candidates - [0.2, 0.2]), axis=1)
        assert dists.min() <= 1e-12
        # every candidate sits within a couple of steps of the closed form
        assert dists.max() <= 2 * 0.01 + 1e-12

    def test_infeasible_game_empty(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation, noise=g0.noise, thresholds=[1, 1], p_max=1.0
        )
        result = enumerate_grid(game, 0.01)
        assert result.is_empty
        assert result.g_best is None and result.g_worst is None

    def test_tiny_threshold_whole_grid(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation,
            noise=g0.noise,
            thresholds=[1e-15, 1e-15],
            p_max=1.0,
        )
        result = enumerate_grid(game, 0.25)
        assert result.se_points.shape[0] == 5**2
        np.testing.assert_allclose(result.g_worst, [1.0, 1.0])

    def test_grid_budget_guard(self, g0):
        with pytest.raises(ResourceLimitError, match="budget"):
            enumerate_grid(g0, 1e-5)

    def test_endpoints_included(self, g0):
        result = enumerate_grid(g0, 0.3)  # 0.3 does not divide 1.0
        assert np.any(np.isclose(result.se_points[:, 0], 1.0))

    def test_points_reverify(self, g0):
        result = enumerate_grid(g0, 0.05)
        for p in result.se_points:
            assert np.all(satisfied_mask(g0, p))
        for name in ("ese_candidates", "vse_candidates"):
            pts = getattr(result, name)
            assert all(tuple(p) in {tuple(q) for q in result.se_points} for p in pts)

    def test_vse_candidate_at_zero_power(self):
        # player 1's rate rounds to 0 at every positive grid power (noise
        # 1e20), yet its ratio still rises with its power: (0, 0.1) is the
        # only point where no player can step down and stay satisfied
        game = GameSpec(attenuation=np.eye(2), noise=[1e20, 0.1],
                        thresholds=[0.0, 0.5], p_max=10.0)
        result = enumerate_grid(game, 0.05)
        assert result.vse_candidates.tolist() == [[0.0, 0.1]]

    def test_lexicographic_order(self, g0):
        pts = enumerate_grid(g0, 0.05).se_points
        keys = [tuple(p) for p in pts]
        assert keys == sorted(keys)


class TestLazySEPoints:
    def test_scan_and_poe_leave_se_points_unbuilt(self, g0):
        result = enumerate_grid(g0, 0.01)
        assert price_of_efficiency(g0, result) == 1.0
        assert not result.is_empty and result.se_count > 0
        assert "se_points" not in vars(result)

    def test_replace_expands_again(self, g0):
        result = enumerate_grid(g0, 0.05)
        points = result.se_points
        assert result.se_points is points and points.shape[0] == result.se_count
        twin = replace(result)
        assert "se_points" not in vars(twin)
        assert twin.se_points is not points
        assert twin.se_points.tobytes() == points.tobytes()

    def test_fine_scan_memory_stays_below_its_se_points(self, g0):
        # 1001^2 = 1,002,001 grid points and 320,801 SE points, whose array
        # alone takes 5.1 MB; the scan keeps only band rows and runs
        tracemalloc.start()
        try:
            result = enumerate_grid(g0, 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert result.se_count == 320_801


class TestOracleAgreement:
    def test_ese_near_candidate(self):
        # closed-form ESE sits within two grid steps of an oracle candidate
        rng = np.random.default_rng(7)
        for game, ese in draw_feasible_in_box(rng, 50):
            step = game.p_max / 200.0
            cands = enumerate_grid(game, step).ese_candidates
            assert cands.shape[0] >= 1
            assert np.min(np.max(np.abs(cands - ese), axis=1)) <= 2 * step + 1e-12

    def test_emptiness_iff_no_boxed_ese(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            game = random_two_player(rng)
            ese = try_ese(game)
            feasible = ese is not None and bool(np.all(ese <= game.p_max))
            result = enumerate_grid(game, game.p_max / 200.0)
            if feasible:
                assert not result.is_empty
            elif ese is None:
                assert result.is_empty
            # exists-but-out-of-box draws are exempt: the grid may or may
            # not capture region points below the cap

from itertools import islice

import mpmath
import numpy as np
import pytest

from segic import (
    GameSpec,
    InvalidInputError,
    NoEquilibriumError,
    analyze,
    cost_ratios,
    enumerate_grid,
    ese_two_player,
    exists_two_player,
    interference,
    is_efficient_se,
    is_satisfaction_equilibrium,
    is_valued_se,
    min_satisfying_powers,
    satisfaction_response_dynamics,
    satisfaction_response_iterates,
    satisfied_mask,
    solve_ese,
    utilities,
)
from segic.analysis import DimensionError

from helpers import random_two_player


def symmetric_game(n, a, gamma, noise, p_max=1.0):
    att = np.full((n, n), a)
    np.fill_diagonal(att, 1.0)
    return GameSpec(
        attenuation=att, noise=[noise] * n, thresholds=[gamma] * n, p_max=p_max
    )


class TestBuildSystem:
    """The SE system A p >= b each game derives at construction."""

    def test_reference_game(self, g0):
        np.testing.assert_allclose(g0.A, [[1.0, -0.5], [-0.5, 1.0]], atol=1e-15)
        np.testing.assert_allclose(g0.b, [0.1, 0.1], atol=1e-15)

    def test_zero_threshold_limit(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation, noise=g0.noise, thresholds=[0, 0], p_max=1.0
        )
        np.testing.assert_allclose(game.A, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(game.b, [0.0, 0.0], atol=1e-15)

    def test_three_player_symmetric(self):
        game = symmetric_game(3, a=0.1, gamma=0.5, noise=0.1)
        expected = np.eye(3) - 0.1 * (np.ones((3, 3)) - np.eye(3))
        np.testing.assert_allclose(game.A, expected, atol=1e-15)
        np.testing.assert_allclose(game.b, [0.1, 0.1, 0.1], atol=1e-15)

    def test_offdiagonals_nonpositive_b_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            game = random_two_player(rng)
            off = game.A[~np.eye(2, dtype=bool)]
            assert np.all(off <= 0.0)
            assert np.all(game.b > 0.0)


class TestExistsTwoPlayer:
    def test_reference_game(self, g0):
        exists, product = exists_two_player(g0)
        assert exists and product == pytest.approx(0.25, abs=1e-15)

    def test_high_thresholds_infeasible(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation, noise=g0.noise, thresholds=[1, 1], p_max=1.0
        )
        exists, product = exists_two_player(game)
        assert not exists and product == pytest.approx(2.25, abs=1e-12)

    def test_vanishing_coupling_always_exists(self):
        game = GameSpec(
            attenuation=[[1, 1e-12], [1e-12, 1]],
            noise=[0.1, 0.1],
            thresholds=[5.0, 5.0],
            p_max=1.0,
        )
        exists, product = exists_two_player(game)
        assert exists and product < 1e-6

    def test_wrong_player_count(self):
        with pytest.raises(DimensionError):
            exists_two_player(symmetric_game(3, 0.1, 0.5, 0.1))


class TestEseTwoPlayer:
    def test_reference_game(self, g0):
        np.testing.assert_allclose(ese_two_player(g0), [0.2, 0.2], atol=1e-15)

    def test_decoupled_limit(self):
        game = GameSpec(
            attenuation=[[1, 0], [0, 1]],
            noise=[0.1, 0.3],
            thresholds=[0.5, 1.0],
            p_max=10.0,
        )
        np.testing.assert_allclose(ese_two_player(game), [0.1, 0.9], atol=1e-14)

    def test_infeasible_raises_with_product(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation, noise=g0.noise, thresholds=[1, 1], p_max=1.0
        )
        with pytest.raises(NoEquilibriumError) as err:
            ese_two_player(game)
        assert err.value.condition_product == pytest.approx(2.25, abs=1e-12)


class TestSolveEse:
    def test_matches_two_player_closed_form(self, g0):
        np.testing.assert_allclose(solve_ese(g0), ese_two_player(g0), atol=1e-12)

    def test_three_player_symmetric(self):
        # p = 0.2 p + 0.1 per player -> p = 0.125
        ese = solve_ese(symmetric_game(3, a=0.1, gamma=0.5, noise=0.1))
        np.testing.assert_allclose(ese, [0.125, 0.125, 0.125], atol=1e-14)

    def test_single_player(self):
        game = GameSpec(attenuation=[[1.0]], noise=[0.1], thresholds=[0.5], p_max=1.0)
        np.testing.assert_allclose(solve_ese(game), [0.1], atol=1e-15)

    def test_infeasible_raises(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation, noise=g0.noise, thresholds=[1, 1], p_max=1.0
        )
        with pytest.raises(NoEquilibriumError):
            solve_ese(game)

    def test_boundary_tightness_random(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            game = random_two_player(rng)
            if not exists_two_player(game)[0]:
                continue
            ese = solve_ese(game)
            np.testing.assert_allclose(
                utilities(game, ese), game.thresholds, atol=1e-9
            )
            checked += 1

    def test_existence_iff_nonnegative_solution(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            game = random_two_player(rng)
            exists, _ = exists_two_player(game)
            try:
                solve_ese(game)
                solvable = True
            except NoEquilibriumError:
                solvable = False
            assert exists == solvable


class TestDynamics:
    def test_converges_to_ese(self, g0):
        p, iters, converged = satisfaction_response_dynamics(
            g0, [0.0, 0.0], max_iters=10000, tol=1e-9
        )
        assert converged
        np.testing.assert_allclose(p, [0.2, 0.2], atol=1e-8)

    def test_zero_threshold_fixed_point(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation, noise=g0.noise, thresholds=[0, 0], p_max=1.0
        )
        p, iters, converged = satisfaction_response_dynamics(game, [0.0, 0.0])
        assert converged and iters == 1
        np.testing.assert_allclose(p, [0.0, 0.0], atol=0.0)

    def test_infeasible_clamps_at_cap(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation, noise=g0.noise, thresholds=[1, 1], p_max=1.0
        )
        p, _, converged = satisfaction_response_dynamics(game, [0.0, 0.0])
        assert converged
        np.testing.assert_allclose(p, [1.0, 1.0], atol=1e-12)
        assert not is_satisfaction_equilibrium(game, p)

    def test_monotone_from_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            game = random_two_player(rng)
            p = np.zeros(2)
            for _ in range(200):
                nxt, _, converged = satisfaction_response_dynamics(
                    game, p, max_iters=1, tol=1e-12
                )
                assert np.all(nxt >= p - 1e-12 * np.maximum(1.0, p))
                p = nxt
                if converged:
                    break

    def test_rounds_are_fresh_clamped_responses(self):
        rng = np.random.default_rng(17)
        games = [random_two_player(rng) for _ in range(20)]
        for n in (1, 3, 6):
            a = rng.uniform(0.0, 0.5, (n, n))
            np.fill_diagonal(a, 1.0)
            games.append(GameSpec(attenuation=a, noise=rng.uniform(0.01, 1.0, n),
                                  thresholds=rng.uniform(0.0, 1.0, n), p_max=10.0))
        for game in games:
            prev = np.zeros(game.n)
            kept = []
            for p, _ in islice(satisfaction_response_iterates(game, prev, tol=1e-12), 300):
                want = np.minimum(min_satisfying_powers(game, prev), game.p_max)
                assert p.tobytes() == want.tobytes()
                kept.append((p, p.copy()))
                prev = p
            # later rounds never write into an array already handed out
            for p, copy in kept:
                assert p.tobytes() == copy.tobytes()

    @pytest.mark.parametrize(
        "max_iters", [2.5, True, False, 0, -1, np.float64(3.0), "3", None], ids=repr
    )
    def test_max_iters_must_be_an_integer(self, g0, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            satisfaction_response_dynamics(g0, [0.0, 0.0], max_iters=max_iters)

    def test_round_count_is_an_int(self, g0):
        p, iters, converged = satisfaction_response_dynamics(g0, [0.0, 0.0], max_iters=np.int64(3))
        assert type(iters) is int and iters == 3 and not converged
        p, iters, converged = satisfaction_response_dynamics(g0, [0.0, 0.0])
        assert type(iters) is int and converged

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_iterates_check_tol_when_called(self, g0, tol):
        with pytest.raises(ValueError, match="tol"):
            satisfaction_response_iterates(g0, [5.0, 5.0], tol=tol)

    def test_iterates_check_profile_when_called(self, g0):
        with pytest.raises(InvalidInputError, match="outside"):
            satisfaction_response_iterates(g0, [5.0, 5.0])


class TestPredicates:
    def test_is_se_cases(self, g0):
        assert is_satisfaction_equilibrium(g0, [0.2, 0.2])
        assert is_satisfaction_equilibrium(g0, [1.0, 1.0])
        assert not is_satisfaction_equilibrium(g0, [0.2, 0.1])

    def test_is_efficient_se_cases(self, g0):
        assert is_efficient_se(g0, [0.2, 0.2])
        assert not is_efficient_se(g0, [1.0, 1.0])
        assert not is_efficient_se(g0, [0.2, 0.1])  # not even an SE

    def test_is_valued_se_cases(self, g0):
        assert is_valued_se(g0, [0.2, 0.2], grid_step=0.01)
        assert not is_valued_se(g0, [1.0, 1.0], grid_step=0.01)

    def test_single_player_floor_at_cap(self):
        # satisfying interval degenerates to the single point p_max
        game = GameSpec(attenuation=[[1.0]], noise=[0.1], thresholds=[0.5], p_max=0.1)
        assert is_valued_se(game, [0.1], grid_step=0.01)

    def test_tiny_power_keeps_ratio_finite(self):
        # 1 + 1e-19 rounds to 1, so u_1 is 0 while p_1 > 0; the ratio takes its
        # p_1 -> 0 limit instead of inf, and the profile stays a valued SE
        game = GameSpec(attenuation=[[1.0, 0.5], [0.5, 1.0]], noise=[0.1, 0.1],
                        thresholds=[0.0, 0.5], p_max=1.0)
        p = [1e-20, 0.1]
        ratio = cost_ratios(game, p)[0]
        assert np.isfinite(ratio)
        assert ratio == pytest.approx(2.0 * np.log(2.0) * interference(game, p)[0],
                                      rel=1e-12, abs=0.0)
        assert is_efficient_se(game, p)
        assert is_valued_se(game, p, 0.01)

    def test_valued_se_matches_scan_reference(self):
        rng = np.random.default_rng(16)
        verdicts = []
        for n in (2, 3, 4, 8):
            for game, ese in _feasible_games(rng, n, 12):
                step = game.p_max / 200.0
                scaled = np.minimum(ese * (1.0 + rng.uniform(0.0, 2e-6, n)), game.p_max)
                profiles = [ese, scaled, np.full(n, game.p_max),
                            *rng.uniform(0.0, game.p_max, (4, n)),
                            *rng.uniform(ese, game.p_max, (4, n))]
                for p in profiles:
                    verdict = is_valued_se(game, p, step)
                    assert verdict == _scanned_valued_se(game, p, step)
                    assert verdict == is_efficient_se(game, p)
                    verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_ratio_monotone_in_own_power(self):
        # the lemma behind is_valued_se and the oracle's VSE test, checked in
        # 60-digit arithmetic on the games' own float data: with the others
        # fixed, p_i / u_i rises strictly from its p_i -> 0 limit 2 ln2 * I_i
        rng = np.random.default_rng(14)
        games = [GameSpec(attenuation=np.eye(2), noise=[1e20, 0.1],
                          thresholds=[0.0, 0.5], p_max=10.0)]  # u_1 rounds to 0 below ~1e4
        for n in (2, 3, 4) * 5:
            a = 10.0 ** rng.uniform(-3, 1, (n, n))
            np.fill_diagonal(a, 1.0)
            gammas = rng.uniform(0.0, 2.0, n)
            gammas[rng.random(n) < 0.3] = 0.0
            games.append(GameSpec(attenuation=a, noise=10.0 ** rng.uniform(-3, 1, n),
                                  thresholds=gammas, p_max=10.0))
        powers = np.geomspace(1e-20, 10.0, 43)
        with mpmath.workdps(60):
            for game in games:
                for i in range(game.n):
                    others = rng.uniform(0.0, game.p_max, game.n)
                    inter = mpmath.mpf(game.noise[i]) + mpmath.fsum(
                        mpmath.mpf(game.attenuation[j, i]) * mpmath.mpf(others[j])
                        for j in range(game.n) if j != i)
                    ratios = [2 * mpmath.log(2) * inter]
                    for p in map(mpmath.mpf, powers):
                        ratios.append(p / (mpmath.log1p(p / inter) / (2 * mpmath.log(2))))
                    assert all(lo < hi for lo, hi in zip(ratios, ratios[1:])), (game, i)

    def test_vectorized_ratios_match_cost_ratio(self):
        # is_valued_se, region and dynamics feed the model kernels stacks of
        # profiles; every stacked row must get the bits of its own single call,
        # also for n >= 4, at p_i = 0 and where a tiny p_i > 0 rounds u_i to 0
        # (cost_ratios' limit branch)
        rng = np.random.default_rng(15)
        kernels = (interference, utilities, satisfied_mask, min_satisfying_powers, cost_ratios)
        for n in range(1, 9):
            a = 10.0 ** rng.uniform(-2, 0.3, (n, n))
            np.fill_diagonal(a, 1.0)
            game = GameSpec(attenuation=a, noise=10.0 ** rng.uniform(-2, 0, n),
                            thresholds=rng.uniform(0.0, 2.0, n), p_max=10.0)
            for i in range(n):
                profiles = np.tile(rng.uniform(0.0, 10.0, n), (41, 1))
                profiles[:, i] = np.linspace(0.0, 10.0, 41)
                want = [cost_ratios(game, q)[i] for q in profiles]
                assert np.array_equal(cost_ratios(game, profiles)[:, i], want)
            stack = rng.uniform(0.0, 10.0, (3, 17, n))
            stack[0, 0] = 0.0
            stack[0, 1, 0] = 1e-20
            for kernel in kernels:
                want = [[kernel(game, q) for q in rows] for rows in stack]
                assert np.array_equal(kernel(game, stack), want)


def _feasible_games(rng, n, count):
    """`count` random n-player games whose ESE exists and fits in the box."""
    games = []
    while len(games) < count:
        a = 10.0 ** rng.uniform(-3.0, -0.5, (n, n))
        np.fill_diagonal(a, 1.0)
        game = GameSpec(attenuation=a, noise=10.0 ** rng.uniform(-2, 0, n),
                        thresholds=rng.uniform(0.0, 1.0, n), p_max=10.0)
        try:
            ese = solve_ese(game)
        except NoEquilibriumError:
            continue
        if np.all(ese <= game.p_max):
            games.append((game, ese))
    return games


def _scanned_valued_se(game, p, grid_step):
    # the per-player scan `is_valued_se` ran before it read the ratio at the
    # floor, with the ratio it used (inf where a tiny p_i > 0 rounds u_i to 0)
    # and its relative slack over the least ratio
    rtol = 1e-9

    def ratio(i, q):
        own = q[..., i]
        inter = interference(game, q)[..., i]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(own == 0.0, 2.0 * np.log(2.0) * inter,
                            own / (0.5 * np.log2(1.0 + own / inter)))

    p = np.asarray(p, dtype=float)
    if not is_satisfaction_equilibrium(game, p):
        return False
    floors = min_satisfying_powers(game, p)
    for i in range(game.n):
        lo = min(floors[i], game.p_max)
        candidates = np.append(np.arange(lo, game.p_max, grid_step), game.p_max)
        profiles = np.tile(p, (candidates.size, 1))
        profiles[:, i] = candidates
        best = float(np.min(ratio(i, profiles)))
        if ratio(i, p) > best + rtol * max(1.0, best):
            return False
    return True


@pytest.mark.parametrize("grid_step", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("check", [lambda g, s: is_valued_se(g, [0.2, 0.2], s),
                                   enumerate_grid], ids=["is_valued_se", "enumerate_grid"])
def test_grid_step_must_be_positive_and_finite(g0, check, grid_step):
    with pytest.raises(ValueError, match="grid_step"):
        check(g0, grid_step)


class TestAnalyze:
    def test_reference_game(self, g0):
        report = analyze(g0)
        assert report.exists and report.ese_in_box
        assert report.condition_product == pytest.approx(0.25, abs=1e-15)
        np.testing.assert_allclose(report.ese, [0.2, 0.2], atol=1e-12)
        np.testing.assert_allclose(report.tightness, [0.0, 0.0], atol=1e-9)

    def test_infeasible_game(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation, noise=g0.noise, thresholds=[1, 1], p_max=1.0
        )
        report = analyze(game)
        assert not report.exists and report.ese is None

    def test_out_of_box(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation, noise=g0.noise, thresholds=g0.thresholds,
            p_max=0.15,
        )
        report = analyze(game)
        assert report.exists and not report.ese_in_box

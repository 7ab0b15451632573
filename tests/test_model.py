from dataclasses import replace

import mpmath
import numpy as np
import pytest

from segic import (
    GameSpec,
    InvalidInputError,
    RawChannel,
    cost_ratios,
    game_from_raw,
    interference,
    is_satisfaction_equilibrium,
    min_satisfying_powers,
    normalize,
    satisfied_mask,
    solve_ese,
    utilities,
)

from helpers import (
    raw_utility,
    reference_interference,
    reference_min_satisfying_powers,
    reference_system,
)


class TestNormalize:
    def test_identity_gains(self):
        a, noise = normalize(RawChannel(h=[[1, 1], [1, 1]], awgn=0.1))
        assert a[0, 1] == 1.0 and a[1, 0] == 1.0
        np.testing.assert_allclose(noise, [0.1, 0.1])

    def test_hand_evaluation(self):
        a, noise = normalize(RawChannel(h=[[2, 1], [1, 4]], awgn=0.2))
        assert a[1, 0] == pytest.approx(0.5, abs=1e-15)   # h21 / h11
        assert a[0, 1] == pytest.approx(0.25, abs=1e-15)  # h12 / h22
        np.testing.assert_allclose(noise, [0.1, 0.05])

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(InvalidInputError, match=r"h\[0,0\]"):
            RawChannel(h=[[0, 1], [1, 1]], awgn=0.1)

    def test_nonpositive_awgn_rejected(self):
        with pytest.raises(InvalidInputError, match="awgn"):
            RawChannel(h=[[1, 1], [1, 1]], awgn=0.0)


class TestUtility:
    def test_zero_power_gives_zero_rate(self, g0):
        assert utilities(g0, [0.0, 0.7])[0] == 0.0

    def test_hand_evaluation(self, g0):
        # interference 0.5*0.2 + 0.1 = 0.2, so u = 0.5*log2(2) = 0.5
        assert utilities(g0, [0.2, 0.2])[0] == pytest.approx(0.5, abs=1e-15)

    def test_full_power_point(self, g0):
        expected = float(0.5 * mpmath.log(1 + mpmath.mpf(1) / mpmath.mpf("0.6"), 2))
        assert utilities(g0, [1.0, 1.0])[0] == pytest.approx(expected, abs=1e-14)
        assert utilities(g0, [1.0, 1.0])[0] == pytest.approx(0.70752, abs=5e-6)


class TestMinSatisfyingPower:
    def test_zero_threshold_limit(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation, noise=g0.noise, thresholds=[0.0, 0.0], p_max=1.0
        )
        assert min_satisfying_powers(game, [0.0, 0.73])[0] == 0.0

    def test_hand_evaluation(self, g0):
        assert min_satisfying_powers(g0, [0.0, 0.2])[0] == pytest.approx(0.2, abs=1e-15)
        # the returned power meets the threshold exactly
        assert utilities(g0, [0.2, 0.2])[0] == pytest.approx(g0.thresholds[0], abs=1e-12)

    def test_interference_free_floor(self, g0):
        assert min_satisfying_powers(g0, [0.0, 0.0])[0] == pytest.approx(0.1, abs=1e-15)

    def test_may_exceed_p_max(self, g0):
        game = GameSpec(
            attenuation=g0.attenuation, noise=g0.noise, thresholds=[3.0, 3.0], p_max=1.0
        )
        assert min_satisfying_powers(game, [0.0, 1.0])[0] > game.p_max


class TestIsSatisfied:
    def test_ese_boundary(self, g0):
        assert satisfied_mask(g0, [0.2, 0.2])[0]
        assert satisfied_mask(g0, [0.2, 0.2])[1]

    def test_zero_profile_unsatisfied(self, g0):
        assert not satisfied_mask(g0, [0.0, 0.0])[0]
        assert not satisfied_mask(g0, [0.0, 0.0])[1]

    def test_silent_player_unsatisfied(self, g0):
        assert not satisfied_mask(g0, [1.0, 0.0])[1]


def _random_game(rng, n):
    a = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(a, 1.0)
    return GameSpec(attenuation=a, noise=rng.uniform(0.01, 1.0, n),
                    thresholds=rng.uniform(0.0, 2.0, n), p_max=10.0)


class TestInPlaceKernels:
    """The kernels compute into their own fresh product: same bits, the caller's p untouched."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 100])
    def test_bits_match_reference_expressions(self, n):
        rng = np.random.default_rng(n)
        game = _random_game(rng, n)
        pairs = (
            (interference, reference_interference),
            (min_satisfying_powers, reference_min_satisfying_powers),
        )
        for shape in ((n,), (7, n), (2, 3, n)):
            p = rng.uniform(0.0, 10.0, shape)
            p[..., 0] = 0.0
            for kernel, reference in pairs:
                got, want = kernel(game, p), reference(game, p)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert not np.shares_memory(got, p)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_read_only_profile_unchanged(self, n):
        rng = np.random.default_rng(100 + n)
        game = _random_game(rng, n)
        stack = rng.uniform(0.0, 10.0, (5, n))
        stack.flags.writeable = False
        before = stack.copy()
        for kernel in (interference, min_satisfying_powers, utilities, satisfied_mask, cost_ratios):
            for p in (stack, stack[2]):
                kernel(game, p)
        assert stack.tobytes() == before.tobytes()


FROZEN = ("attenuation", "noise", "thresholds", "gamma_factor", "A", "b")


class TestFrozenGame:
    """GameSpec keeps read-only copies of its inputs and derives gamma_factor, A and b once."""

    def test_caller_writes_do_not_reach_the_game(self, g0):
        att = np.array([[1.0, 0.5], [0.5, 1.0]])
        noise = np.array([0.1, 0.1])
        th = np.array([0.5, 0.5])
        game = GameSpec(attenuation=att, noise=noise, thresholds=th, p_max=1.0)
        att[0, 1], noise[0], th[0] = 3.0, 5.0, 2.0
        for name in FROZEN:
            assert getattr(game, name).tobytes() == getattr(g0, name).tobytes(), name
        ese = solve_ese(game)
        assert ese.tobytes() == solve_ese(g0).tobytes()
        assert is_satisfaction_equilibrium(game, ese)

    @pytest.mark.parametrize("name", FROZEN)
    def test_arrays_are_read_only(self, g0, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(g0, name)[0] = 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 100])
    def test_system_bits_match_reference(self, n):
        game = _random_game(np.random.default_rng(200 + n), n)
        A, b = reference_system(game)
        assert game.A.tobytes() == A.tobytes() and game.b.tobytes() == b.tobytes()
        assert game.gamma_factor.tobytes() == (4.0 ** game.thresholds - 1.0).tobytes()

    def test_replace_rederives_system(self, g0):
        game = replace(g0, thresholds=[1.0, 0.0])
        A, b = reference_system(game)
        assert game.A.tobytes() == A.tobytes() and game.b.tobytes() == b.tobytes()
        np.testing.assert_allclose(game.A, [[1.0, -1.5], [0.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(game.b, [0.3, 0.0], atol=1e-15)
        np.testing.assert_allclose(g0.b, [0.1, 0.1], atol=1e-15)


class TestGameSpecValidation:
    def test_zero_players_rejected(self):
        with pytest.raises(InvalidInputError, match=r"at least one player.*\(0, 0\)"):
            GameSpec(attenuation=np.zeros((0, 0)), noise=[], thresholds=[], p_max=1.0)

    def test_zero_player_raw_channel_rejected(self):
        raw = RawChannel(h=np.zeros((0, 0)), awgn=0.1)
        with pytest.raises(InvalidInputError, match=r"at least one player.*\(0, 0\)"):
            game_from_raw(raw, thresholds=[], p_max=1.0)

    def test_negative_attenuation_rejected(self):
        with pytest.raises(InvalidInputError, match="attenuation"):
            GameSpec(
                attenuation=[[1, -0.1], [0.5, 1]],
                noise=[0.1, 0.1],
                thresholds=[0.5, 0.5],
                p_max=1.0,
            )

    def test_diagonal_must_be_one(self):
        with pytest.raises(InvalidInputError, match="diagonal"):
            GameSpec(
                attenuation=[[2, 0.5], [0.5, 1]],
                noise=[0.1, 0.1],
                thresholds=[0.5, 0.5],
                p_max=1.0,
            )

    @pytest.mark.parametrize(
        "diagonal,accepted",
        # 1 + 1e-12 is stored as 1 + 1.00009e-12, just past the tolerance
        [(1.0 - 1e-12, True), (1.0 + 1e-12, False), (1.0 - 2e-12, False), (1.0 + 2e-12, False),
         (1.0 + 9e-13, True)],
    )
    def test_diagonal_tolerance(self, diagonal, accepted):
        def build():
            return GameSpec(attenuation=[[diagonal, 0.5], [0.5, 1.0]], noise=[0.1, 0.1],
                            thresholds=[0.5, 0.5], p_max=1.0)

        if accepted:
            assert build().attenuation[0, 0] == 1.0
        else:
            with pytest.raises(InvalidInputError, match="attenuation diagonal must be 1"):
                build()

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(InvalidInputError, match=r"noise\[1\]"):
            GameSpec(
                attenuation=[[1, 0.5], [0.5, 1]],
                noise=[0.1, 0.0],
                thresholds=[0.5, 0.5],
                p_max=1.0,
            )

    def test_nonpositive_p_max_rejected(self):
        with pytest.raises(InvalidInputError, match="p_max"):
            GameSpec(
                attenuation=[[1, 0.5], [0.5, 1]],
                noise=[0.1, 0.1],
                thresholds=[0.5, 0.5],
                p_max=0.0,
            )


def _random_raw(rng, n):
    return RawChannel(h=10.0 ** rng.uniform(-1, 1, (n, n)), awgn=10.0 ** rng.uniform(-2, 0))


class TestProperties:
    def test_normalization_consistency(self):
        # raw-form and normalized-form rates agree on random channels/profiles
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            raw = _random_raw(rng, n)
            game = game_from_raw(raw, thresholds=rng.uniform(0.1, 1.0, n), p_max=10.0)
            p = rng.uniform(0.0, 10.0, n)
            u = utilities(game, p)
            for i in range(n):
                assert abs(u[i] - raw_utility(raw, i, p)) < 1e-12

    def test_utility_monotonicity(self):
        rng = np.random.default_rng(43)
        eps = 1e-6
        for _ in range(200):
            n = int(rng.integers(2, 4))
            raw = _random_raw(rng, n)
            game = game_from_raw(raw, thresholds=rng.uniform(0.1, 1.0, n), p_max=10.0)
            p = rng.uniform(0.5, 9.0, n)
            for i in range(n):
                up = p.copy()
                up[i] += eps
                assert utilities(game, up)[i] > utilities(game, p)[i]
                j = (i + 1) % n
                upj = p.copy()
                upj[j] += eps
                assert utilities(game, upj)[i] < utilities(game, p)[i]

    def test_satisfaction_matches_floor_comparison(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            raw = _random_raw(rng, 2)
            game = game_from_raw(raw, thresholds=rng.uniform(0.1, 1.0, 2), p_max=10.0)
            p = rng.uniform(0.0, 10.0, 2)
            for i in range(2):
                floor = min_satisfying_powers(game, p)[i]
                assert satisfied_mask(game, p)[i] == (p[i] >= floor - 1e-9 * max(1.0, floor))

    def test_utility_at_floor_hits_threshold(self):
        rng = np.random.default_rng(45)
        for _ in range(500):
            raw = _random_raw(rng, 3)
            game = game_from_raw(raw, thresholds=rng.uniform(0.1, 1.0, 3), p_max=10.0)
            p = rng.uniform(0.0, 10.0, 3)
            floors = min_satisfying_powers(game, p)
            for i in range(3):
                q = p.copy()
                q[i] = floors[i]
                assert abs(utilities(game, q)[i] - game.thresholds[i]) < 1e-10


@pytest.mark.xfail(strict=True, reason="p @ a - p + noise cancels a cross term below the "
                   "own power; the fix moves interference's last bits, which the CLI "
                   "golden digests pin")
def test_cross_term_below_own_power_survives():
    gamma = np.log(1e15 + 1.0) / np.log(4.0)
    game = GameSpec(attenuation=[[1.0, 1e-15], [0.1, 1.0]], noise=[0.1, 1e-15],
                    thresholds=[0.1, gamma], p_max=10.0)
    # receiver 2 hears 1e-15 * 0.05 + noise 1e-15
    assert interference(game, [0.05, 1.0])[1] == pytest.approx(1.05e-15, rel=1e-9, abs=0.0)

import mpmath
import numpy as np
import pytest

from segic import (
    GameSpec,
    InvalidInputError,
    RawChannel,
    game_from_raw,
    interference,
    min_satisfying_powers,
    normalize,
    raw_utility,
    satisfied_mask,
    utilities,
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


class TestGameSpecValidation:
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

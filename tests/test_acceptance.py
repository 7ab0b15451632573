"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; any failure shows up as a normal pytest failure.
"""

import json
from itertools import islice

import numpy as np
import pytest

from segic import (
    GameSpec,
    cost_ratios,
    enumerate_grid,
    ese_two_player,
    exists_two_player,
    is_valued_se,
    max_price_of_satisfaction,
    price_of_efficiency,
    satisfaction_response_iterates,
    solve_ese,
    utilities,
)
from segic.cli import main
from segic.analysis import is_satisfaction_equilibrium

from conftest import G0_DICT
from helpers import draw_feasible_in_box, random_two_player, raw_utility, try_ese


@pytest.fixture(scope="module")
def feasible_games():
    # weak-coupling regime (cross-gains below direct gains), frozen draw
    rng = np.random.default_rng(7)
    return draw_feasible_in_box(rng, 200)


def report(line):
    print(f"[acceptance] {line}")


def test_criterion_1_closed_form_ese(g0):
    ese = ese_two_player(g0)
    np.testing.assert_allclose(ese, [0.2, 0.2], atol=1e-12)
    np.testing.assert_allclose(utilities(g0, ese), [0.5, 0.5], atol=1e-10)
    report("PASS 1: closed-form ESE (0.2, 0.2), utilities at thresholds")


def test_criterion_2_existence_iff():
    rng = np.random.default_rng(0)
    disagreements = 0
    for _ in range(1000):
        game = random_two_player(rng)
        exists, _ = exists_two_player(game)
        ese = try_ese(game)
        assert exists == (ese is not None)
        in_box = ese is not None and bool(np.all(ese <= game.p_max))
        oracle = enumerate_grid(game, game.p_max / 200.0)
        if exists and in_box and oracle.is_empty:
            disagreements += 1
        if not exists and not oracle.is_empty:
            disagreements += 1
        # exists but ESE outside the box: exempt (grid may or may not hit)
    assert disagreements == 0
    report("PASS 2: existence iff over 1000 random games, zero disagreements")


def test_criterion_3_uniqueness_cluster(feasible_games):
    for game, ese in feasible_games:
        step = game.p_max / 200.0
        cands = enumerate_grid(game, step).ese_candidates
        assert cands.shape[0] >= 1
        if cands.shape[0] > 1:
            diameter = max(
                np.max(np.abs(a - b)) for a in cands for b in cands
            )
            assert diameter <= 2.0 * step + 1e-12
        assert np.min(np.max(np.abs(cands - ese), axis=1)) <= 2.0 * step + 1e-12
    report("PASS 3: single ESE-candidate cluster (<= 2 steps) at the closed form")


def test_criterion_4_valued_equals_efficient(feasible_games):
    for game, ese in feasible_games:
        step = game.p_max / 200.0
        assert is_valued_se(game, ese, grid_step=step)
        oracle = enumerate_grid(game, step)
        ratio_at_ese = cost_ratios(game, ese)
        P = oracle.se_points
        inter = P @ game.attenuation - P + game.noise
        with np.errstate(divide="ignore", invalid="ignore"):
            u = 0.5 * np.log2(1.0 + P / inter)
            ratios = np.where(P > 0.0, P / u, 2.0 * np.log(2.0) * inter)
        assert np.all(ratios >= ratio_at_ese - 1e-9 * np.maximum(1.0, ratio_at_ese))
    report("PASS 4: ESE is valued; no grid point beats any player's cost ratio")


def test_criterion_5_poe_equals_one(g0, feasible_games):
    poe_g0 = price_of_efficiency(g0, enumerate_grid(g0, 0.01))
    assert poe_g0 == pytest.approx(1.0, abs=1e-9)
    for game, _ in feasible_games:
        poe = price_of_efficiency(game, enumerate_grid(game, game.p_max / 200.0))
        assert poe == pytest.approx(1.0, abs=1e-6)
    report("PASS 5: PoE = 1 (1e-9 on reference game, 1e-6 on 200 random games)")


def test_criterion_6_mposa(g0, feasible_games):
    mposa, _ = max_price_of_satisfaction(g0)
    assert mposa == pytest.approx(5.0, abs=1e-9)
    for game, ese in feasible_games:
        value, _ = max_price_of_satisfaction(game)
        assert value >= 1.0 - 1e-12
        full = np.full(game.n, game.p_max)
        if is_satisfaction_equilibrium(game, full):
            expected = game.n * game.p_max / ese.sum()
            assert value == pytest.approx(expected, rel=1e-12)
    report("PASS 6: MPoSa = 5 on reference game; corner formula holds; MPoSa >= 1")


def test_criterion_7_dynamics(g0):
    p = np.zeros(2)
    trajectory = [p]
    converged = False
    rounds = satisfaction_response_iterates(g0, p, tol=1e-9)
    for nxt, step_done in islice(rounds, 10000):
        assert np.all(nxt >= p - 1e-12 * np.maximum(1.0, p))
        trajectory.append(nxt)
        p = nxt
        if step_done:
            converged = True
            break
    assert converged
    np.testing.assert_allclose(p, solve_ese(g0), atol=1e-8)
    report(f"PASS 7: dynamics reach the ESE in {len(trajectory) - 1} iterations, monotone")


def test_criterion_8_normalization_equivalence():
    from segic import RawChannel, game_from_raw

    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        raw = RawChannel(
            h=10.0 ** rng.uniform(-1, 1, (n, n)), awgn=10.0 ** rng.uniform(-2, 0)
        )
        game = game_from_raw(raw, thresholds=rng.uniform(0.1, 1.0, n), p_max=10.0)
        p = rng.uniform(0.0, 10.0, n)
        u = utilities(game, p)
        for i in range(n):
            assert abs(u[i] - raw_utility(raw, i, p)) < 1e-12
    report("PASS 8: raw-form and normalized-form utilities agree on 1000 channels")


def test_criterion_9_cli_contract(capsys, tmp_path, g0_scenario, infeasible_scenario):
    code1 = main(["analyze", g0_scenario, "--json"])
    out1 = capsys.readouterr().out
    code2 = main(["analyze", g0_scenario, "--json"])
    out2 = capsys.readouterr().out
    assert out1 == out2 and code1 == code2 == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["analyze", str(bad)]) == 1
    capsys.readouterr()

    assert main(["analyze", infeasible_scenario]) == 2
    capsys.readouterr()
    report("PASS 9: byte-identical analyze output; exit codes 0/1/2 honored")

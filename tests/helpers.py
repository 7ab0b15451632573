"""Shared random-game samplers and references for the property and acceptance suites."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from segic import GameSpec, RawChannel, exists_two_player, solve_ese
from segic.analysis import NoEquilibriumError

P_MAX = 10.0
ROOT = Path(__file__).resolve().parent.parent


def _log_uniform(rng, lo, hi, size):
    return 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size)


def random_two_player(
    rng,
    a_range=(1e-2, 1e1),
    g_range=(1e-2, 1e1),
    i_range=(1e-2, 1e1),
    p_max=P_MAX,
) -> GameSpec:
    """Log-uniform two-player draw; default ranges stress all regimes."""
    a12, a21 = _log_uniform(rng, *a_range, 2)
    g1, g2 = _log_uniform(rng, *g_range, 2)
    i1, i2 = _log_uniform(rng, *i_range, 2)
    return GameSpec(
        attenuation=[[1.0, a12], [a21, 1.0]],
        noise=[i1, i2],
        thresholds=[g1, g2],
        p_max=p_max,
    )


def weak_coupling_two_player(rng, p_max=P_MAX) -> GameSpec:
    """Physically typical regime: cross-gains below direct gains, modest targets."""
    return random_two_player(
        rng,
        a_range=(0.05, 0.5),
        g_range=(0.1, 1.0),
        i_range=(0.01, 1.0),
        p_max=p_max,
    )


def raw_utility(raw: RawChannel, i: int, p) -> float:
    """Rate of player i from raw gains, the pre-normalization reference for `utilities`."""
    p = np.asarray(p, dtype=float)
    others = p * raw.h[:, i]
    denom = others.sum() - others[i] + raw.awgn
    return float(0.5 * np.log2(1.0 + raw.h[i, i] * p[i] / denom))


def try_ese(game: GameSpec):
    try:
        return solve_ese(game)
    except NoEquilibriumError:
        return None


def draw_feasible_in_box(rng, count, draw=weak_coupling_two_player):
    """Rejection-sample games whose ESE exists and fits in the power box."""
    games = []
    while len(games) < count:
        game = draw(rng)
        if not exists_two_player(game)[0]:
            continue
        ese = solve_ese(game)
        if np.all(ese <= game.p_max):
            games.append((game, ese))
    return games


def reference_interference(game: GameSpec, p) -> np.ndarray:
    """`model.interference` as one out-of-place expression, the bits its kernel must give."""
    p = np.asarray(p, dtype=float)
    return (p[..., np.newaxis, :] @ game.attenuation)[..., 0, :] - p + game.noise


def reference_min_satisfying_powers(game: GameSpec, p) -> np.ndarray:
    """`model.min_satisfying_powers` as one out-of-place expression."""
    return game.gamma_factor * reference_interference(game, p)


def reference_system(game: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """The SE system A p >= b as separate expressions, the bits `GameSpec` must derive."""
    gfac = game.gamma_factor
    off = game.attenuation.T - np.eye(game.n)
    A = np.eye(game.n) - gfac[:, np.newaxis] * off
    b = gfac * game.noise
    return A, b


def perfbench_decks():
    """The benchmark's deck module, loaded from perfbench/decks.py by path (only read)."""
    spec = importlib.util.spec_from_file_location("perfbench_decks", ROOT / "perfbench" / "decks.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module

"""Efficiency measures for satisfaction equilibria: PoE and MPoSa.

PoE compares the worst efficient SE with the best valued SE under the
summed power-to-rate ratio; MPoSa compares the best and worst SE under
the objective g(p) = 1 / sum(p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .model import GameSpec, cost_ratio
from .analysis import (
    NoEquilibriumError,
    build_system,
    ese_in_box,
    is_satisfaction_equilibrium,
    satisfaction_response_dynamics,
    solve_ese,
)
from .oracle import OracleResult, require_nonempty


@dataclass(frozen=True)
class MetricsReport:
    """Efficiency metrics at one game's equilibria."""

    poe: float
    mposa: float
    worst_se_under_g: np.ndarray
    objective_g_at_ese: float


def summed_cost_ratio(game: GameSpec, p) -> float:
    """Sum over players of p_i / u_i(p)."""
    p = np.asarray(p, dtype=float)
    return float(sum(cost_ratio(game, i, p) for i in range(game.n)))


def _refine(game: GameSpec, seeds: np.ndarray) -> list[np.ndarray]:
    """Polish grid candidates to exact equilibria via satisfaction response.

    Each player repeatedly drops to its minimal satisfying power; for both
    the efficient and the valued criterion (the ratio is increasing in own
    power) the per-player optimum is that floor, so candidates flow to the
    exact fixed points. Duplicates are merged.
    """
    refined: list[np.ndarray] = []
    for seed in np.atleast_2d(seeds):
        p, _, converged = satisfaction_response_dynamics(
            game, seed, max_iters=200000, tol=1e-13
        )
        if not converged or not is_satisfaction_equilibrium(game, p, tol=1e-9):
            continue
        if not any(np.max(np.abs(p - q)) <= 1e-9 for q in refined):
            refined.append(p)
    return refined


def price_of_efficiency(game: GameSpec, oracle: OracleResult) -> float:
    """Summed ratio of the worst efficient SE over the best valued SE.

    Candidate equilibria come from the oracle's grid scan and are refined
    by satisfaction response before comparison. That response, clamped at
    p_max, is a standard interference function (Yates, IEEE JSAC 1995), so
    from every seed it converges to the same fixed point, the ESE. Both
    refined sets therefore collapse to the ESE and the value is 1 by
    construction: it does not test whether the two notions coincide.
    """
    require_nonempty(oracle)
    ese_seeds = oracle.ese_candidates
    vse_seeds = oracle.vse_candidates
    if ese_seeds.shape[0] == 0:
        ese_seeds = np.atleast_2d(oracle.g_best)
    if vse_seeds.shape[0] == 0:
        vse_seeds = np.atleast_2d(oracle.g_best)
    efficient = _refine(game, ese_seeds)
    valued = _refine(game, vse_seeds)
    if not efficient or not valued:
        raise NoEquilibriumError("oracle candidates did not refine to an equilibrium")
    worst_ese = max(summed_cost_ratio(game, p) for p in efficient)
    best_vse = min(summed_cost_ratio(game, p) for p in valued)
    return worst_ese / best_vse


def worst_se_total_power(game: GameSpec) -> np.ndarray:
    """Box-feasible SE maximizing total power (the g-worst point).

    When the all-p_max profile is an SE it is returned directly; otherwise
    the linear program max sum(p) s.t. A p >= b, 0 <= p <= p_max is solved.
    """
    full = np.full(game.n, game.p_max)
    if is_satisfaction_equilibrium(game, full):
        return full
    system = build_system(game)
    res = linprog(
        c=-np.ones(game.n),
        A_ub=-system.A,
        b_ub=-system.b,
        bounds=[(0.0, game.p_max)] * game.n,
        method="highs",
    )
    if not res.success:
        raise NoEquilibriumError("no satisfaction equilibrium inside the power box")
    return np.asarray(res.x, dtype=float)


def max_price_of_satisfaction(game: GameSpec) -> tuple[float, np.ndarray]:
    """MPoSa = g(ESE) / g(worst SE) with g(p) = 1 / sum(p).

    Equals n * p_max / sum(ESE) whenever the all-p_max corner is an SE.
    """
    ese = solve_ese(game)
    if not ese_in_box(game, ese):
        raise NoEquilibriumError("ESE lies outside the power box")
    total = float(ese.sum())
    full = np.full(game.n, game.p_max)
    if is_satisfaction_equilibrium(game, full):
        return (game.n * game.p_max / total if total > 0.0 else np.inf), full
    worst = worst_se_total_power(game)
    return (float(worst.sum()) / total if total > 0.0 else np.inf), worst


def metrics_report(game: GameSpec, oracle: OracleResult) -> MetricsReport:
    """Bundle PoE, MPoSa and the g-objective value at the ESE."""
    poe = price_of_efficiency(game, oracle)
    mposa, worst = max_price_of_satisfaction(game)
    ese = solve_ese(game)
    total = float(ese.sum())
    return MetricsReport(
        poe=poe,
        mposa=mposa,
        worst_se_under_g=worst,
        objective_g_at_ese=1.0 / total if total > 0.0 else np.inf,
    )

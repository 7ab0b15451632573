"""Efficiency measures for satisfaction equilibria: PoE and MPoSa.

PoE compares the worst efficient SE with the best valued SE under the
summed power-to-rate ratio; MPoSa compares the best and worst SE under
the objective g(p) = 1 / sum(p).
"""

from __future__ import annotations

import numpy as np

from .model import SAT_TOL, GameSpec
from .analysis import (
    NoEquilibriumError,
    ese_in_box,
    is_satisfaction_equilibrium,
    solve_ese,
)
from .oracle import OracleResult, floor_error_bound


def price_of_efficiency(game: GameSpec, oracle: OracleResult) -> float:
    """Summed ratio of the worst efficient SE over the best valued SE: 1.

    The satisfaction response, clamped at p_max, is a standard interference
    function (Yates, IEEE JSAC 1995), so its fixed point, the ESE, is the
    only efficient and the only valued SE, and PoE is 1 exactly.

    The oracle's scan is checked against `solve_ese` instead. With A p >= b
    the game's SE system and w = A^-1 1 (>= 0, A being an M-matrix), the oracle's
    ESE-candidate test reads -SAT_TOL <= A p - b <= step + SAT_TOL, so a
    candidate lies in [ese - SAT_TOL w, ese + (step + SAT_TOL) w], and so
    does every VSE candidate, being an ESE candidate; every SE point, so
    g_best, lies above the lower end. A point outside by more than the
    oracle's floor rounding
    (`floor_error_bound`, carried through A^-1) raises NoEquilibriumError.
    """
    if oracle.is_empty:
        raise NoEquilibriumError("oracle found no satisfaction equilibrium in the box")
    ese = solve_ese(game)
    bounds = np.column_stack([np.ones(game.n), floor_error_bound(game)])
    w, slack = np.linalg.solve(game.A, bounds).T
    lower = ese - SAT_TOL * w - slack
    upper = ese + (oracle.grid_step + SAT_TOL) * w + slack
    for name, points, top in (
        ("ESE candidate", oracle.ese_candidates, upper),
        ("g_best", np.atleast_2d(oracle.g_best), np.full(game.n, np.inf)),
    ):
        outside = np.flatnonzero(np.any((points < lower) | (points > top), axis=1))
        if outside.size:
            row = int(outside[0])
            raise NoEquilibriumError(
                f"{name} row {row} at {points[row].tolist()} is outside "
                f"[{lower.tolist()}, {top.tolist()}] around the ESE {ese.tolist()}"
            )
    return 1.0


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
    # imported here, not at module level: scipy.optimize is most of a cold
    # `import segic`, and only a game whose corner is not an SE needs the LP
    from scipy.optimize import linprog

    res = linprog(
        c=-np.ones(game.n),
        A_ub=-game.A,
        b_ub=-game.b,
        bounds=[(0.0, game.p_max)] * game.n,
        method="highs",
    )
    if not res.success:
        raise NoEquilibriumError("no satisfaction equilibrium inside the power box")
    worst = np.asarray(res.x, dtype=float)
    return (float(worst.sum()) / total if total > 0.0 else np.inf), worst

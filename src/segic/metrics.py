"""Efficiency measures for satisfaction equilibria, and the per-game report.

PoE compares the worst efficient SE with the best valued SE under the
summed power-to-rate ratio; MPoSa compares the best and worst SE under
the objective g(p) = 1 / sum(p).

`analyze` answers one game in an `EquilibriumReport`, which computes MPoSa
and PoE on first access and keeps them; a caller that reads neither pays
for neither. `mposa` is `max_price_of_satisfaction`'s (value, worst), or
None unless the ESE exists inside the box. `poe` is None there too, and
for n >= 4; otherwise it is PoE on an oracle scan at step p_max/200
(n <= 2) or p_max/40 (n = 3), below about 10^5 points, or None when that
scan finds no grid SE (a region thinner than a step). `poe` runs no LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import SAT_TOL, GameSpec, utilities
from .analysis import (
    NoEquilibriumError,
    condition_product,
    ese_in_box,
    is_satisfaction_equilibrium,
    solve_ese,
)
from .oracle import OracleResult, enumerate_grid, floor_error_bound


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


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """Existence verdict and ESE diagnostics for one game; PoE and MPoSa on demand."""

    exists: bool
    condition_product: float | None
    ese: np.ndarray | None
    ese_in_box: bool
    tightness: np.ndarray | None
    game: GameSpec = field(repr=False)

    @cached_property
    def mposa(self) -> tuple[float, np.ndarray] | None:
        """`max_price_of_satisfaction`'s (value, worst) if the ESE is in the box."""
        if not (self.exists and self.ese_in_box):
            return None
        return max_price_of_satisfaction(self.game)

    @cached_property
    def poe(self) -> float | None:
        """PoE on the default oracle scan (n <= 3) if the ESE is in the box."""
        game = self.game
        if not (self.exists and self.ese_in_box) or game.n > 3:
            return None
        scan = enumerate_grid(game, game.p_max / (200.0 if game.n <= 2 else 40.0))
        return None if scan.is_empty else price_of_efficiency(game, scan)


def analyze(game: GameSpec) -> EquilibriumReport:
    """Existence verdict plus ESE and its per-player tightness u_i - gamma_i."""
    product = condition_product(game) if game.n == 2 else None
    try:
        ese = solve_ese(game)
    except NoEquilibriumError:
        return EquilibriumReport(exists=False, condition_product=product, ese=None,
                                 ese_in_box=False, tightness=None, game=game)
    return EquilibriumReport(exists=True, condition_product=product, ese=ese,
                             ese_in_box=ese_in_box(game, ese),
                             tightness=utilities(game, ese) - game.thresholds, game=game)

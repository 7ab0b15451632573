"""Satisfaction-equilibrium analysis of GIC power games.

The SE region is the polyhedron A p >= b intersected with the power box,
where A has unit diagonal and nonpositive off-diagonals. Existence and the
efficient satisfaction equilibrium (ESE) have closed forms for two players;
for general N the equality system p_i = (4**gamma_i - 1) * (interference_i)
yields the componentwise-least point of the quadrant region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    GameSpec,
    cost_ratio,
    min_satisfying_powers,
    satisfied_mask,
    utilities,
    validate_profile,
)


class DimensionError(ValueError):
    """Operation requires a specific player count."""


class NoEquilibriumError(RuntimeError):
    """No satisfaction equilibrium exists for the requested computation."""

    def __init__(self, message: str, condition_product: float | None = None):
        super().__init__(message)
        self.condition_product = condition_product


@dataclass(frozen=True)
class SERegionSystem:
    """Linear system A p >= b describing the SE region, plus the box bound."""

    A: np.ndarray
    b: np.ndarray
    p_max: float


@dataclass(frozen=True)
class EquilibriumReport:
    """Existence verdict and ESE diagnostics for one game."""

    exists: bool
    condition_product: float | None
    ese: np.ndarray | None
    ese_in_box: bool
    tightness: np.ndarray | None


def build_system(game: GameSpec) -> SERegionSystem:
    """Assemble A (unit diagonal, A_ij = -gfac_i * a[j, i]) and b_i = gfac_i * noise_i."""
    gfac = game.gamma_factor
    off = game.attenuation.T - np.eye(game.n)
    A = np.eye(game.n) - gfac[:, np.newaxis] * off
    b = gfac * game.noise
    return SERegionSystem(A=A, b=b, p_max=game.p_max)


def condition_product(game: GameSpec) -> float:
    """Two-player existence product a21 * a12 * gfac_1 * gfac_2 (must be < 1)."""
    if game.n != 2:
        raise DimensionError(f"two-player condition needs n = 2, got n = {game.n}")
    gfac = game.gamma_factor
    a21 = game.attenuation[1, 0]
    a12 = game.attenuation[0, 1]
    return float(a21 * a12 * gfac[0] * gfac[1])


def exists_two_player(game: GameSpec) -> tuple[bool, float]:
    """Existence of an SE in the unbounded quadrant (two players).

    True iff the two boundary lines cross in the first quadrant, i.e. the
    condition product is < 1. Box feasibility is reported separately.
    """
    product = condition_product(game)
    return product < 1.0, product


def ese_two_player(game: GameSpec) -> np.ndarray:
    """Closed-form efficient satisfaction equilibrium for two players."""
    exists, product = exists_two_player(game)
    if not exists:
        raise NoEquilibriumError(
            f"no SE: condition product {product} >= 1", condition_product=product
        )
    gfac = game.gamma_factor
    a21 = game.attenuation[1, 0]
    a12 = game.attenuation[0, 1]
    noise = game.noise
    denom = 1.0 - product
    p1 = gfac[0] * (a21 * gfac[1] * noise[1] + noise[0]) / denom
    p2 = gfac[1] * (a12 * gfac[0] * noise[0] + noise[1]) / denom
    return np.array([p1, p2])


def solve_ese(game: GameSpec, tol: float = 1e-12) -> np.ndarray:
    """ESE for any player count via the equality version of the SE system.

    Solves A p = b and accepts the solution iff it is componentwise
    nonnegative; the sign pattern of A makes that point the least element
    of the quadrant region. Raises NoEquilibriumError otherwise.
    """
    system = build_system(game)
    try:
        p = np.linalg.solve(system.A, system.b)
    except np.linalg.LinAlgError as exc:
        raise NoEquilibriumError(f"singular SE boundary system: {exc}") from exc
    if np.any(p < -tol):
        raise NoEquilibriumError(
            f"boundary intersection has negative component {p.min()}"
        )
    return np.maximum(p, 0.0)


def ese_in_box(game: GameSpec, ese: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.all(ese <= game.p_max + tol))


def analyze(game: GameSpec, tol: float = 1e-9) -> EquilibriumReport:
    """Existence verdict plus ESE and its per-player tightness u_i - gamma_i."""
    product = condition_product(game) if game.n == 2 else None
    try:
        ese = solve_ese(game)
    except NoEquilibriumError:
        return EquilibriumReport(
            exists=False,
            condition_product=product,
            ese=None,
            ese_in_box=False,
            tightness=None,
        )
    in_box = ese_in_box(game, ese)
    tightness = utilities(game, ese) - game.thresholds
    return EquilibriumReport(
        exists=True,
        condition_product=product,
        ese=ese,
        ese_in_box=in_box,
        tightness=tightness,
    )


def satisfaction_response_dynamics(
    game: GameSpec,
    p0,
    max_iters: int = 10000,
    tol: float = 1e-9,
) -> tuple[np.ndarray, int, bool]:
    """Synchronous satisfaction-response iteration clamped at p_max.

    Every round each player jumps to its minimal satisfying power against
    the current profile, clipped to the box. From the zero profile the
    iterates are componentwise nondecreasing and converge to the ESE
    whenever it lies in the box.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    p = validate_profile(game, p0).copy()
    for k in range(1, max_iters + 1):
        nxt = np.minimum(min_satisfying_powers(game, p), game.p_max)
        delta = np.max(np.abs(nxt - p))
        p = nxt
        if delta < tol:
            return p, k, True
    return p, max_iters, False


def is_satisfaction_equilibrium(game: GameSpec, p, tol: float = 1e-12) -> bool:
    """True iff every player meets its threshold at p."""
    p = validate_profile(game, p)
    return bool(np.all(satisfied_mask(game, p, tol=tol)))


def is_efficient_se(game: GameSpec, p, tol: float = 1e-9) -> bool:
    """True iff p is an SE and no player can shed power and stay satisfied."""
    p = validate_profile(game, p)
    if not is_satisfaction_equilibrium(game, p):
        return False
    return bool(np.all(p <= min_satisfying_powers(game, p) + tol))


def is_valued_se(game: GameSpec, p, grid_step: float, tol: float = 1e-9) -> bool:
    """True iff p is an SE and each player's power minimizes p_i / u_i.

    The candidate interval for player i is [minimal satisfying power, p_max];
    it is scanned at resolution grid_step (the ratio is also known to be
    increasing in own power, so the scan minimum sits at the left endpoint).
    """
    if grid_step <= 0.0:
        raise ValueError("grid_step must be > 0")
    p = validate_profile(game, p)
    if not is_satisfaction_equilibrium(game, p):
        return False
    floors = min_satisfying_powers(game, p)
    for i in range(game.n):
        lo = min(floors[i], game.p_max)
        candidates = np.arange(lo, game.p_max, grid_step)
        candidates = np.append(candidates, game.p_max)
        profiles = np.tile(p, (candidates.size, 1))
        profiles[:, i] = candidates
        best = float(np.min(_cost_ratios(game, i, profiles)))
        mine = cost_ratio(game, i, p)
        if mine > best + tol * max(1.0, best):
            return False
    return True


def _cost_ratios(game: GameSpec, i: int, profiles: np.ndarray) -> np.ndarray:
    """cost_ratio(game, i, q) for every row q of profiles, to the last bit.

    The stacked matmul takes the same vector-times-matrix route as
    `interference` does for a single profile; one matrix product over all
    rows may round differently for n >= 4.
    """
    stacked = np.matmul(profiles[:, np.newaxis, :], game.attenuation)[:, 0, :]
    inter = (stacked - profiles + game.noise)[:, i]
    own = profiles[:, i]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = 0.5 * np.log2(1.0 + own / inter)
        return np.where(own == 0.0, 2.0 * np.log(2.0) * inter, own / u)

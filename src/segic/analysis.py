"""Satisfaction-equilibrium analysis of GIC power games: existence, the
ESE, the satisfaction-response dynamics and the SE predicates.

The SE region is the polyhedron A p >= b that every `GameSpec` carries,
intersected with the power box; A has unit diagonal and nonpositive
off-diagonals. Existence and the efficient satisfaction equilibrium (ESE)
have closed forms for two players; for general N the equality system
p_i = (4**gamma_i - 1) * (interference_i) yields the componentwise-least
point of the quadrant region. The per-game report, which also answers PoE
and MPoSa, is `segic.metrics.analyze`.
"""

from __future__ import annotations

from itertools import islice
from numbers import Integral

import numpy as np

from .model import (
    SAT_TOL,
    GameSpec,
    min_satisfying_powers,
    satisfied_mask,
    validate_profile,
)


POWER_TOL = 1e-12  # slack on the ESE's sign and box tests
EFFICIENT_TOL = 1e-9  # power an efficient SE may have above its floor


class DimensionError(ValueError):
    """Operation requires a specific player count."""


class NoEquilibriumError(RuntimeError):
    """No satisfaction equilibrium exists for the requested computation."""

    def __init__(self, message: str, condition_product: float | None = None):
        super().__init__(message)
        self.condition_product = condition_product


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


def solve_ese(game: GameSpec) -> np.ndarray:
    """ESE for any player count via the equality version of the SE system.

    Solves the game's A p = b and accepts the solution iff it is componentwise
    nonnegative; the sign pattern of A makes that point the least element
    of the quadrant region. Raises NoEquilibriumError otherwise.
    """
    try:
        p = np.linalg.solve(game.A, game.b)
    except np.linalg.LinAlgError as exc:
        raise NoEquilibriumError(f"singular SE boundary system: {exc}") from exc
    if np.any(p < -POWER_TOL):
        raise NoEquilibriumError(
            f"boundary intersection has negative component {p.min()}"
        )
    return np.maximum(p, 0.0)


def ese_in_box(game: GameSpec, ese: np.ndarray) -> bool:
    return bool(np.all(ese <= game.p_max + POWER_TOL))


def satisfaction_response_iterates(game: GameSpec, p0, tol: float = 1e-9):
    """Iterator of (p, converged) after each synchronous satisfaction-response round.

    Every round each player jumps to its minimal satisfying power against
    the current profile, clipped to the box. The first round that moves no
    power by tol or more is yielded with converged True and is the last.
    Each round is a fresh array. tol and p0 are checked here, not at the
    first round.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol = {tol} must be positive and finite")
    return _rounds(game, validate_profile(game, p0), tol)


def _rounds(game: GameSpec, p: np.ndarray, tol: float):
    cap = np.full(game.n, game.p_max)  # np.minimum against an array skips scalar conversion
    step = np.empty(game.n)
    while True:
        nxt = min_satisfying_powers(game, p)
        np.minimum(nxt, cap, out=nxt)
        np.subtract(nxt, p, out=step)
        np.absolute(step, out=step)
        converged = bool(np.maximum.reduce(step) < tol)  # np.max without its wrapper
        p = nxt
        yield p, converged
        if converged:
            return


def satisfaction_response_dynamics(
    game: GameSpec,
    p0,
    max_iters: int = 10000,
    tol: float = 1e-9,
) -> tuple[np.ndarray, int, bool]:
    """At most max_iters rounds of `satisfaction_response_iterates`.

    Returns the last profile, the rounds run (an int) and whether they
    converged. max_iters must be an integer >= 1; a bool is rejected.
    From the zero profile the iterates are componentwise nondecreasing and
    converge to the ESE whenever it lies in the box.
    """
    if isinstance(max_iters, bool) or not isinstance(max_iters, Integral) or max_iters < 1:
        raise ValueError(f"max_iters = {max_iters!r} must be an integer >= 1")
    max_iters = int(max_iters)
    rounds = islice(satisfaction_response_iterates(game, p0, tol), max_iters)
    for k, (p, converged) in enumerate(rounds, 1):
        if converged:
            return p, k, True
    return p, max_iters, False


def is_satisfaction_equilibrium(game: GameSpec, p, tol: float = SAT_TOL) -> bool:
    """True iff every player meets its threshold at p."""
    p = validate_profile(game, p)
    return bool(np.all(satisfied_mask(game, p, tol=tol)))


def is_efficient_se(game: GameSpec, p) -> bool:
    """True iff p is an SE and no player can shed power and stay satisfied."""
    p = validate_profile(game, p)
    if not np.all(satisfied_mask(game, p)):
        return False
    return bool(np.all(p <= min_satisfying_powers(game, p) + EFFICIENT_TOL))


def is_valued_se(game: GameSpec, p, grid_step: float) -> bool:
    """True iff p is an SE and each player's power minimizes p_i / u_i.

    Player i's satisfying powers are [floor_i, p_max], floor_i being its
    minimal satisfying power. With the others fixed, u_i is concave in p_i
    with u_i(0) = 0, so the ratio rises strictly with p_i and is least at
    the floor: the valued SE is the efficient SE, and this is
    `is_efficient_se`. grid_step must be positive and finite but does not
    change the answer.
    """
    if not 0.0 < grid_step < np.inf:
        raise ValueError(f"grid_step = {grid_step} must be positive and finite")
    return is_efficient_se(game, p)

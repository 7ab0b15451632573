"""Gaussian interference channel (GIC) game model.

An instance describes N transmitter-receiver pairs sharing a band. Each
transmitter i picks a power p_i in [0, p_max] and wants its Shannon rate

    u_i(p) = 1/2 * log2(1 + p_i / (sum_{j != i} a[j, i] * p_j + noise_i))

to reach a QoS threshold gamma_i. Attenuations are stored with the
convention a[j, i] = gain from transmitter j to receiver i, normalized so
the direct gains a[i, i] are 1 (and never read by the formulas).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: comparison tolerance for satisfaction predicates (closed forms in doubles)
SAT_TOL = 1e-12


class InvalidInputError(ValueError):
    """Raised when channel or game data violates its invariants."""


def _as_matrix(values, name: str) -> np.ndarray:
    m = np.asarray(values, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


def _as_vector(values, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise InvalidInputError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class RawChannel:
    """Unnormalized channel: raw gains h[j, i] > 0 and common AWGN power."""

    h: np.ndarray
    awgn: float

    def __post_init__(self):
        h = _as_matrix(self.h, "h")
        bad = np.argwhere(h <= 0.0)
        if bad.size:
            j, i = bad[0]
            raise InvalidInputError(f"h[{j},{i}] = {h[j, i]} must be > 0")
        if not (np.isfinite(self.awgn) and self.awgn > 0.0):
            raise InvalidInputError(f"awgn = {self.awgn} must be > 0")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "awgn", float(self.awgn))

    @property
    def n(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class GameSpec:
    """Normalized GIC game in satisfaction form.

    attenuation[j, i] is the normalized gain from transmitter j to
    receiver i (diagonal fixed to 1), noise[i] the normalized noise at
    receiver i, thresholds[i] the rate target gamma_i (bits/channel use,
    base-2 log), and p_max the common power cap. The game keeps its own
    read-only copies of these arrays.
    """

    attenuation: np.ndarray
    noise: np.ndarray
    thresholds: np.ndarray
    p_max: float
    # derived once, read-only: the per-player factor 4**gamma_i - 1 of every
    # SE inequality and the SE system A p >= b (A_ij = -gfac_i * a[j, i] off
    # the unit diagonal, b_i = gfac_i * noise_i)
    gamma_factor: np.ndarray = field(init=False, repr=False, compare=False)
    A: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = _as_matrix(self.attenuation, "attenuation")
        n = a.shape[0]
        if n == 0:
            raise InvalidInputError(
                f"a game needs at least one player, got attenuation of shape {a.shape}"
            )
        noise = _as_vector(self.noise, "noise")
        thresholds = _as_vector(self.thresholds, "thresholds")
        if noise.shape != (n,) or thresholds.shape != (n,):
            raise InvalidInputError(
                f"noise/thresholds must have length {n}, got "
                f"{noise.shape[0]} and {thresholds.shape[0]}"
            )
        if not np.all(np.abs(np.diag(a) - 1.0) <= 1e-12):  # entries are finite: no NaN case
            raise InvalidInputError("attenuation diagonal must be 1")
        off = a[~np.eye(n, dtype=bool)]
        if np.any(off < 0.0):
            raise InvalidInputError("off-diagonal attenuations must be >= 0")
        if np.any(noise <= 0.0):
            i = int(np.argmin(noise))
            raise InvalidInputError(f"noise[{i}] = {noise[i]} must be > 0")
        if np.any(thresholds < 0.0):
            i = int(np.argmin(thresholds))
            raise InvalidInputError(f"thresholds[{i}] = {thresholds[i]} must be >= 0")
        if not (np.isfinite(self.p_max) and self.p_max > 0.0):
            raise InvalidInputError(f"p_max = {self.p_max} must be positive and finite")
        with np.errstate(over="ignore"):  # gamma >= 512 overflows to inf
            gfac = 4.0 ** thresholds - 1.0
        if not np.all(np.isfinite(gfac)):
            i = int(np.argmin(np.isfinite(gfac)))
            raise InvalidInputError(
                f"thresholds[{i}] = {thresholds[i]} overflows 4**gamma - 1; gamma must be < 512"
            )
        a = a.copy()  # copies, so a caller's later writes cannot reach the game
        np.fill_diagonal(a, 1.0)
        arrays = {
            "attenuation": a,
            "noise": noise.copy(),
            "thresholds": thresholds.copy(),
            "gamma_factor": gfac,
            "A": np.eye(n) - gfac[:, np.newaxis] * (a.T - np.eye(n)),
            "b": gfac * noise,
        }
        for name, value in arrays.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "p_max", float(self.p_max))

    @property
    def n(self) -> int:
        return self.attenuation.shape[0]


def normalize(raw: RawChannel) -> tuple[np.ndarray, np.ndarray]:
    """Normalize raw gains: a[j, i] = h[j, i] / h[i, i], noise_i = awgn / h[i, i]."""
    direct = np.diag(raw.h)
    a = raw.h / direct[np.newaxis, :]
    np.fill_diagonal(a, 1.0)
    noise = raw.awgn / direct
    return a, noise


def game_from_raw(raw: RawChannel, thresholds, p_max: float) -> GameSpec:
    a, noise = normalize(raw)
    return GameSpec(attenuation=a, noise=noise, thresholds=thresholds, p_max=p_max)


def validate_profile(game: GameSpec, p) -> np.ndarray:
    """Check a power profile against the strategy sets [0, p_max]^n, within SAT_TOL."""
    p = _as_vector(p, "power profile")
    if p.shape != (game.n,):
        raise InvalidInputError(f"profile length {p.shape[0]} != {game.n} players")
    if np.any(p < -SAT_TOL) or np.any(p > game.p_max + SAT_TOL):
        i = int(np.argmax(np.maximum(-p, p - game.p_max)))
        raise InvalidInputError(f"p[{i}] = {p[i]} outside [0, {game.p_max}]")
    return p


def interference(game: GameSpec, p) -> np.ndarray:
    """Per-receiver interference-plus-noise sum_{j != i} a[j, i] p_j + noise_i.

    p is a profile or a stack of them (players last). Each row takes its own
    vector-times-matrix product, so it gets its single-call bits; one
    (N, n) @ (n, n) product rounds differently for n >= 4. The product is a
    fresh array, so the subtraction and the noise go into it in place.
    """
    p = np.asarray(p, dtype=float)
    out = (p[..., np.newaxis, :] @ game.attenuation)[..., 0, :]
    out -= p
    out += game.noise
    return out


def utilities(game: GameSpec, p) -> np.ndarray:
    """Achieved rates of all players at profile p (bits/channel use)."""
    p = np.asarray(p, dtype=float)
    return 0.5 * np.log2(1.0 + p / interference(game, p))


def min_satisfying_powers(game: GameSpec, p) -> np.ndarray:
    """Least power of each player reaching its threshold, others fixed at p.

    Entries may exceed p_max; callers decide feasibility. The result is a
    fresh array.
    """
    out = interference(game, p)
    out *= game.gamma_factor
    return out


def satisfied_mask(game: GameSpec, p, tol: float = SAT_TOL) -> np.ndarray:
    """Boolean satisfaction vector over all players."""
    return utilities(game, p) >= game.thresholds - tol


def cost_ratios(game: GameSpec, p) -> np.ndarray:
    """Power-to-rate tradeoffs p_i / u_i(p), extended by their limit where u_i = 0.

    As p_i -> 0 the ratio tends to 2*ln(2) times the interference-plus-noise
    at receiver i, which keeps the ratio well-defined on zero-threshold games.
    The limit also stands in where a tiny p_i > 0 rounds u_i to 0.
    """
    p = np.asarray(p, dtype=float)
    inter = interference(game, p)
    u = 0.5 * np.log2(1.0 + p / inter)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u > 0.0, p / u, 2.0 * np.log(2.0) * inter)

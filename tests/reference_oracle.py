"""Exhaustive grid scan kept as a test-only reference for `segic.oracle`.

The body below is the original point-by-point implementation of
`enumerate_grid`: it classifies all m^n grid points in chunks and sorts
the result. `test_oracle_identity.py` checks that the slice scan in
`segic.oracle` returns the same arrays, bit for bit. Do not optimise it.
"""

from __future__ import annotations

import numpy as np

from segic.model import GameSpec, SAT_TOL
from segic.oracle import MAX_GRID_POINTS, OracleResult, ResourceLimitError

_CHUNK = 1 << 20


def _axis(p_max: float, step: float) -> np.ndarray:
    pts = np.arange(0.0, p_max + 0.5 * step, step)
    if pts[-1] < p_max - 1e-15 * max(1.0, p_max):
        pts = np.append(pts, p_max)
    else:
        pts[-1] = min(pts[-1], p_max)
    return pts


def enumerate_grid(game: GameSpec, grid_step: float) -> OracleResult:
    """Scan the grid and classify SE / ESE-candidate / VSE-candidate points."""
    if grid_step <= 0.0:
        raise ValueError("grid_step must be > 0")
    axis = _axis(game.p_max, grid_step)
    m = axis.size
    total = m**game.n
    if total > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"grid of {total} points exceeds the {MAX_GRID_POINTS} point budget"
        )

    n = game.n
    gfac = game.gamma_factor
    att = game.attenuation
    shape = (m,) * n

    se_chunks = []
    ese_chunks = []
    vse_chunks = []

    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        coords = np.unravel_index(idx, shape)
        P = np.stack([axis[c] for c in coords], axis=1)

        inter = P @ att - P + game.noise  # interference + noise per receiver
        floors = gfac * inter
        sat = P >= floors - SAT_TOL
        se = np.all(sat, axis=1)
        if not np.any(se):
            continue
        P = P[se]
        inter = inter[se]
        floors = floors[se]
        se_chunks.append(P)

        ese = np.all(P <= floors + grid_step + SAT_TOL, axis=1)
        ese_chunks.append(P[ese])

        vse = np.ones(P.shape[0], dtype=bool)
        for i in range(n):
            ratio_here = _ratio(P[:, i], inter[:, i])
            for move in (-grid_step, grid_step):
                q = P[:, i] + move
                ok = (q >= -SAT_TOL) & (q <= game.p_max + SAT_TOL)
                ok &= q >= floors[:, i] - SAT_TOL  # deviation must stay satisfying
                if not np.any(ok):
                    continue
                better = np.zeros_like(ok)
                better[ok] = _ratio(q[ok], inter[ok, i]) < ratio_here[ok] - SAT_TOL
                vse &= ~better
        vse_chunks.append(P[vse])

    se_points = _merge(se_chunks, n)
    ese_candidates = _merge(ese_chunks, n)
    vse_candidates = _merge(vse_chunks, n)

    if se_points.shape[0]:
        sums = se_points.sum(axis=1)
        g_best = se_points[int(np.argmin(sums))]
        g_worst = se_points[int(np.argmax(sums))]
    else:
        g_best = None
        g_worst = None

    return OracleResult(
        grid_step=float(grid_step),
        se_points=se_points,
        ese_candidates=ese_candidates,
        vse_candidates=vse_candidates,
        g_best=g_best,
        g_worst=g_worst,
    )


def _ratio(p: np.ndarray, inter: np.ndarray) -> np.ndarray:
    """Vectorized power-to-rate ratio with the p -> 0 limit filled in."""
    u = 0.5 * np.log2(1.0 + p / inter)
    out = np.where(p > 0.0, p / np.where(u > 0.0, u, 1.0), 2.0 * np.log(2.0) * inter)
    return out


def _merge(chunks: list[np.ndarray], n: int) -> np.ndarray:
    if not chunks:
        return np.empty((0, n))
    pts = np.concatenate(chunks, axis=0)
    order = np.lexsort(pts.T[::-1])  # lexicographic by p1, then p2, ...
    return pts[order]

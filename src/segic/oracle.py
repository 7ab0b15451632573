"""Grid verifier for the SE analysis.

Classifies the uniform power grid {0, step, ..., p_max}^n independently of
the closed forms, so the analytic results can be cross-checked against an
exhaustive search.

Every SE constraint is linear, so for fixed p_1..p_{n-1} (a slice) the SE
values of p_n form one interval: player n's floor bounds it below and the
other players' rearranged inequalities bound it above. The scan walks the
m^(n-1) slices, places each interval's ends from those inequalities, and
runs the per-point predicate `_classify` only on narrow bands of rows
around them; the rows between the bands are SE points without a test. ESE
and VSE candidates can only sit at the low end of an interval, below row
kC of the lower band: above it, player n can step down one grid step and
stay satisfied, so the candidate tests run only there. A slice is
classified by `_classify` on every row, candidate tests included, when
rounding could blur its ends by a grid row or when its bands disagree with
the predicted ends. The result is the same, bit for bit, as classifying
every grid point.

The SE points themselves are kept as those runs: each slice's SE rows are
the lower band's SE rows, the interior run and the upper band's SE rows.
The SE count and g_best / g_worst are read from the runs, and `se_points`
is expanded from them only on first access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import GameSpec, SAT_TOL

MAX_GRID_POINTS = 10**8
_EPS = np.finfo(float).eps


class ResourceLimitError(RuntimeError):
    """Grid enumeration would exceed the point budget."""


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Classified grid scan of the power box.

    se_points are all grid satisfaction equilibria (lexicographic order).
    ese_candidates are SE points with every player within one grid step of
    its minimal satisfying power; vse_candidates are SE points where no
    player can step one grid step down and stay in the box and satisfied.
    With the others fixed, p_i / u_i rises strictly with p_i (u_i is
    concave with u_i(0) = 0), so that is where no single-player grid move
    lowers a player's power-to-rate ratio, and every VSE candidate is an
    ESE candidate. g_best / g_worst extremize g(p) = 1 / sum(p) over the
    SE set, whose size is se_count.

    The SE points are kept as the scan's per-slice runs; se_points expands
    them on first access and keeps the array.
    """

    grid_step: float
    ese_candidates: np.ndarray
    vse_candidates: np.ndarray
    g_best: np.ndarray | None
    g_worst: np.ndarray | None
    se_count: int
    _runs: tuple = field(repr=False)  # `_se_points`' arguments

    @property
    def is_empty(self) -> bool:
        return self.se_count == 0

    @cached_property
    def se_points(self) -> np.ndarray:
        """All grid SE points in lexicographic order, expanded on first access."""
        return _se_points(*self._runs)


def _axis(p_max: float, step: float) -> np.ndarray:
    pts = np.arange(0.0, p_max + 0.5 * step, step)
    if pts[-1] < p_max - 1e-15 * max(1.0, p_max):
        pts = np.append(pts, p_max)
    else:
        pts[-1] = min(pts[-1], p_max)
    return pts


def enumerate_grid(game: GameSpec, grid_step: float) -> OracleResult:
    """Scan the grid and classify SE / ESE-candidate / VSE-candidate points."""
    if not 0.0 < grid_step < np.inf:
        raise ValueError(f"grid_step = {grid_step} must be positive and finite")
    axis = _axis(game.p_max, grid_step)
    m = axis.size
    total = m**game.n
    if total > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"grid of {total} points exceeds the {MAX_GRID_POINTS} point budget"
        )

    prefix = _slices(axis, game.n - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ends = _slice_ends(game, axis, prefix, grid_step)  # non-finite ends fall back
    while True:
        a1, b1, band, k = _rows(ends, m)
        s = band >> 1
        P = _points(prefix, axis, s, k)
        cand = ends.fallback[s] | (k < ends.kC[s])  # rows that can hold a candidate
        sat, se, ese, vse = _classify(game, P, grid_step, cand)
        wrong = _contradicted(ends, sat, s, k)
        if wrong.size == 0:
            break
        ends.fallback[wrong] = True

    band_se = np.bincount(band[se], minlength=2 * a1.size)  # SE rows of each band
    k_se = k[se]
    g_best, g_worst = _extremes(prefix, axis, a1, b1, band_se, k_se)
    return OracleResult(
        grid_step=float(grid_step),
        ese_candidates=P[ese],
        vse_candidates=P[vse],
        g_best=g_best,
        g_worst=g_worst,
        se_count=int(k_se.size + (b1 - a1).sum()),
        _runs=(prefix, axis, a1, b1, band_se, k_se),
    )


def _classify(game: GameSpec, P: np.ndarray, grid_step: float, cand: np.ndarray):
    """The per-point SE predicate and candidate tests on the rows of P.

    Returns the per-player satisfaction matrix and the SE, ESE-candidate and
    VSE-candidate masks over the rows. The candidate tests run only on the
    SE rows that `cand` marks; every other row is no candidate.
    """
    inter = P @ game.attenuation - P + game.noise  # interference + noise per receiver
    floors = game.gamma_factor * inter
    sat = P >= floors - SAT_TOL
    se = _all_columns(sat)
    test = se & cand
    ese = np.zeros_like(se)
    vse = np.zeros_like(se)
    P = P[test]
    floors = floors[test]

    ese_rows = ese[test] = _all_columns(P <= floors + grid_step + SAT_TOL)
    # the ratio rises with own power, so only a one-step-down move can lower
    # it: a candidate's every such move leaves the box or is unsatisfying,
    # which also makes it an ESE candidate
    q = P - grid_step
    vse[test] = ese_rows & _all_columns((q < -SAT_TOL) | (q < floors - SAT_TOL))
    return sat, se, ese, vse


def _all_columns(mask: np.ndarray) -> np.ndarray:
    """mask.all(axis=1), one column at a time: numpy reduces a short last axis slowly."""
    out = np.ones(mask.shape[0], dtype=bool)
    for column in mask.T:
        out &= column
    return out


def _slices(axis: np.ndarray, d: int) -> np.ndarray:
    """All (p_1..p_d) grid tuples in lexicographic order, one row each."""
    m = axis.size
    cols = [np.tile(np.repeat(axis, m ** (d - 1 - j)), m**j) for j in range(d)]
    return np.stack(cols, axis=1) if d else np.empty((1, 0))


def _points(prefix: np.ndarray, axis: np.ndarray, s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Grid points (prefix[s], axis[k]) as rows of one C-ordered array."""
    P = np.empty((s.size, prefix.shape[1] + 1))
    for j in range(prefix.shape[1]):
        P[:, j] = prefix[:, j][s]  # column by column: a 1-D gather is several times faster
    P[:, -1] = axis[k]
    return P


def _se_points(prefix: np.ndarray, axis: np.ndarray, a1: np.ndarray, b1: np.ndarray,
               band_se: np.ndarray, k_se: np.ndarray) -> np.ndarray:
    """All SE points in lexicographic order, from the runs of each slice.

    Slice by slice they are the SE rows of the lower band, the interior run
    [a1, b1) and the SE rows of the upper band; band_se counts the SE rows
    of each band (lower and upper alternating) and k_se holds their p_n
    indices in order. Each SE band row is a run of one, so p_n comes from
    one ragged arange over the ordered runs.
    """
    counts = band_se[0::2] + (b1 - a1) + band_se[1::2]
    before = np.cumsum(band_se)[0::2]  # SE band rows ahead of each slice's interior
    kn = _ragged_arange(np.insert(k_se, before, a1),
                        np.insert(np.ones_like(k_se), before, b1 - a1))
    P = np.empty((kn.size, prefix.shape[1] + 1))
    for j in range(prefix.shape[1]):
        P[:, j] = np.repeat(prefix[:, j], counts)
    P[:, -1] = axis[kn]
    return P


def _ragged_arange(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The runs starts[r], starts[r] + 1, ..., starts[r] + lens[r] - 1, end to end."""
    out = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    out += np.arange(out.size)  # in place: one array fewer to allocate and fill
    return out


def _extremes(prefix: np.ndarray, axis: np.ndarray, a1: np.ndarray, b1: np.ndarray,
              band_se: np.ndarray, k_se: np.ndarray):
    """The SE rows at the first argmin and the first argmax of their sums, from the runs.

    The arguments are `_se_points`'. Within a slice a row's sum cannot fall
    as p_n grows, so the first least sum is the first row of some slice,
    and the first greatest sum lies in the first slice whose last row has
    the greatest sum; only those rows, and that one slice, are built and
    summed.
    """
    lower, upper = band_se[0::2], band_se[1::2]
    inner = b1 > a1
    live = np.flatnonzero(lower + upper + inner)  # slices holding an SE row
    if not live.size:
        return None, None
    through = np.cumsum(band_se)  # SE band rows up to the end of each band
    k_pad = np.append(k_se, 0)  # a slice without SE band rows indexes k_se.size or -1: the pad
    start = through[0::2] - lower  # each slice's first SE band row in k_se
    first = np.where(inner & (lower == 0), a1, k_pad[start])[live]
    last = np.where(inner & (upper == 0), b1 - 1, k_pad[through[1::2] - 1])[live]
    heads = _points(prefix, axis, live, first)
    g_best = heads[int(np.argmin(heads.sum(axis=1)))]
    top = live[int(np.argmax(_points(prefix, axis, live, last).sum(axis=1)))]
    one = slice(top, top + 1)
    block = _se_points(prefix[one], axis, a1[one], b1[one], band_se[2 * top:2 * top + 2],
                       k_se[start[top]:through[2 * top + 1]])
    return g_best, block[int(np.argmax(block.sum(axis=1)))]


@dataclass
class _Ends:
    """Predicted SE interval of p_n in every slice.

    In slice s the rows kL[s] <= k < kU[s] are predicted SE: kL is the first
    row at or above player n's floor, kU the first row above the tightest
    bound of the other players (`bounding` marks whose bound moves with p_n).
    Rows from kC[s] up can be neither ESE nor VSE candidates. `interior` is
    False where a constraint that does not involve p_n fails on the whole
    slice; `fallback` marks slices to classify row by row.
    """

    kL: np.ndarray
    kU: np.ndarray
    kC: np.ndarray
    bounding: np.ndarray
    interior: np.ndarray
    fallback: np.ndarray


def _rounding(n: int) -> float:
    """Relative rounding of the floors `_classify` compares and of values derived from them."""
    return 4 * (n + 4) * _EPS


def _floor_error(game: GameSpec, size, at_cap):
    """Rounding bound of the floors `_classify` compares with powers up to `at_cap`.

    `size` bounds the summed magnitudes of the terms of p @ a - p + noise.
    """
    return _rounding(game.n) * (game.gamma_factor * size + at_cap + SAT_TOL)


def floor_error_bound(game: GameSpec) -> np.ndarray:
    """`_floor_error` anywhere in the box: `_slice_ends`' bound (rising with p) at all-p_max."""
    size = game.p_max * (game.attenuation.sum(axis=0) + 2.0) + game.noise
    return _floor_error(game, size, game.p_max)


def _slice_ends(game: GameSpec, axis: np.ndarray, prefix: np.ndarray, step: float) -> _Ends:
    """Place each slice's interval ends from the rearranged SE inequalities.

    Each end gets a bound on how far rounding in `_classify` (and here) can
    move it. Rows outside that blur are decided by the inequalities alone;
    a slice falls back when the blur reaches past the band's outer rows.
    """
    n = game.n
    last = n - 1
    m = axis.size
    gfac = game.gamma_factor
    att = game.attenuation
    p_max = game.p_max
    zeros = np.zeros((prefix.shape[0], 1))
    # interference + noise per receiver at p_n = 0; receiver n's does not move with p_n
    base = prefix @ att[:last] - np.hstack([prefix, zeros]) + game.noise
    # rounding of every floor `_classify` compares, and of the ends computed here
    slack = _rounding(n)
    at_cap = np.hstack([prefix, zeros + p_max])
    size = base + 2.0 * at_cap + att[last] * p_max
    err = _floor_error(game, size, at_cap)

    floor_n = gfac[last] * base[:, last]
    lo = floor_n - SAT_TOL
    lo_err = err[:, last] + slack * np.abs(lo)

    slope = gfac[:last] * att[last, :last]  # fall of player i's margin per unit of p_n
    margin0 = prefix + SAT_TOL - gfac[:last] * base[:, :last]
    bounding = slope > 0.0
    hi_i = margin0[:, bounding] / slope[bounding]
    hi_err = err[:, :last][:, bounding] / slope[bounding] + slack * np.abs(hi_i)
    hi = np.min(hi_i, axis=1, initial=np.inf)
    hi_lo = np.min(hi_i - hi_err, axis=1, initial=np.inf)
    hi_hi = np.min(hi_i + hi_err, axis=1, initial=np.inf)
    # constraints that do not involve p_n hold or fail on the whole slice
    flat = margin0[:, ~bounding]
    flat_err = err[:, :last][:, ~bounding]
    holds = flat > flat_err
    undecided = np.any(~holds & ~(flat < -flat_err), axis=1)

    kL = np.searchsorted(axis, lo, side="left")
    kU = np.searchsorted(axis, hi, side="right")
    cand = floor_n + step + SAT_TOL + lo_err + slack * (floor_n + step + SAT_TOL)
    kC = np.searchsorted(axis, cand, side="right")

    def below(k, x):  # every row up to k lies below x (vacuous if none)
        return (k < 0) | (axis[np.minimum(np.maximum(k, 0), m - 1)] < x)

    def above(k, x):  # every row from k up lies above x (vacuous if none)
        return (k >= m) | (axis[np.minimum(np.maximum(k, 0), m - 1)] > x)

    ok = below(kL - 2, lo - lo_err) & above(kL + 1, lo + lo_err)
    ok &= below(kU - 2, hi_lo) & above(kU + 1, hi_hi)
    ok &= np.isfinite(lo_err) & np.isfinite(cand) & ~np.isnan(hi_hi) & ~undecided
    return _Ends(kL, kU, kC, bounding, np.all(holds, axis=1), ~ok)


def _rows(ends: _Ends, m: int):
    """Each slice's row segments and the band rows `_classify` decides.

    A slice runs a lower band [a0, a1), an interior [a1, b1) that the
    inequalities make SE points, and an upper band [c0, c1). The lower band
    runs from two rows below kL to the end of the candidates (at least
    kL + 2), the upper band from kU - 2 to kU + 2, so both hold a row on
    each side of their end; a fallback slice is all lower band. Returns the
    interior's bounds a1, b1 and each band row's band and p_n index, slice
    by slice, lower band first: slice s has bands 2s and 2s + 1.
    """
    kL, kU, fb = ends.kL, ends.kU, ends.fallback
    a0 = np.where(fb, 0, np.maximum(kL - 2, 0))
    a1 = np.where(fb, m, np.minimum(np.maximum(ends.kC, kL + 2), m))
    c0 = np.maximum(kU - 2, a1)
    c1 = np.where(fb, m, np.maximum(np.minimum(kU + 2, m), c0))
    b1 = np.where(ends.interior & ~fb, c0, a1)
    lens = np.stack([a1 - a0, c1 - c0], axis=1).ravel()
    k = _ragged_arange(np.stack([a0, c0], axis=1).ravel(), lens)
    band = np.repeat(np.arange(lens.size), lens)
    return a1, b1, band, k


def _contradicted(ends: _Ends, sat: np.ndarray, s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Slices whose band rows disagree with the predicted ends, one entry per row.

    Two rows below kL player n must be unsatisfied and from kL + 1 up
    satisfied; up to kU - 2 the bounding players must all be satisfied and
    from kU + 1 up not. A band that does not bracket its end this way sends
    the slice to the row-by-row fallback.
    """
    lo, hi = ends.kL[s], ends.kU[s]
    own = sat[:, -1]
    others = _all_columns(sat[:, :-1][:, ends.bounding])
    bad = ((k <= lo - 2) & own) | ((k >= lo + 1) & ~own)
    bad |= ((k <= hi - 2) & ~others) | ((k >= hi + 1) & others)
    return s[bad & ~ends.fallback[s]]

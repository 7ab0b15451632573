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
kC of the lower band: above it, player n can step down one grid step, stay
satisfied and lower its ratio, so the candidate tests run only there. A
slice is classified by `_classify` on every row, candidate tests included,
when rounding could blur its ends by a grid row, when that ratio drop is
not safely above SAT_TOL, or when its bands disagree with the predicted
ends. The result is the same, bit for bit, as classifying every grid
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameSpec, SAT_TOL

MAX_GRID_POINTS = 10**8
_EPS = np.finfo(float).eps


class ResourceLimitError(RuntimeError):
    """Grid enumeration would exceed the point budget."""


@dataclass(frozen=True)
class OracleResult:
    """Classified grid scan of the power box.

    se_points are all grid satisfaction equilibria (lexicographic order).
    ese_candidates are SE points with every player within one grid step of
    its minimal satisfying power; vse_candidates are SE points where no
    single-player grid move to another satisfying power lowers that
    player's power-to-rate ratio. g_best / g_worst extremize
    g(p) = 1 / sum(p) over the SE set.
    """

    grid_step: float
    se_points: np.ndarray
    ese_candidates: np.ndarray
    vse_candidates: np.ndarray
    g_best: np.ndarray | None
    g_worst: np.ndarray | None

    @property
    def is_empty(self) -> bool:
        return self.se_points.shape[0] == 0


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
        runs, s, k = _rows(ends, m)
        P = _points(prefix, axis, s, k)
        cand = ends.fallback[s] | (k < ends.kC[s])  # rows that can hold a candidate
        sat, se, ese, vse = _classify(game, P, grid_step, cand)
        wrong = _contradicted(ends, sat, s, k)
        if wrong.size == 0:
            break
        ends.fallback[wrong] = True

    se_points, counts = _se_points(prefix, axis, runs, k, se)
    g_best, g_worst = _extremes(se_points, counts)
    return OracleResult(
        grid_step=float(grid_step),
        se_points=se_points,
        ese_candidates=P[ese],
        vse_candidates=P[vse],
        g_best=g_best,
        g_worst=g_worst,
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
    inter = inter[test]
    floors = floors[test]

    ese[test] = _all_columns(P <= floors + grid_step + SAT_TOL)

    # every player's one-step moves at once: entry (row, i) moves player i
    ratio_here = _ratio(P, inter)
    valued = np.ones(P.shape[0], dtype=bool)
    for move in (-grid_step, grid_step):
        q = P + move
        ok = (q >= -SAT_TOL) & (q <= game.p_max + SAT_TOL)
        ok &= q >= floors - SAT_TOL  # deviation must stay satisfying
        better = np.zeros_like(ok)
        better[ok] = _ratio(q[ok], inter[ok]) < ratio_here[ok] - SAT_TOL
        valued &= _all_columns(~better)
    vse[test] = valued
    return sat, se, ese, vse


def _all_columns(mask: np.ndarray) -> np.ndarray:
    """mask.all(axis=1), one column at a time: numpy reduces a short last axis slowly."""
    out = np.ones(mask.shape[0], dtype=bool)
    for column in mask.T:
        out &= column
    return out


def _ratio(p: np.ndarray, inter: np.ndarray) -> np.ndarray:
    """Vectorized power-to-rate ratio with the p -> 0 limit filled in."""
    u = 0.5 * np.log2(1.0 + p / inter)
    out = np.where(p > 0.0, p / np.where(u > 0.0, u, 1.0), 2.0 * np.log(2.0) * inter)
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


def _se_points(prefix: np.ndarray, axis: np.ndarray, runs: np.ndarray, k: np.ndarray,
               se: np.ndarray):
    """All SE points in lexicographic order, with each slice's count of them.

    Slice by slice they are the SE rows of the lower band, the interior run
    [a1, b1) and the SE rows of the upper band. Each SE band row is a run of
    one, so p_n comes from one ragged arange over the ordered runs.
    """
    a0, a1, b1, c0, c1 = runs
    lower, upper = a1 - a0, c1 - c0
    seen = np.r_[0, np.cumsum(se)]  # SE rows among the band rows before each band row
    stop = np.cumsum(lower + upper)  # band rows up to each slice's end
    counts = seen[stop] - seen[stop - lower - upper] + (b1 - a1)
    before = seen[stop - upper]  # SE band rows ahead of each slice's interior
    k_se = k[se]
    kn = _ragged_arange(np.insert(k_se, before, a1),
                        np.insert(np.ones_like(k_se), before, b1 - a1))
    P = np.empty((kn.size, prefix.shape[1] + 1))
    for j in range(prefix.shape[1]):
        P[:, j] = np.repeat(prefix[:, j], counts)
    P[:, -1] = axis[kn]
    return P, counts


def _ragged_arange(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The runs starts[r], starts[r] + 1, ..., starts[r] + lens[r] - 1, end to end."""
    out = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    out += np.arange(out.size)  # in place: one array fewer to allocate and fill
    return out


def _extremes(points: np.ndarray, counts: np.ndarray):
    """The rows at the first argmin and the first argmax of points.sum(axis=1).

    `counts` holds the rows of each slice. Within a slice a row's sum cannot
    fall as p_n grows, so the first least sum is the first row of some
    slice, and the first greatest sum lies in the first slice whose last row
    has the greatest sum; only those rows are summed.
    """
    counts = counts[counts > 0]
    if not counts.size:
        return None, None
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    g_best = points[first[int(np.argmin(points[first].sum(axis=1)))]]
    top = int(np.argmax(points[last].sum(axis=1)))
    block = points[first[top]:last[top] + 1]
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
    ok &= _ratio_falls(axis, step, p_max, base[:, last], slack * size[:, last], slack)
    return _Ends(kL, kU, kC, bounding, np.all(holds, axis=1), ~ok)


def _ratio_falls(axis, step, p_max, inter, inter_err, slack) -> np.ndarray:
    """Whether player n's -step move surely lowers its ratio above the lower band.

    There p_n - step stays satisfying. The ratio p / u(p) is increasing and
    concave in p, so one step down from any p <= p_max lowers it by at least
    step times its slope at p_max. That fall must beat SAT_TOL plus the
    rounding of the two ratios compared, which grows as p / inter -> 0.
    """
    inter_lo = inter - inter_err
    inter_hi = inter + inter_err
    t = np.maximum(p_max / inter_lo, 1e-3)  # below 1e-3 the slope is within 1e-3 of its max
    slope = 2.0 * np.log(2.0) * (np.log1p(t) - t / (1.0 + t)) / np.log1p(t) ** 2
    fall = (step - slack * p_max) * slope
    p_least = np.min(axis[2:] - step, initial=step)  # least positive p compared
    top = p_max / (0.5 * np.log2(1.0 + p_max / inter_hi))  # largest ratio compared
    blur = slack * top * (1.0 + 1.0 / np.log1p(p_least / inter_hi))
    return (inter_err <= 0.5 * inter) & (fall > SAT_TOL + 4.0 * blur)


def _rows(ends: _Ends, m: int):
    """Each slice's row segments and the band rows `_classify` decides.

    A slice runs a lower band [a0, a1), an interior [a1, b1) that the
    inequalities make SE points, and an upper band [c0, c1). The lower band
    runs from two rows below kL to the end of the candidates (at least
    kL + 2), the upper band from kU - 2 to kU + 2, so both hold a row on
    each side of their end; a fallback slice is all lower band. Returns the
    bounds (a0, a1, b1, c0, c1) and each band row's slice and p_n index,
    slice by slice, lower band first.
    """
    kL, kU, fb = ends.kL, ends.kU, ends.fallback
    a0 = np.where(fb, 0, np.maximum(kL - 2, 0))
    a1 = np.where(fb, m, np.minimum(np.maximum(ends.kC, kL + 2), m))
    c0 = np.maximum(kU - 2, a1)
    c1 = np.where(fb, m, np.maximum(np.minimum(kU + 2, m), c0))
    b1 = np.where(ends.interior & ~fb, c0, a1)
    k = _ragged_arange(np.stack([a0, c0], axis=1).ravel(),
                       np.stack([a1 - a0, c1 - c0], axis=1).ravel())
    s = np.repeat(np.arange(kL.size), (a1 - a0) + (c1 - c0))
    return np.stack([a0, a1, b1, c0, c1]), s, k


def _contradicted(ends: _Ends, sat: np.ndarray, s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Slices whose band rows disagree with the predicted ends.

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
    return np.unique(s[bad & ~ends.fallback[s]])

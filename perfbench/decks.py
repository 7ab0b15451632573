"""Seeded op decks for the in-process workloads, with reference answers.

A deck is the list of games one pass of a workload takes through its
pipeline. Games are drawn from the seed alone and handed to segic as plain
arrays (or scenario files), so the package receives only generated inputs.
Each game carries its reference verdict, computed here without segic:
existence is the M-matrix test rho(G) < 1 with G = diag(4^gamma - 1) *
offdiag(a)^T, and the ESE is the solution of (I - G) p = (4^gamma - 1) * noise.

Strata are filled by rejection against the reference verdict, so every pass
has the same mix of feasible, infeasible and outside-the-box games whatever
the seed. Draws that hit known defects of the package are kept and tagged
(`Op.known`), so a check failure on them is reported as explained.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GAMMA_OVERFLOW = "gamma_overflow"  # 4**gamma overflows to inf
TINY_SCALE = "tiny_scale"  # powers and noise scaled by 1e-12: absolute tolerances
NEAR_CRITICAL = "near_critical"  # |rho(G) - 1| <= 1e-12: verdict within rounding

TINY = 1e-12


@dataclass
class Reference:
    rho: float
    exists: bool
    ese: np.ndarray | None
    in_box: bool
    G: np.ndarray | None
    b: np.ndarray | None


@dataclass
class Op:
    kind: str
    a: np.ndarray  # normalized attenuation a[j, i], unit diagonal
    noise: np.ndarray
    gammas: np.ndarray
    p_max: float
    ref: Reference
    form: str = "normal"  # normal | raw | file
    h: np.ndarray | None = None
    awgn: float | None = None
    path: str | None = None
    scale: float = 1.0
    twin: int | None = None  # deck index of the unscaled game
    known: str | None = None
    cache: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.a.shape[0]


def _lu(rng, lo, hi, size=None):
    return 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size)


def gamma_factor(gammas: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 4.0**gammas - 1.0


def coupling(a: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    off = a.T.copy()
    np.fill_diagonal(off, 0.0)
    return gamma_factor(gammas)[:, None] * off


def spectral_radius(G: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(G))))


def reference(a, noise, gammas, p_max, rho=None) -> Reference:
    gfac = gamma_factor(gammas)
    if not np.all(np.isfinite(gfac)):
        # every SE needs p_i >= gfac_i * noise_i = inf: none exists
        return Reference(np.inf, False, None, False, None, None)
    G = coupling(a, gammas)
    b = gfac * noise
    rho = spectral_radius(G) if rho is None else rho
    if rho >= 1.0:
        return Reference(rho, False, None, False, G, b)
    ese = np.linalg.solve(np.eye(len(b)) - G, b)
    return Reference(rho, True, ese, bool(np.all(ese <= p_max)), G, b)


def _known(gammas, ref: Reference, scale: float) -> str | None:
    if not np.all(np.isfinite(gamma_factor(gammas))):
        return GAMMA_OVERFLOW
    if scale == TINY:
        return TINY_SCALE
    if abs(ref.rho - 1.0) <= 1e-12:
        return NEAR_CRITICAL
    return None


def make_op(kind, a, noise, gammas, p_max, scale=1.0, rho=None, **extra) -> Op:
    ref = reference(a, noise, gammas, p_max, rho)
    return Op(kind, a, noise, gammas, float(p_max), ref,
              scale=scale, known=_known(gammas, ref, scale), **extra)


def _fill(draw, accept, count, what, tries=200):
    out = []
    for _ in range(count * tries):
        if len(out) == count:
            return out
        op = draw()
        if accept(op):
            out.append(op)
    raise RuntimeError(f"could not draw {count} {what} games")


def _by_rho(draw, accept, edges, counts, what, tries=500):
    """Stratified by rho(G): counts[k] games with edges[k] <= rho < edges[k + 1]."""
    bins: list[list] = [[] for _ in counts]
    for _ in range(sum(counts) * tries):
        if all(len(b) == c for b, c in zip(bins, counts)):
            return [op for b in bins for op in b]
        op = draw()
        k = int(np.searchsorted(edges, op.ref.rho, side="right")) - 1
        if accept(op) and 0 <= k < len(counts) and len(bins[k]) < counts[k]:
            bins[k].append(op)
    raise RuntimeError(f"could not draw {sum(counts)} {what} games")


def _feasible(op):
    return op.ref.exists and op.ref.in_box


# ---------------------------------------------------------------- verify_2p

def _two_player(rng, a_rng, g_rng, i_rng, kind):
    a12, a21 = _lu(rng, *a_rng, 2)
    return make_op(
        kind,
        np.array([[1.0, a12], [a21, 1.0]]),
        _lu(rng, *i_rng, 2),
        _lu(rng, *g_rng, 2),
        10.0,
    )


def _near_critical_two_player(rng, sign):
    # a21 puts the existence product within 1e-14 of 1, below it for sign < 0
    a12 = _lu(rng, 1e-2, 1e1)
    gammas = _lu(rng, 1e-2, 1e1, 2)
    gfac = gamma_factor(gammas)
    a21 = (1.0 + sign * rng.uniform(0.0, 1e-14)) / (a12 * gfac[0] * gfac[1])
    return make_op("2p_critical", np.array([[1.0, a12], [a21, 1.0]]),
                   _lu(rng, 1e-2, 1e1, 2), gammas, 10.0)


def _three_player(rng):
    a = _lu(rng, 1e-2, 1.0, (3, 3))
    np.fill_diagonal(a, 1.0)
    return make_op("3p", a, _lu(rng, 1e-2, 1.0, 3), _lu(rng, 1e-2, 2.0, 3), 10.0)


ALL_REGIMES = ((1e-2, 1e1), (1e-2, 1e1), (1e-2, 1e1))  # a, gamma, noise
WEAK_COUPLING = ((0.05, 0.5), (0.1, 1.0), (0.01, 1.0))


def verify_deck(seed: int) -> list[Op]:
    """148 games: 108 two-player and 40 three-player, p_max = 10.

    Feasible all-regime 2p and feasible 3p games are stratified by rho over
    (about) equal-probability bins of their draw, so the costly strongly
    coupled games come in the same number whatever the seed. Feasible 2p
    games stop at rho = 0.95: PoE's refinement grows like 1/(1 - rho), and
    one game at rho = 0.98 alone moved ops_per_s by 20% between seeds.
    """
    rng = np.random.default_rng(seed)
    every = lambda: _two_player(rng, *ALL_REGIMES, "2p")  # noqa: E731
    weak = lambda: _two_player(rng, *WEAK_COUPLING, "2p_weak")  # noqa: E731
    three = lambda: _three_player(rng)  # noqa: E731
    outside = lambda op: op.ref.exists and not op.ref.in_box  # noqa: E731
    deck = (
        _by_rho(every, _feasible, [0, 0.016, 0.055, 0.175, 0.4, 0.57, 0.82, 0.95],
                [9, 9, 9, 5, 2, 1, 1], "feasible 2p")
        + _fill(every, outside, 6, "outside-box 2p")
        + _fill(every, lambda op: not op.ref.exists, 24, "infeasible 2p")
        + _fill(weak, _feasible, 36, "weak-coupling 2p")
        + [_near_critical_two_player(rng, sign) for sign in (-1, 1) * 3]
        + _by_rho(three, _feasible, [0, 0.025, 0.05, 0.09, 0.15, 0.3, 1], [6] * 6,
                  "feasible 3p")
        + _fill(three, lambda op: not _feasible(op), 4, "infeasible 3p")
    )
    order = rng.permutation(len(deck))
    return [deck[i] for i in order]


# --------------------------------------------------------- nplayer_analytic

def _n_player(rng, n, kind) -> Op | None:
    """One N-player game of the given kind, or None when the draw cannot fit it."""
    a = _lu(rng, 1e-3, 1.0, (n, n))
    np.fill_diagonal(a, 1.0)
    gammas = _lu(rng, 1e-2, 2.0, n)
    noise = _lu(rng, 1e-2, 1.0, n)
    G = coupling(a, gammas)
    rho = spectral_radius(G)
    if kind == "corner":  # row sums of G below 1 bound rho and make the corner an SE
        shrink = rng.uniform(0.1, 0.8) / np.max(G.sum(axis=1))
    elif kind.startswith("critical_"):  # fixed gap 1 - rho, so a fixed dynamics length
        shrink = (1.0 - float(kind.removeprefix("critical_"))) / rho
    elif kind == "infeasible":
        shrink = rng.uniform(1.05, 2.0) / rho
    else:
        shrink = rng.uniform(0.3, 0.95) / rho
    a = a * shrink
    np.fill_diagonal(a, 1.0)
    G = coupling(a, gammas)
    b = gamma_factor(gammas) * noise
    if kind == "infeasible":
        return make_op(kind, a, noise, gammas, 10.0, rho=rho * shrink)
    top = float(np.max(np.linalg.solve(np.eye(n) - G, b)))
    slack = 1.0 - G.sum(axis=1)
    corner = float(np.max(b / slack)) if np.all(slack > 0.0) else np.inf  # least corner SE
    if kind == "corner":
        p_max = corner * rng.uniform(1.1, 3.0)
    elif kind == "outside":
        p_max = top * rng.uniform(0.3, 0.9)
    elif kind == "lp":  # ESE in the box, corner outside the SE region
        lo, hi = 1.05 * top, min(3.0 * top, 0.95 * corner)
        if lo >= hi:
            return None
        p_max = float(_lu(rng, lo, hi))
    else:
        p_max = top * rng.uniform(1.1, 3.0)
    return make_op(kind, a, noise, gammas, p_max, rho=rho * shrink)


def _draw_kind(rng, n, kind) -> Op:
    for _ in range(200):
        op = _n_player(rng, n, kind)
        if op is not None:
            return op
    raise RuntimeError(f"could not draw a {kind} game at n = {n}")


def _scaled(op: Op, scale: float, twin: int) -> Op:
    ref = op.ref
    scaled_ref = Reference(ref.rho, ref.exists, None if ref.ese is None else ref.ese * scale,
                           ref.in_box, ref.G,
                           None if ref.b is None else ref.b * scale)
    return Op(f"{op.kind}*{scale:g}", op.a, op.noise * scale, op.gammas, op.p_max * scale,
              scaled_ref, scale=scale, twin=twin, known=_known(op.gammas, scaled_ref, scale))


def _as_raw(rng, op: Op) -> Op:
    # common AWGN power, direct gains h_ii = awgn / noise_i, h_ji = a_ji * h_ii
    op.awgn = float(_lu(rng, 1e-3, 1.0))
    direct = op.awgn / op.noise
    op.h = op.a * direct[None, :]
    op.form = "raw"
    op.kind += "/raw"
    return op


def _overflow(rng, op: Op) -> Op:
    gammas = op.gammas.copy()
    gammas[0] = rng.uniform(520.0, 600.0)
    return make_op(op.kind + "/gamma_overflow", op.a, op.noise, gammas, op.p_max)


# kinds per pass for n in (2, 10, 100); "twin:<scale>" rescales the op before it
PLAN = (
    ["corner", "twin:1e-12"] + ["corner"] * 2
    + ["lp", "twin:1e-12", "twin:1e6"] + ["lp"] * 5
    + ["critical_1e-2", "critical_1e-3", "critical_1e-4"] + ["infeasible"] * 2 + ["outside"] * 2
    + ["raw:corner", "raw:lp", "file:corner", "file:lp", "overflow:lp"]
)
PLAN_300 = [
    "corner", "twin:1e6", "corner", "lp", "twin:1e-12", "lp",
    "critical_1e-2", "critical_1e-4", "infeasible", "outside", "raw:lp", "overflow:lp",
]
SIZES = (2, 10, 100, 300)


def nplayer_deck(seed: int, workdir: Path) -> list[Op]:
    """84 games: 24 each at n = 2, 10, 100 and 12 at n = 300."""
    rng = np.random.default_rng(seed)
    deck: list[Op] = []
    for n in SIZES:
        for item in PLAN_300 if n == 300 else PLAN:
            mode, _, kind = item.rpartition(":")
            if mode == "twin":
                base = max(i for i, o in enumerate(deck) if o.twin is None)
                deck.append(_scaled(deck[base], float(kind), base))
                continue
            op = _draw_kind(rng, n, kind)
            op.kind = f"n{n}/{op.kind}"
            if mode == "raw":
                op = _as_raw(rng, op)
            elif mode == "overflow":
                op = _overflow(rng, op)
            elif mode == "file":
                op = _write_file(rng, op, workdir / f"scenario_{len(deck)}.json")
            deck.append(op)
    return deck


def _write_file(rng, op: Op, path: Path) -> Op:
    data = {"schema_version": 1, "n": op.n, "gammas": op.gammas.tolist(), "p_max": op.p_max}
    if rng.uniform() < 0.5:
        op = _as_raw(rng, op)
        data.update(h=op.h.tolist(), awgn=op.awgn)
    else:
        data.update(a=op.a.tolist(), noise=op.noise.tolist())
    path.write_text(json.dumps(data))
    op.form, op.path = "file", str(path)
    op.kind += "/file"
    return op

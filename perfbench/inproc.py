"""The in-process workloads: verify_2p and nplayer_analytic.

Each op takes one deck game through the workload's pipeline of segic calls
(timed, every call wrapped by the tracer), then checks the answers against
the deck's reference (untimed). A check failure on a game tagged with a known
defect is an explained failure, and so are a dynamics run that stopped within
what its absolute tolerance allows and an empty oracle scan of an SE region
no grid point lies in; any other failure makes the run incorrect.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import numpy as np

import segic
from decks import Op, gamma_factor

ABS_TOL = "abs_tol"  # dynamics stopped by its absolute step tolerance
GRID_RESOLUTION = "grid_resolution"  # SE region in the box holds no grid point
DYNAMICS_TOL = 1e-9  # the library default, used by the pipeline


def build_game(t, op: Op):
    if op.form == "file":
        return t.call("scenario.load_scenario", segic.load_scenario, op.path)[0]
    if op.form == "raw":
        raw = t.call("model.RawChannel", segic.RawChannel, h=op.h, awgn=op.awgn)
        return t.call("model.game_from_raw", segic.game_from_raw, raw, op.gammas, op.p_max)
    return t.call("model.GameSpec", segic.GameSpec, attenuation=op.a, noise=op.noise,
                  thresholds=op.gammas, p_max=op.p_max)


def oracle_step(game) -> float:
    """The CLI's default PoE grid step: p_max/200 for n = 2, p_max/40 for n = 3."""
    return game.p_max / (200.0 if game.n == 2 else 40.0)


def verify_pipeline(t, op: Op) -> dict:
    game = build_game(t, op)
    r = {"game": game}
    if game.n == 2:
        r["exists2"] = t.call("analysis.exists_two_player", segic.exists_two_player, game)[0]
    try:
        r["ese"] = t.call("analysis.solve_ese", segic.solve_ese, game)
    except segic.NoEquilibriumError:
        r["ese"] = None
    ese = r["ese"]
    in_box = ese is not None and bool(np.all(ese <= game.p_max))
    step = oracle_step(game)
    if in_box:
        r["valued"] = t.call("analysis.is_valued_se", segic.is_valued_se, game, ese, grid_step=step)
    scan = r["scan"] = t.call("oracle.enumerate_grid", segic.enumerate_grid, game, step)
    if not scan.is_empty:
        r["poe"] = t.call("metrics.price_of_efficiency", segic.price_of_efficiency, game, scan)
    if in_box:
        r["mposa"], r["worst"] = t.call("metrics.max_price_of_satisfaction",
                                        segic.max_price_of_satisfaction, game)
    return r


def nplayer_pipeline(t, op: Op) -> dict:
    game = build_game(t, op)
    rep = t.call("analysis.analyze", segic.analyze, game)
    r = {"game": game, "ese": rep.ese, "report": rep}
    if rep.exists and rep.ese_in_box:
        r["mposa"], r["worst"] = t.call("metrics.max_price_of_satisfaction",
                                        segic.max_price_of_satisfaction, game)
    r["dynamics"] = t.call("analysis.satisfaction_response_dynamics",
                           segic.satisfaction_response_dynamics, game, np.zeros(game.n),
                           tol=DYNAMICS_TOL)
    return r


# ------------------------------------------------------------------ checks

def _check_ese(op: Op, r: dict, fails: list) -> None:
    ese, ref = r["ese"], op.ref
    A = np.eye(op.n) - ref.G
    residual = np.max(np.abs(A @ ese - ref.b))
    if not residual <= 1e-10 * (np.max(np.abs(A).sum(axis=1)) * np.max(ese) + np.max(ref.b)):
        fails.append(("ESE residual of A p = b too large", None))
    inter = ese @ op.a - ese + op.noise
    u = 0.5 * np.log2(1.0 + ese / inter)
    if not np.all(np.abs(u - op.gammas) <= 1e-8 * np.maximum(1.0, op.gammas)):
        fails.append(("ESE utilities differ from the targets", None))
    if op.n == 2:
        try:
            closed = segic.ese_two_player(r["game"])
        except segic.NoEquilibriumError:
            fails.append(("ese_two_player raised where solve_ese found an ESE", None))
            return
        # two stable solvers may differ by the forward error cond(A) * eps
        tol = 1e-9 + 10.0 * np.linalg.cond(A, np.inf) * np.finfo(float).eps
        if not np.max(np.abs(closed - ese)) <= tol * np.max(np.abs(ese)):
            fails.append(("solve_ese differs from ese_two_player", None))


def _check_common(op: Op, r: dict, fails: list) -> None:
    exists = r["ese"] is not None
    if exists != op.ref.exists:
        fails.append(("existence disagrees with rho(G) < 1", None))
    elif exists:
        _check_ese(op, r, fails)
    if "mposa" in r and not r["mposa"] >= 1.0 - 1e-12:
        fails.append(("MPoSa below 1", None))


def verify_check(op: Op, r: dict, verdicts: dict, index: int) -> list:
    fails: list = []
    if "exists2" in r and r["exists2"] != (r["ese"] is not None):
        fails.append(("exists_two_player disagrees with solve_ese", None))
    _check_common(op, r, fails)
    if r["scan"].is_empty == (op.ref.exists and op.ref.in_box):
        missed = r["scan"].is_empty and not _grid_hits_region(op, oracle_step(r["game"]))
        fails.append(("oracle emptiness disagrees with the ESE verdict",
                      GRID_RESOLUTION if missed else None))
    if r.get("valued") is False:
        fails.append(("ESE is not a valued SE", None))
    if "poe" in r and not abs(r["poe"] - 1.0) <= 1e-6:
        fails.append(("PoE differs from 1", None))
    return fails


def _grid_hits_region(op: Op, step: float) -> bool:
    """Brute force: does any grid point lie strictly inside the SE region?"""
    axis = np.linspace(0.0, op.p_max, int(round(op.p_max / step)) + 1)
    P = np.stack(np.meshgrid(*[axis] * op.n, indexing="ij"), axis=-1).reshape(-1, op.n)
    floors = gamma_factor(op.gammas) * (P @ op.a - P + op.noise)
    return bool(np.any(np.all(P > floors * (1.0 + 1e-9), axis=1)))


def nplayer_check(op: Op, r: dict, verdicts: dict, index: int) -> list:
    fails: list = []
    rep = r["report"]
    if rep.exists and rep.ese_in_box != op.ref.in_box:
        fails.append(("ESE box verdict disagrees with the reference", None))
    _check_common(op, r, fails)
    verdict = verdicts[index] = (rep.exists, rep.ese_in_box)
    if op.twin is not None and verdict != verdicts[op.twin]:
        fails.append((f"verdict at scale {op.scale:g} differs from the unscaled game", None))
    p, _, converged = r["dynamics"]
    ese = op.ref.ese
    if converged and op.ref.exists and op.ref.in_box:
        err = np.max(np.abs(p - ese))
        if not err <= 1e-6 * np.max(ese):
            # iterates rise monotonically to the ESE, so a stop at step < tol
            # leaves an error of at most ||(I - G)^-1 G||_inf * tol
            if "lag" not in op.cache:
                op.cache["lag"] = np.max(np.abs(np.linalg.inv(np.eye(op.n) - op.ref.G)
                                                - np.eye(op.n)).sum(axis=1))
            allowed = op.cache["lag"] * DYNAMICS_TOL * 1.01
            fails.append(("converged dynamics stops away from the ESE",
                          ABS_TOL if err <= allowed else None))
    return fails


# ------------------------------------------------------------------ counts

def verify_counts(r: dict, counts: dict) -> None:
    scan, game = r["scan"], r["game"]
    axis = int(round(game.p_max / oracle_step(game))) + 1
    counts["oracle.grid_points"] += axis**game.n
    counts["oracle.se_points"] += scan.se_points.shape[0]
    counts["oracle.empty_scans"] += int(scan.is_empty)
    ese_c, vse_c = scan.ese_candidates.shape[0], scan.vse_candidates.shape[0]
    counts["oracle.candidates"] += ese_c + vse_c
    if "poe" in r:
        counts["metrics.poe_seeds"] += max(ese_c, 1) + max(vse_c, 1)
    _mposa_counts(r, counts)


def nplayer_counts(r: dict, counts: dict) -> None:
    _, iters, converged = r["dynamics"]
    counts["analysis.dynamics_iters"] += iters
    counts["analysis.dynamics_unconverged"] += int(not converged)
    _mposa_counts(r, counts)


def _mposa_counts(r: dict, counts: dict) -> None:
    if "worst" in r:
        counts["mposa"] += 1
        counts["mposa_lp"] += int(not np.all(r["worst"] == r["game"].p_max))


PIPELINES = {
    "verify_2p": (verify_pipeline, verify_check, verify_counts),
    "nplayer_analytic": (nplayer_pipeline, nplayer_check, nplayer_counts),
}


# ------------------------------------------------------------------- passes

def run_pass(workload: str, deck: list[Op], tracer, pass_no: int, outcome, reps=None) -> dict:
    """One pass over the deck: per-op latencies, best-of-reps latencies and counts.

    Op i runs reps[i] times back to back; only the first run is traced and
    checked, and `latencies` holds its time, `bests` the least of the runs.
    """
    pipeline, check, count = PIPELINES[workload]
    latencies, bests = [], []
    counts: dict = defaultdict(int)
    verdicts: dict = {}
    for index, op in enumerate(deck):
        tracer.op_id = pass_no * len(deck) + index
        start = perf_counter()
        try:
            r = tracer.call(f"op.{workload}", pipeline, tracer, op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            latencies.append(perf_counter() - start)
            bests.append(latencies[-1])
            verdicts[index] = None
            outcome.record(index, op.kind, [(f"raised {type(exc).__name__}: {exc}", op.known)])
            continue
        latencies.append(perf_counter() - start)
        best = latencies[-1]
        traced, tracer.enabled = tracer.enabled, False
        for _ in range(reps[index] - 1 if reps else 0):
            start = perf_counter()
            pipeline(tracer, op)
            best = min(best, perf_counter() - start)
        tracer.enabled = traced
        bests.append(best)
        fails = check(op, r, verdicts, index)
        outcome.record(index, op.kind, [(reason, cls or op.known) for reason, cls in fails])
        count(r, counts)
    return {"latencies": latencies, "bests": bests, "counts": dict(counts)}

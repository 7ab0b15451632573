"""What the benchmark measures: workloads, metrics, bounds and predictions.

`BENCHMARK.json` at the repository root is generated from this module by
`python3 perfbench/run.py --write-manifest`; `perfbench/selftest.py` checks
that the two agree. The predictions are kept here, next to the metric they
are about, so a later change can cite one by metric name.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# Why each workload exists (longer form in README.md). The tier-1 test suite's
# wall time is deliberately not a workload: each run takes about 25 s and a
# regression check runs every workload 22 times. verify_2p covers the code
# paths of acceptance criteria 2-6.
WORKLOADS = {
    "verify_2p": (
        "2- and 3-player games, feasible/infeasible/outside the box, through "
        "exists, solve_ese, is_valued_se, the grid oracle, PoE and MPoSa; the "
        "oracle does most of the work"
    ),
    "nplayer_analytic": (
        "N-player games, n in {2,10,100,300}, incl. near-critical, raw, file "
        "and rescaled games, through analyze, MPoSa and the dynamics; the "
        "oracle is never called"
    ),
    "cli_cold": (
        "every CLI subcommand as a fresh process, outputs checked against "
        "pinned digests; the only workload paying interpreter start and "
        "import segic on every op"
    ),
}

# name -> (unit, better, bound). `ok_ratio` is the share of ops whose
# answers passed every check, i.e. 1 - fail_ratio: a bound is a share of
# the parent's median, so a metric must never be 0, and fail_ratio is 0 on
# cli_cold.
# Timing bounds sit at the 0.25 maximum: on a shared 2-vCPU host whole runs
# shift by 30-50% between the host's calm and busy phases, see README.md.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_tail_ms": ("ms", "lower", 0.25),
    "ok_ratio": ("ratio", "higher", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better, prediction). Counts and busy times are per pass
# over the workload's op deck; see perfbench/README.md.
PER_LAYER = {
    "oracle.calls": ("count", "lower", "fixed by the deck; moves nothing"),
    "oracle.busy_s": ("s", "lower", "moves ops_per_s, op_tail_ms on verify_2p; nothing on nplayer_analytic; ~1% of op_p50_ms on cli_cold"),
    "oracle.grid_points": ("count", "lower", "exact; drops only with slice/early-exit scans; moves ops_per_s and peak_rss_mb on verify_2p"),
    "oracle.points_per_s": ("1/s", "higher", "moves ops_per_s and op_tail_ms on verify_2p"),
    "oracle.se_points": ("count", "lower", "exact; streaming candidates moves peak_rss_mb on verify_2p"),
    "oracle.se_ratio": ("ratio", "higher", "exact; base: grid points; early exit and slice scans raise it on verify_2p"),
    "oracle.empty_scans": ("count", "lower", "exact; fixed by the deck; empty scans are where early exit pays on verify_2p"),
    "oracle.candidates": ("count", "lower", "ESE+VSE candidates; moves ops_per_s on verify_2p through PoE"),
    "metrics.poe_calls": ("count", "lower", "fixed by the deck; moves nothing"),
    "metrics.poe_busy_s": ("s", "lower", "moves ops_per_s on verify_2p"),
    "metrics.poe_seeds": ("count", "lower", "exact; candidates passed to PoE; moves ops_per_s on verify_2p"),
    "metrics.mposa_calls": ("count", "lower", "fixed by the deck; moves nothing"),
    "metrics.mposa_busy_s": ("s", "lower", "moves op_tail_ms and ops_per_s on nplayer_analytic"),
    "metrics.mposa_lp_ratio": ("ratio", "lower", "share of MPoSa calls whose worst SE is not the corner; base: MPoSa calls"),
    "analysis.solve_ese_calls": ("count", "lower", "fixed by the deck; moves nothing"),
    "analysis.solve_ese_busy_s": ("s", "lower", "moves ops_per_s on verify_2p; on nplayer_analytic solve_ese runs inside analyze and shows as analysis.analyze_busy_s"),
    "analysis.analyze_busy_s": ("s", "lower", "moves op_p50_ms on nplayer_analytic"),
    "analysis.exists_busy_s": ("s", "lower", "exists_two_player on verify_2p; a single existence test inside analyze moves op_p50_ms on nplayer_analytic"),
    "analysis.is_valued_se_busy_s": ("s", "lower", "moves ops_per_s on verify_2p"),
    "analysis.dynamics_calls": ("count", "lower", "fixed by the deck; moves nothing"),
    "analysis.dynamics_busy_s": ("s", "lower", "moves ops_per_s on nplayer_analytic"),
    "analysis.dynamics_iters": ("count", "lower", "exact; moves ops_per_s on nplayer_analytic"),
    "analysis.dynamics_unconverged": ("count", "lower", "exact; runs that hit max_iters"),
    "model.gamespec_calls": ("count", "lower", "fixed by the deck; moves nothing"),
    "model.gamespec_busy_s": ("s", "lower", "GameSpec, RawChannel, game_from_raw; moves op_p50_ms on nplayer_analytic at n=2"),
    "scenario.load_calls": ("count", "lower", "fixed by the deck; moves nothing"),
    "scenario.load_busy_s": ("s", "lower", "predicted to move nothing"),
    "cli.import_s": ("s", "lower", "moves setup_s on all workloads and op_p50_ms on cli_cold"),
    "cli.analyze_s": ("s", "lower", "moves op_tail_ms and ops_per_s on cli_cold"),
    "cli.region_s": ("s", "lower", "moves op_tail_ms and ops_per_s on cli_cold"),
    "cli.sweep_s": ("s", "lower", "moves op_tail_ms and ops_per_s on cli_cold"),
    "cli.dynamics_s": ("s", "lower", "moves op_tail_ms and ops_per_s on cli_cold"),
    "cli.bytes_out": ("count", "lower", "exact; stdout plus files; fixed by the golden digests"),
    "trace.overhead_ratio": ("ratio", "lower", "traced over untraced pass time, minus 1; moves nothing"),
}

# Counts that must repeat exactly for a fixed seed (selftest.py checks them).
EXACT_COUNTS = (
    "oracle.grid_points",
    "oracle.se_points",
    "oracle.empty_scans",
    "metrics.poe_seeds",
    "analysis.dynamics_iters",
    "cli.bytes_out",
)


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [
            {"name": k, "unit": u, "better": b, "bound": bound}
            for k, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": k, "unit": u, "better": b} for k, (u, b, _) in PER_LAYER.items()
        ],
    }

"""Benchmark of segic: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload verify_2p --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, both modes
    python3 perfbench/run.py --write-manifest              # regenerate BENCHMARK.json

One closed-loop client in one process: each op starts when the previous one
has finished. segic is imported from src/ (nothing is installed) and BLAS is
pinned to one thread. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 the per-layer ones from spans around every
call into segic. Full results, with the environment, go to perfbench/results/.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"
for _var in BLAS_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import manifest  # noqa: E402
from outcome import Outcome  # noqa: E402
from tracing import Tracer, per_name  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"
SETUP_REPS = 3
TAIL_BEYOND = 10
REP_BUDGET_S = 0.02  # in-process ops faster than this repeat back to back ...
MAX_REPS = 9  # ... up to this many times per pass

# per-layer metric prefix -> span names of the segic calls it covers
LAYER_SPANS = {
    "oracle.": ("oracle.enumerate_grid",),
    "metrics.poe_": ("metrics.price_of_efficiency",),
    "metrics.mposa_": ("metrics.max_price_of_satisfaction",),
    "analysis.solve_ese_": ("analysis.solve_ese",),
    "analysis.analyze_": ("analysis.analyze",),
    "analysis.exists_": ("analysis.exists_two_player",),
    "analysis.is_valued_se_": ("analysis.is_valued_se",),
    "analysis.dynamics_": ("analysis.satisfaction_response_dynamics",),
    "model.gamespec_": ("model.GameSpec", "model.RawChannel", "model.game_from_raw"),
    "scenario.load_": ("scenario.load_scenario",),
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


@contextlib.contextmanager
def workdir_for(tag: str):
    path = WORK / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup(make_inputs):
    """Fresh-interpreter `import segic` plus input generation, SETUP_REPS times."""
    reps = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import segic"], cwd=ROOT, env=child_env(),
                       check=True, capture_output=True, timeout=120)
        imported = perf_counter() - start
        inputs = make_inputs()
        reps.append((imported, perf_counter() - start - imported))
    return inputs, {
        "setup_s": median(i + g for i, g in reps),
        "import_s": median(i for i, _ in reps),
        "reps": reps,
    }


def latency_stats(samples_s: list[float]) -> dict:
    """Median and the highest percentile with TAIL_BEYOND samples beyond it."""
    values = sorted(samples_s)
    rank = max(len(values) - TAIL_BEYOND - 1, 0)
    return {
        "op_p50_ms": median(values) * 1e3,
        "op_tail_ms": values[rank] * 1e3,
        "tail_percentile": 100.0 * (rank + 1) / len(values),
        "samples": len(values),
    }


def measure(run_one_pass, seconds: float, trace: bool) -> list[tuple[bool, dict]]:
    """Whole passes until `seconds` have gone; traced mode alternates untraced/traced."""
    passes = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, run_one_pass(traced)))
        kinds = {t for t, _ in passes}
        if perf_counter() - start >= seconds and (not trace or len(kinds) == 2):
            return passes


def overhead_ratio(passes) -> float:
    """Best traced pass time over best untraced pass time, minus 1."""
    def pass_time(traced):
        return min(sum(p["latencies"]) for t, p in passes if t == traced)
    return pass_time(True) / pass_time(False) - 1.0


# ---------------------------------------------------------------- workloads

def run_inproc(workload, seed, seconds, trace, workdir, outcome):
    import decks

    if workload == "verify_2p":
        deck, info = setup(lambda: decks.verify_deck(seed))
    else:
        deck, info = setup(lambda: decks.nplayer_deck(seed, workdir))
    sys.path.insert(0, str(SRC))
    import inproc

    tracer = Tracer()
    warmup = inproc.run_pass(workload, deck, tracer, 0, outcome)
    exact = warmup["counts"]
    reps = [min(max(int(REP_BUDGET_S / t), 1), MAX_REPS) for t in warmup["latencies"]]
    pass_numbers = itertools.count(1)

    def one_pass(traced):
        tracer.enabled, first = traced, len(tracer.spans)
        result = inproc.run_pass(workload, deck, tracer, next(pass_numbers), outcome, reps)
        tracer.enabled = False
        if traced:
            result["self_times"] = tracer.self_times(first)
        if result["counts"] != exact:
            outcome.fault("exact counts differ between passes")
        return result

    passes = measure(one_pass, seconds, trace)
    untraced = [p for t, p in passes if not t]
    per_op = [median(p["bests"][i] for p in untraced) for i in range(len(deck))]
    stats = latency_stats(per_op)
    values = {
        "setup_s": info["setup_s"],
        "ops_per_s": len(deck) / sum(per_op),
        "op_p50_ms": stats["op_p50_ms"],
        "op_tail_ms": stats["op_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "deck_ops": len(deck),
        "passes": {"warmup": 1, "untraced": len(untraced), "traced": len(passes) - len(untraced)},
        "latency_samples": len(deck) * len(untraced),
        "tail": f"p{stats['tail_percentile']:.2f} of {len(deck)} per-op medians "
                f"({TAIL_BEYOND} beyond; {len(deck) * len(untraced)} samples)",
        "deck_kinds": dict(sorted(Counter(op.kind for op in deck).items())),
        "reps": reps,
        "pass_latencies_s": [p["latencies"] for p in untraced],
        "pass_bests_s": [p["bests"] for p in untraced],
        "setup": info,
        "exact_counts": exact,
    }
    if trace:
        values.update(layer_metrics(passes, exact, info["import_s"]))
    return values, details, tracer


def layer_metrics(passes, exact: dict, import_s: float) -> dict:
    traced = [per_name(p["self_times"]) for t, p in passes if t]
    values = {name: 0 for name in manifest.PER_LAYER}
    for prefix, names in LAYER_SPANS.items():
        values[prefix + "calls"] = sum(traced[0][0].get(n, 0) for n in names)
        values[prefix + "busy_s"] = min(sum(busy.get(n, 0.0) for n in names)
                                        for _, busy in traced)
    for name in manifest.PER_LAYER:
        if name in exact:
            values[name] = exact[name]
    grid, busy = values["oracle.grid_points"], values["oracle.busy_s"]
    values["oracle.points_per_s"] = grid / busy if busy else 0.0
    values["oracle.se_ratio"] = values["oracle.se_points"] / grid if grid else 0.0
    mposa = exact.get("mposa", 0)
    values["metrics.mposa_lp_ratio"] = exact.get("mposa_lp", 0) / mposa if mposa else 0.0
    values["cli.import_s"] = import_s
    values["trace.overhead_ratio"] = overhead_ratio(passes)
    return values


def run_cli(seed, seconds, trace, workdir, outcome):
    import cli_cold

    def load():
        for name in cli_cold.SCENARIOS:
            (ROOT / "scenarios" / f"{name}.json").read_bytes()
        return json.loads(cli_cold.GOLDEN.read_text())

    golden, info = setup(load)
    ops = cli_cold.invocations()
    random.Random(seed).shuffle(ops)
    tracer = Tracer()
    env = child_env()
    bytes_per_pass: list[int] = []

    def one_pass(traced):
        tracer.enabled = traced
        walls, size = [], 0
        for name, argv in ops:
            try:
                res = tracer.call("cli." + name.split(".")[0], cli_cold.run_one,
                                  name, argv, ROOT, workdir, env)
            except subprocess.TimeoutExpired:
                outcome.record(name, name, [(f"timed out after {cli_cold.TIMEOUT_S} s", None)])
                continue
            walls.append((name, res["wall"]))
            size += res["bytes"]
            ok = res["digest"] == golden.get(name)
            outcome.record(name, name, [] if ok else [("output differs from the golden digest", None)])
        tracer.enabled = False
        bytes_per_pass.append(size)
        return {"latencies": [w for _, w in walls], "walls": walls}

    passes = measure(one_pass, seconds, trace)
    if len(set(bytes_per_pass)) != 1:
        outcome.fault("bytes out differ between passes")
    untraced = [p for t, p in passes if not t]
    samples = [w for p in untraced for w in p["latencies"]]
    stats = latency_stats(samples)
    values = {
        "setup_s": info["setup_s"],
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_ms": stats["op_p50_ms"],
        "op_tail_ms": stats["op_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    details = {
        "deck_ops": len(ops),
        "passes": {"untraced": len(untraced), "traced": len(passes) - len(untraced)},
        "latency_samples": len(samples),
        "tail": f"p{stats['tail_percentile']:.2f} of {len(samples)} cold runs ({TAIL_BEYOND} beyond)",
        "order": [name for name, _ in ops],
        "pass_latencies_s": [p["walls"] for p in untraced],
        "setup": info,
        "exact_counts": {"cli.bytes_out": bytes_per_pass[0]},
    }
    if trace:
        values.update({name: 0 for name in manifest.PER_LAYER})
        for sub in ("analyze", "region", "sweep", "dynamics"):
            walls = [w for t, p in passes if t for name, w in p["walls"]
                     if name.startswith(sub + ".")]
            values[f"cli.{sub}_s"] = median(walls) if walls else 0.0
        values["cli.bytes_out"] = bytes_per_pass[0]
        values["cli.import_s"] = info["import_s"]
        values["trace.overhead_ratio"] = overhead_ratio(passes)
    return values, details, tracer


# ------------------------------------------------------------------ output

def environment(seed: int, seconds: int, trace: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "segic").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop, 1 client, 1 process",
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> int:
    env = environment(seed, seconds, trace)
    outcome = Outcome()
    with workdir_for(workload) as workdir:
        if workload == "cli_cold":
            values, details, tracer = run_cli(seed, seconds, trace, workdir, outcome)
        else:
            values, details, tracer = run_inproc(workload, seed, seconds, trace, workdir, outcome)
    values["ok_ratio"] = 1.0 - outcome.failed / outcome.attempted
    spec = manifest.PER_LAYER if trace else manifest.END_TO_END
    metrics = {name: {"value": values[name], "unit": spec[name][0]} for name in spec}

    print(f"# segic benchmark  workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:30s} {m['value']!r} {m['unit']}")
    summary = outcome.summary()
    print(f"# fail_ratio {summary['fail_ratio']!r} ({outcome.failed} of {outcome.attempted} ops)")
    for key in ("tail", "latency_samples", "passes", "exact_counts"):
        print(f"# {key} {json.dumps(details[key], sort_keys=True)}")
    for kind in ("explained", "unexplained"):
        for reason, count in summary[kind].items():
            print(f"# {kind} failure x{count}: {reason}")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{trace}"
    if trace:
        tracer.write(f"{stem}-spans.json")
    stem.with_suffix(".json").write_text(json.dumps(
        {"environment": env, "metrics": metrics, "outcome": summary, "details": details},
        indent=1, sort_keys=True, default=str) + "\n")
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in manifest.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*manifest.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from perfbench/manifest.py")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest.manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    missing = [p for p in (SRC / "segic" / "__init__.py", ROOT / "scenarios") if not p.exists()]
    if missing:
        print(f"error: segic sources not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

"""The cli_cold workload: every segic subcommand as a fresh process.

Each invocation's exit code, stdout and output file are checked against
SHA-256 digests pinned in golden.json, which holds README.md's contract that
identical inputs give byte-identical text and CSV.

Run this file directly to rewrite golden.json from the current program:

    python3 perfbench/cli_cold.py
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
ENTRY = "from segic.cli import entry_point; entry_point()"
TIMEOUT_S = 120

SCENARIOS = ("g0", "g0_infeasible", "g0_raw", "three_player")


def invocations() -> list[tuple[str, list[str]]]:
    """(name, argv) per op; "{out}" is replaced by the op's output file."""
    ops = []
    for name in SCENARIOS:
        path = f"scenarios/{name}.json"
        ops.append((f"analyze.{name}.json", ["analyze", path, "--json"]))
        ops.append((f"analyze.{name}.text", ["analyze", path]))
    ops += [
        ("region.three_player", ["region", "scenarios/three_player.json", "--grid", "30", "--out", "{out}"]),
        ("region.g0", ["region", "scenarios/g0.json", "--grid", "200", "--out", "{out}"]),
        ("sweep.g0", ["sweep", "scenarios/g0.json", "--param", "a12", "--from", "0", "--to", "2",
                      "--steps", "201", "--out", "{out}"]),
        ("dynamics.g0", ["dynamics", "scenarios/g0.json", "--trace", "{out}"]),
    ]
    return ops


def run_one(name: str, argv: list[str], root: Path, workdir: Path, env: dict) -> dict:
    """Run one invocation cold; return its wall time, digests and byte count."""
    out = workdir / f"{name}.out"
    out.unlink(missing_ok=True)
    argv = [str(out) if a == "{out}" else a for a in argv]
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=root, env=env,
                          capture_output=True, timeout=TIMEOUT_S)
    wall = perf_counter() - start
    result = {
        "exit": proc.returncode,
        "stdout": hashlib.sha256(proc.stdout).hexdigest(),
        "out": None,
    }
    size = len(proc.stdout)
    if out.exists():
        data = out.read_bytes()
        result["out"] = hashlib.sha256(data).hexdigest()
        size += len(data)
        out.unlink()
    return {"wall": wall, "digest": result, "bytes": size, "stderr": proc.stderr}


def write_golden() -> None:
    sys.path.insert(0, str(HERE))
    from run import ROOT, child_env, workdir_for

    with workdir_for("golden") as workdir:
        golden = {name: run_one(name, argv, ROOT, workdir, child_env())["digest"]
                  for name, argv in invocations()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()

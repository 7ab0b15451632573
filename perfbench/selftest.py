"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is what manifest.py generates, that every
workload prints a well-formed result line in both modes, and that two traced
runs with one seed report identical exact counts and call counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import manifest

HERE = Path(__file__).resolve().parent
SEED = 7


def result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(workload: str, res: dict, spec: dict, errors: list) -> None:
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload}: result keys {sorted(res)}")
    if set(res["metrics"]) != set(spec):
        errors.append(f"{workload}: metrics {sorted(set(res['metrics']) ^ set(spec))} differ")
    if not res["correct"] or res["attempted"] < 1:
        errors.append(f"{workload}: correct={res['correct']} attempted={res['attempted']}")


def main() -> int:
    errors: list[str] = []
    on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if on_disk != manifest.manifest():
        errors.append("BENCHMARK.json differs from manifest.py; run run.py --write-manifest")
    repeated = [*manifest.EXACT_COUNTS, *(n for n in manifest.PER_LAYER if n.endswith("calls"))]
    for workload in manifest.WORKLOADS:
        check_result(workload, result(workload, 0), manifest.END_TO_END, errors)
        first, second = result(workload, 1), result(workload, 1)
        check_result(workload, first, manifest.PER_LAYER, errors)
        for name in repeated:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                errors.append(f"{workload}: {name} differs between runs: {a} != {b}")
        print(f"{workload}: " + ", ".join(
            f"{n}={first['metrics'][n]['value']}" for n in manifest.EXACT_COUNTS))
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""Every CLI invocation of the benchmark reproduces its pinned digests.

perfbench/golden.json pins the exit code and the SHA-256 of stdout and of
the output file of each `perfbench.cli_cold.invocations()` entry: README's
contract that identical inputs give byte-identical text and CSV. Here each
one runs in-process, and `python -m segic` / `python -m segic.cli` run one
as a subprocess; the golden file is only read.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from segic.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _invocations():
    spec = importlib.util.spec_from_file_location("cli_cold", PERFBENCH / "cli_cold.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.invocations()


GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
INVOCATIONS = _invocations()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_invocation_is_pinned():
    assert sorted(name for name, _ in INVOCATIONS) == sorted(GOLDEN)


@pytest.mark.parametrize("name,argv", INVOCATIONS, ids=[name for name, _ in INVOCATIONS])
def test_cli_output_matches_golden(name, argv, tmp_path, monkeypatch, capsys):
    out = tmp_path / f"{name}.out"
    argv = [str(out) if arg == "{out}" else arg for arg in argv]
    monkeypatch.chdir(ROOT)  # scenario paths are relative to the repository root
    code = main(argv)
    stdout = capsys.readouterr().out.encode()
    want = GOLDEN[name]
    assert code == want["exit"]
    assert _sha256(stdout) == want["stdout"]
    assert (_sha256(out.read_bytes()) if out.exists() else None) == want["out"]


@pytest.mark.parametrize("module", ["segic", "segic.cli"])
def test_module_runs_the_cli(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", module, "analyze", "scenarios/g0.json", "--json"],
                          cwd=ROOT, env=env, capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    assert _sha256(proc.stdout) == GOLDEN["analyze.g0.json"]["stdout"]

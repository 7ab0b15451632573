"""A cold start loads scipy only when MPoSa needs its LP.

`scipy.optimize` is most of a cold `import segic`, and only a game whose
all-p_max corner is not an SE needs it. Every check runs in a fresh
interpreter, because the test process may hold scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from segic import GameSpec, is_satisfaction_equilibrium, solve_ese

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ["g0", "g0_infeasible", "g0_raw", "three_player"]

# prints {step: whether any scipy module is loaded after it}
CLI_SCRIPT = """
import contextlib, io, json, sys

def scipy_loaded():
    return any(name.partition(".")[0] == "scipy" for name in sys.modules)

loaded = {}
import segic
loaded["import segic"] = scipy_loaded()
import segic.cli
loaded["import segic.cli"] = scipy_loaded()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        segic.cli.main(argv)
    loaded[" ".join(argv)] = scipy_loaded()
print(json.dumps(loaded))
"""

# the corner (p_max, p_max) of this game is not an SE, so MPoSa needs the LP
LP_GAME = dict(attenuation=[[1.0, 0.1], [1.0, 1.0]], noise=[0.1, 0.1],
               thresholds=[1.0, 0.3], p_max=10.0)

LP_SCRIPT = f"""
import json, sys
import segic
before = "scipy" in sys.modules
mposa, worst = segic.max_price_of_satisfaction(segic.GameSpec(**{LP_GAME!r}))
print(json.dumps([before, "scipy.optimize" in sys.modules, mposa.hex(), [w.hex() for w in worst]]))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_and_lp_free_commands_load_no_scipy(tmp_path):
    argvs = [["analyze", f"scenarios/{name}.json", fmt]
             for name in SCENARIOS for fmt in ("--json", "--text")]
    argvs += [["region", "scenarios/g0.json", "--grid", "20", "--out", str(tmp_path / "r.csv")],
              ["dynamics", "scenarios/g0.json"],
              ["dynamics", "scenarios/g0.json", "--trace", str(tmp_path / "d.csv")]]
    loaded = _python("-c", CLI_SCRIPT, json.dumps(argvs))
    assert len(loaded) == len(argvs) + 2
    assert [step for step, yes in loaded.items() if yes] == []


def test_lp_loads_scipy_and_solves_the_same_program():
    before, after, mposa, worst = _python("-c", LP_SCRIPT)
    assert not before and after
    mposa, worst = float.fromhex(mposa), np.array([float.fromhex(w) for w in worst])
    game = GameSpec(**LP_GAME)
    assert not is_satisfaction_equilibrium(game, np.full(2, game.p_max))
    ref = linprog(c=-np.ones(2), A_ub=-game.A, b_ub=-game.b,
                  bounds=[(0.0, game.p_max)] * 2, method="highs")
    assert ref.success
    assert worst.tobytes() == ref.x.tobytes()
    assert is_satisfaction_equilibrium(game, worst, tol=1e-7)
    assert mposa == float(ref.x.sum()) / float(solve_ese(game).sum())

import csv
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from segic import GameSpec, InvalidInputError, cli, write_scenario
from segic.cli import _fmt, build_parser, main
from segic.model import min_satisfying_powers, satisfied_mask, utilities

from conftest import G0_DICT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestAnalyze:
    def test_reference_game_text(self, capsys, g0_scenario):
        code, out, _ = run(capsys, "analyze", g0_scenario)
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert lines["exists"] == "true"
        assert float(lines["condition_product"]) == pytest.approx(0.25)
        assert [float(v) for v in lines["ese"].split()] == pytest.approx([0.2, 0.2])
        assert lines["ese_in_box"] == "true"
        assert float(lines["poe"]) == pytest.approx(1.0, abs=1e-9)
        assert float(lines["mposa"]) == pytest.approx(5.0, abs=1e-9)

    def test_reference_game_json(self, capsys, g0_scenario):
        code, out, _ = run(capsys, "analyze", g0_scenario, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["exists"] is True
        assert data["ese"] == pytest.approx([0.2, 0.2])
        assert data["tightness"] == pytest.approx([0.0, 0.0], abs=1e-9)
        assert data["mposa"] == pytest.approx(5.0, abs=1e-9)

    def test_infeasible_exit_code(self, capsys, infeasible_scenario):
        code, out, _ = run(capsys, "analyze", infeasible_scenario, "--json")
        assert code == 2
        data = json.loads(out)  # analysis still printed
        assert data["exists"] is False
        assert data["ese"] is None

    def test_malformed_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "error" in err

    def test_both_channel_forms_exit_code(self, capsys, tmp_path):
        path = write(tmp_path, dict(G0_DICT, h=[[1, 1], [1, 1]], awgn=0.1))
        code, _, err = run(capsys, "analyze", path)
        assert code == 1
        assert "exactly one channel form" in err

    def test_deterministic_output(self, capsys, g0_scenario):
        _, out1, _ = run(capsys, "analyze", g0_scenario, "--json")
        _, out2, _ = run(capsys, "analyze", g0_scenario, "--json")
        assert out1 == out2
        _, out3, _ = run(capsys, "analyze", g0_scenario)
        _, out4, _ = run(capsys, "analyze", g0_scenario)
        assert out3 == out4

    def test_raw_normalized_round_trip_identical(self, capsys, tmp_path):
        raw = write(
            tmp_path,
            {
                "schema_version": 1,
                "n": 2,
                "h": [[2.0, 1.0], [1.0, 2.0]],
                "awgn": 0.2,
                "gammas": [0.5, 0.5],
                "p_max": 1.0,
            },
            "raw.json",
        )
        norm = write(tmp_path, G0_DICT, "norm.json")
        _, out_raw, _ = run(capsys, "analyze", raw, "--json")
        _, out_norm, _ = run(capsys, "analyze", norm, "--json")
        a = json.loads(out_raw)
        b = json.loads(out_norm)
        for key in a:
            if isinstance(a[key], list):
                assert a[key] == pytest.approx(b[key], abs=1e-12)
            elif isinstance(a[key], float):
                assert a[key] == pytest.approx(b[key], abs=1e-12)
            else:
                assert a[key] == b[key]


class TestRegion:
    def test_reference_game_wedge(self, capsys, g0_scenario, tmp_path, g0):
        out = tmp_path / "region.csv"
        code, _, _ = run(capsys, "region", g0_scenario, "--grid", "100", "--out", str(out))
        assert code == 0
        rows = read_csv(str(out))
        assert rows[0] == ["p1", "p2", "satisfied_1", "satisfied_2", "is_se"]
        assert len(rows) - 1 == 101**2
        # SE rows form the wedge above both boundary lines
        for row in rows[1:]:
            p1, p2 = float(row[0]), float(row[1])
            above1 = p1 >= 1.0 * (0.5 * p2 + 0.1) - 1e-9
            above2 = p2 >= 1.0 * (0.5 * p1 + 0.1) - 1e-9
            assert (row[4] == "1") == (above1 and above2)

    def test_tiny_threshold_all_se(self, capsys, tmp_path):
        path = write(tmp_path, dict(G0_DICT, gammas=[1e-15, 1e-15]))
        out = tmp_path / "region.csv"
        run(capsys, "region", path, "--grid", "10", "--out", str(out))
        rows = read_csv(str(out))[1:]
        assert all(row[4] == "1" for row in rows)

    def test_infeasible_no_se_rows(self, capsys, infeasible_scenario, tmp_path):
        out = tmp_path / "region.csv"
        run(capsys, "region", infeasible_scenario, "--grid", "50", "--out", str(out))
        rows = read_csv(str(out))[1:]
        assert all(row[4] == "0" for row in rows)

    def test_dimension_guard(self, capsys, tmp_path):
        a = np.eye(4).tolist()
        data = {
            "schema_version": 1,
            "n": 4,
            "a": a,
            "noise": [0.1] * 4,
            "gammas": [0.1] * 4,
            "p_max": 1.0,
        }
        path = write(tmp_path, data)
        code, _, err = run(capsys, "region", path, "--grid", "10", "--out", "/dev/null")
        assert code == 1
        assert "n <= 3" in err


def _region_reference(game, grid, path):
    # the per-point loop `region` ran before it batched each p1 slice
    axis = np.linspace(0.0, game.p_max, grid + 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"p{i + 1}" for i in range(game.n)]
                        + [f"satisfied_{i + 1}" for i in range(game.n)] + ["is_se"])
        for idx in np.ndindex(*([axis.size] * game.n)):
            p = axis[list(idx)]
            sat = satisfied_mask(game, p)
            writer.writerow([_fmt(v) for v in p] + [int(s) for s in sat]
                            + [int(bool(np.all(sat)))])


def _random_game(seed, n):
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-2, 0.3, (n, n))
    np.fill_diagonal(a, 1.0)
    return GameSpec(attenuation=a, noise=10.0 ** rng.uniform(-2, 0, n),
                    thresholds=rng.uniform(0.0, 1.0, n), p_max=10.0 ** rng.uniform(-1, 1))


G0 = GameSpec(attenuation=G0_DICT["a"], noise=G0_DICT["noise"],
              thresholds=G0_DICT["gammas"], p_max=G0_DICT["p_max"])
REGION_GAMES = (
    [(f"random{n}p-{seed}", _random_game(seed, n), grid)
     for n, grid in ((1, 60), (2, 40), (3, 12)) for seed in range(4)]
    + [(f"g0x{scale:g}", replace(G0, noise=G0.noise * scale, p_max=G0.p_max * scale), 50)
       for scale in (1e6, 1e-9)]
)


@pytest.mark.parametrize("game,grid", [case[1:] for case in REGION_GAMES],
                         ids=[case[0] for case in REGION_GAMES])
def test_region_matches_per_point_reference(capsys, tmp_path, game, grid):
    scenario = tmp_path / "game.json"
    write_scenario(scenario, game)
    out, ref = tmp_path / "region.csv", tmp_path / "reference.csv"
    code, _, _ = run(capsys, "region", str(scenario), "--grid", str(grid), "--out", str(out))
    assert code == 0
    _region_reference(game, grid, ref)
    assert out.read_bytes() == ref.read_bytes()


class TestSweep:
    def test_a12_existence_boundary(self, capsys, g0_scenario, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", g0_scenario, "--param", "a12",
            "--from", "0", "--to", "2", "--steps", "21", "--out", str(out),
        )
        assert code == 0
        rows = read_csv(str(out))
        assert rows[0][0] == "a12"
        values = [float(r[0]) for r in rows[1:]]
        assert values[0] == 0.0 and values[-1] == 2.0
        # G0 has gfac = 1 and a21 = 0.5: exists iff 0.5 * a12 < 1, i.e. a12 < 2
        for row in rows[1:]:
            assert (row[1] == "1") == (float(row[0]) < 2.0)
        # non-existent rows leave the ESE columns empty
        assert rows[-1][2] == "" and rows[-1][3] == ""

    def test_gamma_sweep_decoupled(self, capsys, tmp_path):
        path = write(tmp_path, dict(G0_DICT, a=[[1.0, 0.0], [0.0, 1.0]]))
        out = tmp_path / "sweep.csv"
        run(
            capsys, "sweep", path, "--param", "gamma_1",
            "--from", "0.1", "--to", "1.0", "--steps", "10", "--out", str(out),
        )
        rows = read_csv(str(out))[1:]
        ese1 = [float(r[2]) for r in rows]
        for value, p1 in zip((float(r[0]) for r in rows), ese1):
            assert p1 == pytest.approx((4.0**value - 1.0) * 0.1, rel=1e-12)
        assert ese1 == sorted(ese1)

    def test_p_max_sweep_flips_in_box(self, capsys, g0_scenario, tmp_path):
        out = tmp_path / "sweep.csv"
        run(
            capsys, "sweep", g0_scenario, "--param", "p_max",
            "--from", "0.1", "--to", "0.3", "--steps", "3", "--out", str(out),
        )
        rows = read_csv(str(out))[1:]
        in_box = [r[4] for r in rows]
        assert in_box == ["0", "1", "1"]  # ESE component 0.2 vs caps 0.1, 0.2, 0.3

    def test_each_swept_game_built_once(self, capsys, g0_scenario, tmp_path, monkeypatch):
        built = []
        apply_param = cli._apply_param

        def counting(*args):
            built.append(args)
            return apply_param(*args)

        monkeypatch.setattr(cli, "_apply_param", counting)
        code, _, _ = run(
            capsys, "sweep", g0_scenario, "--param", "a12",
            "--from", "0", "--to", "2", "--steps", "5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 0 and len(built) == 5

    def test_unknown_parameter(self, capsys, g0_scenario, tmp_path):
        code, _, err = run(
            capsys, "sweep", g0_scenario, "--param", "bogus",
            "--from", "0", "--to", "1", "--steps", "2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "unknown parameter" in err


class TestDynamics:
    def test_reference_game_converges(self, capsys, g0_scenario, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys, "dynamics", g0_scenario, "--tol", "1e-9", "--trace", str(trace)
        )
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert lines["converged"] == "true"
        assert [float(v) for v in lines["final"].split()] == pytest.approx(
            [0.2, 0.2], abs=1e-8
        )
        assert lines["is_se"] == "true"
        rows = read_csv(str(trace))
        assert rows[0] == ["iteration", "p1", "p2", "u1", "u2"]
        assert rows[1][0] == "0" and float(rows[1][1]) == 0.0
        # iterates are componentwise nondecreasing from zero
        p1s = [float(r[1]) for r in rows[1:]]
        assert p1s == sorted(p1s)

    def test_zero_threshold_one_iteration(self, capsys, tmp_path):
        path = write(tmp_path, dict(G0_DICT, gammas=[0.0, 0.0]))
        code, out, _ = run(capsys, "dynamics", path)
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert lines["converged"] == "true"
        assert lines["iterations"] == "1"

    def test_infeasible_clamps_not_se(self, capsys, infeasible_scenario):
        code, out, _ = run(capsys, "dynamics", infeasible_scenario)
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert lines["converged"] == "true"
        assert [float(v) for v in lines["final"].split()] == [1.0, 1.0]
        assert lines["is_se"] == "false"

    def test_untraced_run_keeps_only_the_last_round(self, capsys, tmp_path):
        # rho = 4**gamma - 1 = sqrt(1 - 1e-6): 50,000 rounds stay far from converged
        gamma = math.log(1.0 + math.sqrt(1.0 - 1e-6), 4.0)
        path = write(tmp_path, dict(G0_DICT, a=[[1.0, 1.0], [1.0, 1.0]], noise=[1e-7, 1e-7],
                                    gammas=[gamma, gamma], p_max=10.0))
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "dynamics", path, "--max-iters", "50000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert lines["converged"] == "false" and lines["iterations"] == "50000"
        assert peak < 1_000_000

    def test_trace_rows_are_single_profile_calls(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.0, 0.3, (5, 5))
        np.fill_diagonal(a, 1.0)
        data = dict(G0_DICT, n=5, a=a.tolist(), noise=[0.1] * 5, gammas=[0.3] * 5, p_max=5.0)
        trace = tmp_path / "trace.csv"
        code, out, _ = run(capsys, "dynamics", write(tmp_path, data), "--trace", str(trace))
        assert code == 0
        game = GameSpec(attenuation=a, noise=data["noise"], thresholds=data["gammas"], p_max=5.0)
        rows = read_csv(str(trace))[1:]
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert len(rows) == int(lines["iterations"]) + 1
        p = np.zeros(5)
        for k, row in enumerate(rows):
            if k:
                p = np.minimum(min_satisfying_powers(game, p), game.p_max)
            assert row == [str(k)] + [_fmt(v) for v in p] + [_fmt(v) for v in utilities(game, p)]
        assert lines["final"] == " ".join(row[1:6])
        assert lines["utilities"] == " ".join(row[6:])


@pytest.mark.parametrize(
    "argv",
    [
        ["region", "--grid", "0"],
        ["region", "--grid", "-1"],
        ["sweep", "--param", "a12", "--from", "0", "--to", "2", "--steps", "0"],
        ["dynamics", "--max-iters", "0"],
        ["dynamics", "--tol", "0"],
        ["dynamics", "--tol=-1e-9"],
        ["dynamics", "--tol", "nan"],
        ["dynamics", "--tol", "inf"],
    ],
    ids=" ".join,
)
def test_out_of_range_flag_is_input_error(capsys, g0_scenario, tmp_path, argv):
    out = tmp_path / "out.csv"
    if argv[0] != "dynamics":
        argv = argv + ["--out", str(out)]
    code, stdout, err = run(capsys, argv[0], g0_scenario, *argv[1:])
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()



FOUR_PLAYERS = dict(G0_DICT, n=4, a=np.eye(4).tolist(), noise=[0.1] * 4, gammas=[0.1] * 4)
THREE_PLAYER = json.loads(
    (Path(__file__).resolve().parent.parent / "scenarios" / "three_player.json").read_text())
SWEEP = ["--from", "0", "--to", "1", "--steps", "2"]


@pytest.mark.parametrize(
    "scenario,argv,message",
    [
        (FOUR_PLAYERS, ["region", "--grid", "10"], "supports n <= 3, got n = 4"),
        (THREE_PLAYER, ["region", "--grid", "500"], "125751501 points exceeds the 100000000"),
        (THREE_PLAYER, ["sweep", "--param", "a12", *SWEEP], "two-player scenarios only"),
        (G0_DICT, ["sweep", "--param", "bogus", *SWEEP], "unknown parameter 'bogus'"),
        # the last swept value is invalid: no row may be written before it
        (G0_DICT, ["sweep", "--param", "p_max", "--from", "2", "--to", "0", "--steps", "3"],
         r"p_max = 0\.0 must be positive and finite"),
        (G0_DICT, ["sweep", "--param", "gamma_1", "--from", "0.5", "--to", "600", "--steps", "3"],
         r"thresholds\[0\] = 600\.0 overflows"),
    ],
    ids=["region-n4", "region-budget", "sweep-n3", "sweep-bogus", "sweep-p_max-zero",
         "sweep-gamma-overflow"],
)
def test_unsupported_input_is_input_error(capsys, tmp_path, scenario, argv, message):
    out = tmp_path / "out.csv"
    argv = [argv[0], write(tmp_path, scenario), *argv[1:], "--out", str(out)]
    args = build_parser().parse_args(argv)
    with pytest.raises(InvalidInputError, match=message):
        args.func(args)  # the command raises; only `main` prints
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()

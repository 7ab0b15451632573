"""Command-line front end: analyze / region / sweep / dynamics.

All commands read a JSON scenario file (see `segic.scenario`) and write
deterministic text or CSV. Exit codes: 0 success, 1 input error, 2 when
`analyze` finds no satisfaction equilibrium inside the power box.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from itertools import chain, islice

import numpy as np

from . import analysis, metrics, oracle
from .model import GameSpec, InvalidInputError, satisfied_mask, utilities
from .scenario import load_scenario


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def cmd_analyze(args) -> int:
    game, _ = load_scenario(args.scenario)
    report = metrics.analyze(game)
    mposa = report.mposa  # read first: MPoSa runs before PoE's oracle scan
    out = {
        "exists": report.exists,
        "condition_product": report.condition_product,
        "ese": None if report.ese is None else list(report.ese),
        "ese_in_box": report.ese_in_box,
        "tightness": None if report.tightness is None else list(report.tightness),
        "poe": report.poe,
        "mposa": None if mposa is None else mposa[0],
    }
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        for key, val in out.items():
            if val is None:
                text = "null"
            elif isinstance(val, bool):
                text = "true" if val else "false"
            elif isinstance(val, list):
                text = " ".join(_fmt(v) for v in val)
            else:
                text = _fmt(val)
            print(f"{key}: {text}")
    return 0 if report.exists and report.ese_in_box else 2


def cmd_region(args) -> int:
    if args.grid < 1:
        raise InvalidInputError("--grid must be >= 1")
    game, _ = load_scenario(args.scenario)
    if game.n > 3:
        raise InvalidInputError(f"region export supports n <= 3, got n = {game.n}")
    total = (args.grid + 1) ** game.n
    if total > oracle.MAX_GRID_POINTS:
        raise InvalidInputError(
            f"region grid of {total} points exceeds the {oracle.MAX_GRID_POINTS} point budget"
        )
    axis = np.linspace(0.0, game.p_max, args.grid + 1)
    text = [_fmt(v) for v in axis]
    header = [f"{c}{i + 1}" for c in ("p", "satisfied_") for i in range(game.n)] + ["is_se"]
    # grid indices of one p1 slice in row order: O(m^(n-1)) memory, not O(m^n)
    shape = (axis.size,) * game.n
    idx = np.column_stack(np.unravel_index(np.arange(axis.size ** (game.n - 1)), shape))
    rest = ["".join("," + text[j] for j in row[1:]) for row in idx.tolist()]
    digits = np.array(["0", "1"])
    with open(args.out, "w", newline="") as fh:
        # the bytes csv.writer would write: no field ever needs quoting
        fh.write(",".join(header) + "\r\n")
        for first, p1 in enumerate(text):
            idx[:, 0] = first
            sat = satisfied_mask(game, axis[idx])
            cols = digits[np.column_stack([sat, sat.all(axis=1)]).view(np.int8)]
            flags = [",".join(f) for f in cols.tolist()]
            fh.write("".join([f"{p1}{others},{f}\r\n" for others, f in zip(rest, flags)]))
    return 0


# sweep parameter -> (GameSpec field, index into it; None for the scalar p_max)
_SWEEP_PARAMS = {
    "a12": ("attenuation", (0, 1)),
    "a21": ("attenuation", (1, 0)),
    "gamma_1": ("thresholds", 0),
    "gamma_2": ("thresholds", 1),
    "noise_1": ("noise", 0),
    "noise_2": ("noise", 1),
    "p_max": ("p_max", None),
}


def _apply_param(game: GameSpec, name: str, value: float) -> GameSpec:
    field, index = _SWEEP_PARAMS[name]
    if index is None:
        return replace(game, **{field: value})
    values = getattr(game, field).copy()
    values[index] = value
    return replace(game, **{field: values})


def cmd_sweep(args) -> int:
    if args.steps < 1:
        raise InvalidInputError("--steps must be >= 1")
    game, _ = load_scenario(args.scenario)
    if game.n != 2:
        raise InvalidInputError("sweep supports two-player scenarios only")
    if args.param not in _SWEEP_PARAMS:
        raise InvalidInputError(
            f"unknown parameter {args.param!r}; choose from {', '.join(_SWEEP_PARAMS)}"
        )
    for flag, value in (("--from", args.start), ("--to", args.stop)):
        if not np.isfinite(value):
            raise InvalidInputError(f"{flag} = {value} must be finite")
    if not np.isfinite(args.stop - args.start):
        raise InvalidInputError("the span from --from to --to overflows a float")
    values = np.linspace(args.start, args.stop, args.steps)
    # each validity rule on one swept field is an interval, so valid ends mean
    # every value between them is valid: building the two end games first
    # fails an invalid sweep before the file is opened, and memory stays flat
    ends = {k: _apply_param(game, args.param, float(values[k]))
            for k in sorted({0, args.steps - 1})}
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.param, "exists", "ese_1", "ese_2", "ese_in_box", "mposa"])
        for k, value in enumerate(values):
            swept = ends.pop(k) if k in ends else _apply_param(game, args.param, float(value))
            report = metrics.analyze(swept)
            row = [_fmt(value), int(report.exists)]
            if report.exists:
                mposa = "" if report.mposa is None else _fmt(report.mposa[0])
                row += [_fmt(report.ese[0]), _fmt(report.ese[1]), int(report.ese_in_box), mposa]
            else:
                row += ["", "", "", ""]
            writer.writerow(row)
    return 0


def cmd_dynamics(args) -> int:
    if args.max_iters < 1:
        raise InvalidInputError("--max-iters must be >= 1")
    game, _ = load_scenario(args.scenario)
    p = np.zeros(game.n)
    rounds = analysis.satisfaction_response_iterates(game, p, tol=args.tol)
    rounds = enumerate(islice(rounds, args.max_iters), 1)
    # no round is kept past its own row, so memory does not grow with --max-iters
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration"] + [f"{c}{i + 1}" for c in "pu" for i in range(game.n)])
            for k, (p, converged) in chain([(0, (p, False))], rounds):  # row 0: the start
                writer.writerow([k] + [_fmt(v) for v in p] + [_fmt(v) for v in utilities(game, p)])
    else:
        for k, (p, converged) in rounds:
            pass

    is_se = analysis.is_satisfaction_equilibrium(game, p, tol=args.tol)
    print(f"converged: {'true' if converged else 'false'}")
    print(f"iterations: {k}")
    print(f"final: {' '.join(_fmt(v) for v in p)}")
    print(f"utilities: {' '.join(_fmt(v) for v in utilities(game, p))}")
    print(f"is_se: {'true' if is_se else 'false'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segic",
        description="Satisfaction-equilibrium analysis of GIC power-control games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="existence, ESE, tightness, PoE, MPoSa")
    p_an.add_argument("scenario")
    fmt = p_an.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--text", dest="json", action="store_false")
    p_an.set_defaults(func=cmd_analyze, json=False)

    p_rg = sub.add_parser("region", help="CSV sampling of the SE region (n <= 3)")
    p_rg.add_argument("scenario")
    p_rg.add_argument("--grid", type=int, default=100, metavar="K")
    p_rg.add_argument("--out", required=True)
    p_rg.set_defaults(func=cmd_region)

    p_sw = sub.add_parser("sweep", help="sweep one parameter, CSV output")
    p_sw.add_argument("scenario")
    p_sw.add_argument("--param", required=True)
    p_sw.add_argument("--from", dest="start", type=float, required=True)
    p_sw.add_argument("--to", dest="stop", type=float, required=True)
    p_sw.add_argument("--steps", type=int, required=True)
    p_sw.add_argument("--out", required=True)
    p_sw.set_defaults(func=cmd_sweep)

    p_dy = sub.add_parser("dynamics", help="satisfaction-response iteration from zero")
    p_dy.add_argument("scenario")
    p_dy.add_argument("--max-iters", type=int, default=10000)
    p_dy.add_argument("--tol", type=float, default=1e-9)
    p_dy.add_argument("--trace")
    p_dy.set_defaults(func=cmd_dynamics)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ScenarioError, InvalidInputError, DimensionError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

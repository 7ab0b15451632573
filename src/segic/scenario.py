"""Scenario files: JSON descriptions of one GIC game.

Schema (version 1): {schema_version, n, a|h, noise|awgn, gammas, p_max,
labels?}. Exactly one channel form must be present: normalized gains "a"
with per-receiver "noise", or raw gains "h" with a common "awgn" power
(normalized on load).
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np

from .model import GameSpec, InvalidInputError, RawChannel, game_from_raw

SCHEMA_VERSION = 1

_KNOWN_FIELDS = {"schema_version", "n", "a", "noise", "h", "awgn", "gammas", "p_max", "labels"}


class ScenarioError(ValueError):
    """Malformed scenario file; the message names the offending field or line."""


def load_scenario(path) -> tuple[GameSpec, dict]:
    """Parse and validate a scenario file, returning the game and metadata."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(data)


def _is_number(value) -> bool:
    """A JSON number that converts to a float: no boolean, no integer past the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _array(data: dict, field: str, shape: tuple[int, ...]) -> np.ndarray:
    """An array field of shape (n,) or (n, n) as floats; every error names the field."""
    value = data[field]
    n = shape[0]
    rows = value if len(shape) == 2 else [value]
    if not isinstance(value, list) or not all(isinstance(row, list) for row in rows):
        what = f"{n} lists of {n} numbers" if len(shape) == 2 else f"a list of {n} numbers"
        raise ScenarioError(f"field {field}: must be {what}, got {value!r}")
    if len(value) != n or any(len(row) != n for row in rows):
        raise ScenarioError(f"field {field}: shape does not match n = {n}")
    for kind in {type(x) for row in rows for x in row}:  # one test per type, not per entry
        if kind is bool or not issubclass(kind, numbers.Real):
            bad = next(x for row in rows for x in row if type(x) is kind)
            raise ScenarioError(f"field {field}: entries must be numbers, got {bad!r}")
    try:
        return np.array(value, dtype=float)
    except OverflowError:
        raise ScenarioError(f"field {field}: an entry is beyond the float range") from None


def scenario_from_dict(data) -> tuple[GameSpec, dict]:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(data) - _KNOWN_FIELDS
    if unknown:
        raise ScenarioError(f"unknown field(s): {', '.join(sorted(unknown))}")
    for field in ("schema_version", "n", "gammas", "p_max"):
        if field not in data:
            raise ScenarioError(f"missing field: {field}")
    for field in ("schema_version", "n", "p_max", "awgn"):
        value = data.get(field, 0)  # awgn is absent from the normalized form
        if not _is_number(value):
            raise ScenarioError(f"field {field}: must be a number, got {value!r}")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"field schema_version: expected {SCHEMA_VERSION}, got {data['schema_version']}"
        )
    n = data["n"]
    if not isinstance(n, int) or n < 1:
        raise ScenarioError(f"field n: must be an integer >= 1, got {n!r}")
    if not isinstance(data.get("labels", []), list):
        raise ScenarioError(f"field labels: must be a list, got {data['labels']!r}")

    has_normalized = "a" in data or "noise" in data
    has_raw = "h" in data or "awgn" in data
    if has_normalized and has_raw:
        raise ScenarioError("exactly one channel form allowed: a/noise or h/awgn")
    if has_normalized:
        if "a" not in data or "noise" not in data:
            raise ScenarioError("normalized form needs both fields: a and noise")
    elif has_raw:
        if "h" not in data or "awgn" not in data:
            raise ScenarioError("raw form needs both fields: h and awgn")
    else:
        raise ScenarioError("missing channel: provide a/noise or h/awgn")

    gammas = _array(data, "gammas", (n,))
    p_max = float(data["p_max"])
    try:
        if has_raw:
            raw = RawChannel(h=_array(data, "h", (n, n)), awgn=float(data["awgn"]))
            game = game_from_raw(raw, gammas, p_max)
        else:
            game = GameSpec(
                attenuation=_array(data, "a", (n, n)),
                noise=_array(data, "noise", (n,)),
                thresholds=gammas,
                p_max=p_max,
            )
    except InvalidInputError as exc:
        raise ScenarioError(str(exc)) from exc

    meta = {"labels": data.get("labels")}
    return game, meta


def normalized_scenario_dict(game: GameSpec, labels=None) -> dict:
    """Serialize a game back to a normalized-form scenario (round-trippable)."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "n": game.n,
        "a": game.attenuation.tolist(),
        "noise": game.noise.tolist(),
        "gammas": game.thresholds.tolist(),
        "p_max": game.p_max,
    }
    if labels is not None:
        out["labels"] = list(labels)
    return out


def write_scenario(path, game: GameSpec, labels=None) -> None:
    Path(path).write_text(
        json.dumps(normalized_scenario_dict(game, labels), indent=2) + "\n"
    )

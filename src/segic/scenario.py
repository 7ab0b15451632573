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
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ScenarioError(f"field {field}: must be a number, got {value!r}")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"field schema_version: expected {SCHEMA_VERSION}, got {data['schema_version']}"
        )
    n = data["n"]
    if not isinstance(n, int) or n < 1:
        raise ScenarioError(f"field n: must be an integer >= 1, got {n!r}")

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

    try:
        if has_raw:
            raw = RawChannel(h=data["h"], awgn=data["awgn"])
            if raw.n != n:
                raise ScenarioError(f"field h: shape does not match n = {n}")
            game = game_from_raw(raw, data["gammas"], data["p_max"])
        else:
            game = GameSpec(
                attenuation=data["a"],
                noise=data["noise"],
                thresholds=data["gammas"],
                p_max=data["p_max"],
            )
            if game.n != n:
                raise ScenarioError(f"field a: shape does not match n = {n}")
    except InvalidInputError as exc:
        raise ScenarioError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"invalid numeric data: {exc}") from exc

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

import json

import numpy as np
import pytest

from segic import ScenarioError, load_scenario
from segic.scenario import normalized_scenario_dict, scenario_from_dict, write_scenario

from conftest import G0_DICT


def write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestLoadScenario:
    def test_normalized_form(self, g0_scenario, g0):
        game, meta = load_scenario(g0_scenario)
        np.testing.assert_allclose(game.attenuation, g0.attenuation)
        np.testing.assert_allclose(game.noise, g0.noise)
        np.testing.assert_allclose(game.thresholds, g0.thresholds)
        assert game.p_max == g0.p_max

    def test_raw_form_normalized_on_load(self, tmp_path, g0):
        # h = [[2, 1], [1, 2]] with awgn 0.2 normalizes to the reference game
        data = {
            "schema_version": 1,
            "n": 2,
            "h": [[2.0, 1.0], [1.0, 2.0]],
            "awgn": 0.2,
            "gammas": [0.5, 0.5],
            "p_max": 1.0,
        }
        game, _ = load_scenario(write(tmp_path, data))
        np.testing.assert_allclose(game.attenuation, g0.attenuation, atol=1e-15)
        np.testing.assert_allclose(game.noise, g0.noise, atol=1e-15)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,\n  "n": oops\n}')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(str(path))

    def test_both_channel_forms_rejected(self, tmp_path):
        data = dict(G0_DICT, h=[[1, 1], [1, 1]], awgn=0.1)
        with pytest.raises(ScenarioError, match="exactly one channel form"):
            load_scenario(write(tmp_path, data))

    def test_missing_channel_rejected(self):
        data = {k: v for k, v in G0_DICT.items() if k not in ("a", "noise")}
        with pytest.raises(ScenarioError, match="missing channel"):
            scenario_from_dict(data)

    def test_missing_field_named(self):
        data = {k: v for k, v in G0_DICT.items() if k != "p_max"}
        with pytest.raises(ScenarioError, match="p_max"):
            scenario_from_dict(data)

    def test_wrong_schema_version(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            scenario_from_dict(dict(G0_DICT, schema_version=2))

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioError, match="bogus"):
            scenario_from_dict(dict(G0_DICT, bogus=1))

    def test_dimension_mismatch(self):
        with pytest.raises(ScenarioError, match="does not match n"):
            scenario_from_dict(dict(G0_DICT, n=3))

    def test_bad_diagonal_rejected(self):
        data = dict(G0_DICT, a=[[2.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ScenarioError, match="diagonal"):
            scenario_from_dict(data)


RAW = {k: v for k, v in G0_DICT.items() if k not in ("a", "noise")}
RAW.update(h=[[2.0, 1.0], [1.0, 2.0]], awgn=0.2)


@pytest.mark.parametrize("field", ["schema_version", "n", "p_max", "awgn"])
@pytest.mark.parametrize("value", [True, "1", None], ids=["bool", "str", "null"])
def test_scalar_field_must_be_a_number(field, value):
    with pytest.raises(ScenarioError, match=f"field {field}: must be a number"):
        scenario_from_dict(dict(RAW, **{field: value}))


class TestRoundTrip:
    def test_raw_to_normalized_round_trip(self, tmp_path, g0):
        data = {
            "schema_version": 1,
            "n": 2,
            "h": [[2.0, 1.0], [1.0, 4.0]],
            "awgn": 0.2,
            "gammas": [0.3, 0.4],
            "p_max": 2.0,
        }
        game, _ = load_scenario(write(tmp_path, data))
        out = tmp_path / "normalized.json"
        write_scenario(out, game)
        game2, _ = load_scenario(str(out))
        np.testing.assert_allclose(game2.attenuation, game.attenuation, atol=1e-12)
        np.testing.assert_allclose(game2.noise, game.noise, atol=1e-12)
        np.testing.assert_allclose(game2.thresholds, game.thresholds, atol=1e-12)
        assert game2.p_max == game.p_max

    def test_dict_serialization_labels(self, g0):
        data = normalized_scenario_dict(g0, labels=["tx1", "tx2"])
        assert data["labels"] == ["tx1", "tx2"]
        game, meta = scenario_from_dict(data)
        assert meta["labels"] == ["tx1", "tx2"]
        assert game.n == 2

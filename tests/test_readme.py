"""The README's library example runs and returns what its comments state."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def results():
    """Each expression line of the ```python block, mapped to its value."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    return values


def test_existence(results):
    assert results["segic.exists_two_player(game)"] == (True, pytest.approx(0.25, abs=1e-15))


def test_ese_routes(results):
    for call in ("segic.ese_two_player(game)", "segic.solve_ese(game)"):
        np.testing.assert_allclose(results[call], [0.2, 0.2], atol=1e-12)


def test_mposa(results):
    mposa, worst = results["segic.max_price_of_satisfaction(game)"]
    assert mposa == pytest.approx(5.0, rel=1e-12)
    np.testing.assert_array_equal(worst, [1.0, 1.0])


def test_poe(results):
    assert results["segic.price_of_efficiency(game, scan)"] == 1.0


def test_valued_se(results):
    assert results["segic.is_valued_se(game, [0.2, 0.2], 0.01)"] is True


def test_report_answers(results):
    mposa, worst = results["report.mposa"]
    assert mposa == pytest.approx(5.0, rel=1e-12)
    np.testing.assert_array_equal(worst, [1.0, 1.0])
    assert results["report.poe"] == 1.0

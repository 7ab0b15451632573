"""The package's internal imports follow its layers.

`model` is the base. The analytic path (`analysis`) and the grid oracle
(`oracle`) each build on `model` alone, so the oracle stays independent
of the closed forms it cross-checks. `metrics` composes both, and the
scenario loader needs only the model. Imports inside functions count too.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "segic"

ALLOWED = {
    "model": set(),
    "oracle": {"model"},
    "analysis": {"model"},
    "scenario": {"model"},
    "metrics": {"model", "analysis", "oracle"},
}


def internal_imports(path: Path) -> set[str]:
    """The segic modules that `path` imports, relative or absolute, anywhere."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "segic":
                    found.add(rest.partition(".")[0] or "segic")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                head, _, module = module.partition(".")
                if head != "segic":
                    continue
            if module:
                found.add(module.partition(".")[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module", ALLOWED)
def test_internal_imports(module):
    assert internal_imports(PACKAGE / f"{module}.py") <= ALLOWED[module]


def test_guard_sees_every_import_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy\nimport segic.oracle\nfrom segic.cli import main\n"
        "from .model import GameSpec\nfrom . import analysis, metrics\n"
        "def f():\n    from .scenario import load_scenario\n"
    )
    assert internal_imports(source) == {"oracle", "cli", "model", "analysis", "metrics", "scenario"}

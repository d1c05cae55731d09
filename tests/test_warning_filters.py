"""pyproject.toml makes a RuntimeWarning raised in the package fail the suite
(an overflow there must raise, not warn), and no test turns that rule off
for itself with an ignore filter."""

import ast
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RULE = "error::RuntimeWarning:bistddp"


def ignored_runtime_warnings(source: str) -> list[str]:
    """The warning-filter strings in `source` that ignore an overflow, an
    invalid value or any RuntimeWarning (action:message:category:...)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            action, message, category = (node.value.split(":") + ["", ""])[:3]
            if action == "ignore" and (message.startswith(("overflow", "invalid value"))
                                       or category.endswith("RuntimeWarning")):
                found.append(f"line {node.lineno}: {node.value!r}")
    return found


@pytest.mark.parametrize("source, expected", [
    ('@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",\n'
     '                            "ignore:invalid value:RuntimeWarning")\ndef test(): ...', 2),
    ('mark.filterwarnings("ignore:invalid value")', 1),
    ('mark.filterwarnings("ignore::RuntimeWarning")', 1),
    ('mark.filterwarnings("ignore:divide by zero:builtins.RuntimeWarning")', 1),
    ('mark.filterwarnings("ignore::DeprecationWarning")', 0),
    ('mark.filterwarnings("error:overflow:RuntimeWarning")', 0),
    ('text = "overflow ignored"', 0),
])
def test_the_detector_finds_filters_that_ignore_runtime_warnings(source, expected):
    assert len(ignored_runtime_warnings(source)) == expected


def test_the_suite_fails_on_a_runtime_warning_from_the_package():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert RULE in config["tool"]["pytest"]["ini_options"]["filterwarnings"]


# every test module but this one, whose detector cases spell such filters out
@pytest.mark.parametrize("path", sorted(p for p in (ROOT / "tests").glob("*.py")
                                        if p.name != Path(__file__).name), ids=lambda p: p.name)
def test_no_test_ignores_runtime_warnings(path):
    found = ignored_runtime_warnings(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name} ignores RuntimeWarnings: {found}"

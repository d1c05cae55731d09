"""The package imports nothing but the standard library and numpy, and the CLI
nothing from the per-sample model API."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bistddp"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "bistddp"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_the_package(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative: the package
            names = [node.module]
        else:
            continue
        outside += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert not outside, f"{path.name} imports outside stdlib and numpy: {outside}"


# kept for perfbench and the tests; the CLI runs on the batched path only
PER_SAMPLE = {"forward", "cross_entropy", "predict_topk", "stable_softmax", "_rank_of"}


def test_cli_uses_no_per_sample_model_code():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & PER_SAMPLE, f"cli.py uses {sorted(names & PER_SAMPLE)}"

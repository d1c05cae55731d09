"""The package imports nothing but the standard library and numpy, and neither
the CLI nor the gradient oracle uses the per-sample model API."""

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


# kept for perfbench and the tests; the CLI and the gradient oracle run on the
# batched path only
PER_SAMPLE = {"forward", "backward", "cross_entropy", "predict_topk", "stable_softmax",
              "_rank_of"}


def per_sample_uses(source: str, function: str | None = None) -> set[str]:
    """The PER_SAMPLE names that `source` imports from the package or reads
    as attributes of a package module; with `function`, only those that
    function's body uses. Attributes of other objects do not count."""
    tree = ast.parse(source)
    # local name -> the package function it is bound to: imported, or defined here
    names = {node.name: node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    modules = {"bistddp"}  # dotted local names of package modules
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name.split(".")[0] == "bistddp"}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("bistddp")):
            for alias in node.names:
                local = alias.asname or alias.name
                if (PACKAGE / f"{alias.name}.py").exists():
                    modules.add(local)
                else:
                    names[local] = alias.name
                    imported.add(alias.name)
    scope, found = tree, imported  # in the whole module, an import is a use
    if function is not None:
        (scope,) = [node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == function]
        found = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and node.id in names:
            found.add(names[node.id])
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules:
            found.add(node.attr)
    return found & PER_SAMPLE


ORACLE_SHAPES = """
from .model import forward
def backward(trace): ...
def uses_backward(trace):
    return backward(trace)
def uses_neither(trace, trans):
    return trans.forward
"""


def test_per_sample_uses_in_one_function():
    assert per_sample_uses(ORACLE_SHAPES, "uses_backward") == {"backward"}
    assert per_sample_uses(ORACLE_SHAPES, "uses_neither") == set()
    assert per_sample_uses(ORACLE_SHAPES) == {"forward", "backward"}


@pytest.mark.parametrize("source, expected", [
    ("from .model import forward", {"forward"}),
    ("from bistddp.model import cross_entropy as ce", {"cross_entropy"}),
    ("from . import model as m\nm.predict_topk(t, 1)", {"predict_topk"}),
    ("from bistddp import train\ntrain.backward(t, s, p, v)", {"backward"}),
    ("import bistddp.numerics\nbistddp.numerics.stable_softmax(z)", {"stable_softmax"}),
    ("import bistddp\nbistddp.forward(s, p, t)", {"forward"}),
    # a count table's directions and a baseline ranker's methods are not the model's
    ("trans = fit_counts(c)\ntrans.forward, trans.backward", set()),
    ("from . import baselines as bl\nbl.fit_counts(c)[0].forward", set()),
])
def test_per_sample_uses_match_what_a_name_refers_to(source, expected):
    assert per_sample_uses(source) == expected


def test_cli_uses_no_per_sample_model_code():
    used = per_sample_uses((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert not used, f"cli.py uses {sorted(used)}"


def test_the_gradient_oracle_uses_no_per_sample_model_code():
    source = (PACKAGE / "train.py").read_text(encoding="utf-8")
    assert per_sample_uses(source) >= {"forward", "cross_entropy"}  # perfbench patches them
    used = per_sample_uses(source, "finite_difference_check")
    assert not used, f"finite_difference_check uses {sorted(used)}"

"""The package imports nothing but the standard library and numpy, neither the
CLI nor the gradient oracle uses the per-sample model API, the package
namespace exports none of it, one model function reads the variant's flags,
and the model reads distance rows only through the row cache it is handed."""

import ast
import inspect
import sys
import typing
from dataclasses import fields
from pathlib import Path

import pytest

from bistddp.geodata import SpatialRowCache
from bistddp.ingest import SampleBatch
from bistddp.model import VariantConfig, forward_batch, target_ranks
from bistddp.train import batch_gradients, finite_difference_check

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


# The per-sample layer, kept only as module attributes: perfbench's gradient check
# calls `train.backward(model.forward(...))` and `model.cross_entropy`, its
# TRACE_POINTS patch those and `model.predict_topk` and `model.stable_softmax`, and
# its pipeline-nyc ranks the baselines through `evaluation.evaluate`, which uses
# `_rank_of`. The package exports none of them, and the CLI and the gradient oracle
# run on the batched path only.
PER_SAMPLE = {"forward", "backward", "cross_entropy", "predict_topk", "stable_softmax",
              "_rank_of"}
# per-instance helpers that `report_from_ranks` and `SampleBatch.pattern` replaced
DELETED = {"recall_at_k", "f1_at_k", "mean_average_precision", "temporal_patterns"}


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


def test_the_package_exports_no_per_sample_or_deleted_name():
    import bistddp

    exported = set(dir(bistddp)) & (PER_SAMPLE | DELETED)
    assert not exported, f"bistddp exports {sorted(exported)}"


def test_cli_uses_no_per_sample_model_code():
    used = per_sample_uses((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert not used, f"cli.py uses {sorted(used)}"


def test_the_gradient_oracle_uses_no_per_sample_model_code():
    source = (PACKAGE / "train.py").read_text(encoding="utf-8")
    assert per_sample_uses(source) >= {"forward", "cross_entropy"}  # perfbench patches them
    used = per_sample_uses(source, "finite_difference_check")
    assert not used, f"finite_difference_check uses {sorted(used)}"


def scoped_nodes(path: Path):
    """(scope, node) for every AST node of `path`, where scope is the
    enclosing "Class.method" or "function", or "<module>" outside any."""

    def visit(node: ast.AST, scope: str):
        yield scope, node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, child.name if scope == "<module>"
                                 else f"{scope}.{child.name}")
            else:
                yield from visit(child, scope)

    return visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")


def variant_flag_reads(path: Path) -> dict[str, set[str]]:
    """The VariantConfig flags each function in `path` reads as an attribute,
    keyed by "Class.method" or "function"; "<module>" for reads outside any."""
    flags = {f.name for f in fields(VariantConfig)}
    reads: dict[str, set[str]] = {}
    for scope, node in scoped_nodes(path):
        if isinstance(node, ast.Attribute) and node.attr in flags:
            reads.setdefault(scope, set()).add(node.attr)
    return reads


def test_only_the_model_reads_the_variant_flags():
    outside = {path.name: reads for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "model.py" and (reads := variant_flag_reads(path))}
    assert not outside, f"modules other than model.py read variant flags: {outside}"


def test_one_model_function_decides_what_the_variant_runs():
    # forward_batch and backward_batch walk the table `_branch_table` builds
    readers = {name for name in variant_flag_reads(PACKAGE / "model.py")
               if not name.startswith("VariantConfig.")}  # its own validation
    assert readers == {"_branch_table"}


def test_only_the_row_cache_computes_distance_rows():
    # so the cache's hit and miss counters see every row the model reads; the
    # model and the package keep `spatial_vector` as an attribute, uncalled
    readers = {(path.name, scope) for path in sorted(PACKAGE.glob("*.py"))
               for scope, node in scoped_nodes(path)
               if isinstance(node, ast.Name) and node.id == "spatial_vector"
               or isinstance(node, ast.Attribute) and node.attr == "spatial_vector"}
    assert readers == {("geodata.py", "SpatialRowCache.row")}


@pytest.mark.parametrize("function", [forward_batch, target_ranks, batch_gradients,
                                      finite_difference_check], ids=lambda f: f.__name__)
def test_the_batched_core_takes_a_batch_and_one_required_row_cache(function):
    parameters = inspect.signature(function).parameters
    hints = typing.get_type_hints(function)
    assert not {"table", "cache"} & parameters.keys()
    assert list(parameters)[:3] == ["batch", "params", "rows"]
    assert hints["batch"] is SampleBatch and hints["rows"] is SpatialRowCache
    assert parameters["rows"].default is inspect.Parameter.empty

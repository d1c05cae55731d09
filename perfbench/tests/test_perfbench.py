"""Tests of the benchmark harness itself, on inputs small enough to run in seconds.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_10 = inputs.DumpSpec(n_users=30, n_pois=40, checkins_per_user=20, home_coverage=12,
                          n_light_users=3, n_rare_pois=4, rare_max_users=3)


def _tiny_workloads() -> dict[str, workloads.Workload]:
    small = {"train-5k": dict(dump=TINY_10, chunk=8, val_chunk=4),
             "pipeline-nyc": dict(dump=TINY_10, chunk=8)}
    return {name: dataclasses.replace(wl, **small[name])
            for name, wl in workloads.WORKLOADS.items()}


def _traced_functions():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.TRACE_POINTS}


def test_generator_is_deterministic_per_seed(tmp_path):
    a = inputs.write_dump(tmp_path / "a.tsv", TINY_10, seed=3)
    b = inputs.write_dump(tmp_path / "b.tsv", TINY_10, seed=3)
    c = inputs.write_dump(tmp_path / "c.tsv", TINY_10, seed=4)
    assert a == b
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    assert c.sha256 != a.sha256


def test_generator_plants_malformed_lines_the_parser_skips(tmp_path):
    from bistddp import ingest

    info = inputs.write_dump(tmp_path / "raw.tsv", TINY_10, seed=1)
    parsed = ingest.parse_foursquare(tmp_path / "raw.tsv")
    assert info.malformed > 0
    assert len(parsed.malformed) == info.malformed
    assert len(parsed.checkins) == info.lines - info.malformed


def test_utc_text_matches_strftime():
    from datetime import datetime, timezone

    for t in (0, 951782400, 1333238400, 1335995999, 1709251199, 4102444799):
        want = datetime.fromtimestamp(t, tz=timezone.utc).strftime("%a %b %d %H:%M:%S +0000 %Y")
        assert inputs._utc_text(t) == want


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.FIT_PARTS) <= set(workloads.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    record = workloads.run(name, 5, 0.01, False, tmp_path, _tiny_workloads())
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert list(record["metrics"]) == list(workloads.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_and_restores_functions(name, tmp_path):
    before = _traced_functions()
    record = workloads.run(name, 5, 0.01, True, tmp_path, _tiny_workloads())
    assert _traced_functions() == before
    assert record["correct"], record
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert list(metrics) == list(workloads.PER_LAYER)
    assert metrics["ingest.parse_s"] > 0 and metrics["ingest.load_corpus_s"] > 0
    if name == "train-5k":
        assert metrics["train.steps"] == 1
        parts = sum(metrics[p] for p in workloads.FIT_PARTS)
        assert parts == pytest.approx(metrics["train.fit_s"], rel=1e-9)
    if name == "pipeline-nyc":
        assert metrics["model.forward_calls"] == 0
        assert metrics["evaluation.rankings"] == 4 * 8


def test_gradient_oracle_passes_a_tiny_true_gradient_and_flags_a_wrong_one():
    # on this seed one true gradient is about 4e-8, where a purely relative
    # tolerance fails on the rounding of the difference quotient
    assert workloads.gradient_oracle(1515994237) <= 0.1

    def off_by_a_thousandth(grads):
        grads["user_hidden"] *= 1.001

    def flipped(grads):
        grads["interval_w_after"] *= -1.0

    assert workloads.gradient_oracle(3, off_by_a_thousandth) > 2.0
    assert workloads.gradient_oracle(3, flipped) > 100.0


def test_patched_restores_functions_when_the_block_raises():
    before = _traced_functions()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().patched():
            assert _traced_functions() != before
            raise RuntimeError("boom")
    assert _traced_functions() == before


def test_self_times_of_nested_spans_add_up():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    root = tracer.wrap("root", lambda: (mid(), leaf()))
    root()
    spans = tracer.take()
    assert [s.name for s in spans] == ["root", "mid", "leaf", "leaf", "leaf"]
    assert [s.parent for s in spans] == [-1, 0, 1, 1, 0]
    own = tracing.self_times(spans)
    assert sum(own) == spans[0].end - spans[0].start
    assert all(t >= 0 for t in own)
    assert tracer.spans == []

    root()  # a second list, whose parent indices start from 0 again
    both = tracing.totals(spans, tracer.take())
    assert both.calls == {"root": 2, "mid": 2, "leaf": 6}
    assert both.self_s["root"] == 2 * own[0] and both.self_s["leaf"] == 6.0
    assert sum(both.self_s.values()) == both.total_s["root"]

"""Ranking metrics: Recall@K, F1-score@K, MAP, and the evaluation harness.

Every instance has exactly one relevant POI, which collapses the usual
definitions: Recall@K is a hit indicator, precision@K is hit/K, F1@K is
2/(K+1) on a hit, and average precision is 1/rank of the truth. Each
metric is defined once, by `report_from_ranks` over those ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .ingest import Sample

Ranker = Callable[[Sample], Sequence[int]]


class TruthMissing(ValueError):
    """The ground-truth POI does not appear in its ranking."""


def _rank_of(ranked, truth: int) -> int:
    """1-based position of `truth` in the ranking."""
    hits = np.asarray(ranked) == truth
    if not hits.size or not hits[first := int(hits.argmax())]:  # argmax stops at the first hit
        raise TruthMissing(f"POI {truth} absent from a ranking of length {hits.size}")
    return first + 1


@dataclass
class MetricsReport:
    recall: dict[int, float]
    f1: dict[int, float]
    map: float
    count: int


def report_from_ranks(ranks: Sequence[int], ks: tuple[int, ...] = (1, 5, 10)) -> MetricsReport:
    """Aggregate every metric from the 1-based rank of each instance's truth.

    Aggregate F1@K is derived from aggregate Recall@K (2R/(K+1)), so the
    single-truth identity holds exactly in the report, not just per
    instance. The reciprocal ranks are summed in instance order, so MAP's
    bits depend only on the ranks, not on how they were computed.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size == 0:
        raise ValueError("no samples to evaluate")
    n = ranks.size
    recall = {k: np.count_nonzero(ranks <= k) / n for k in ks}
    f1 = {k: 2.0 * recall[k] / (k + 1) for k in ks}
    return MetricsReport(recall=recall, f1=f1, map=float(np.cumsum(1.0 / ranks)[-1] / n), count=n)


def evaluate(ranker: Ranker, samples: Iterable[Sample], ks: tuple[int, ...] = (1, 5, 10)) -> MetricsReport:
    """Apply `ranker` to every sample and aggregate all metrics with
    `report_from_ranks`."""
    return report_from_ranks([_rank_of(ranker(s), s.target_poi) for s in samples], ks)


def format_report_table(report: MetricsReport, label: str = "") -> str:
    ks = list(report.recall)
    head = f"{'model':<12}" + "".join(f"{f'r@{k}':>9}" for k in ks)
    head += "".join(f"{f'f1@{k}':>9}" for k in ks) + f"{'map':>9}{'n':>8}"
    row = f"{label:<12}" + "".join(f"{report.recall[k]:>9.4f}" for k in ks)
    row += "".join(f"{report.f1[k]:>9.4f}" for k in ks) + f"{report.map:>9.4f}{report.count:>8}"
    return head + "\n" + row

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
    map: float
    count: int

    @property
    def f1(self) -> dict[int, float]:
        """F1@K of each cutoff, 2R/(K+1) of its Recall@K."""
        return {k: 2.0 * r / (k + 1) for k, r in self.recall.items()}


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
    return MetricsReport(recall=recall, map=float(np.cumsum(1.0 / ranks)[-1] / n), count=n)


def evaluate(ranker: Ranker, samples: Iterable[Sample], ks: tuple[int, ...] = (1, 5, 10)) -> MetricsReport:
    """Apply `ranker` to every sample and aggregate all metrics with
    `report_from_ranks`."""
    return report_from_ranks([_rank_of(ranker(s), s.target_poi) for s in samples], ks)


def format_report_table(reports: dict[str, MetricsReport]) -> str:
    """A header, from the first report's cutoffs, then a row per labelled report."""
    ks = list(next(iter(reports.values())).recall)
    heads = [*(f"r@{k}" for k in ks), *(f"f1@{k}" for k in ks), "map"]
    lines = [f"{'model':<12}" + "".join(f"{h:>9}" for h in heads) + f"{'n':>8}"]
    for label, rep in reports.items():
        cells = [*(rep.recall[k] for k in ks), *(rep.f1[k] for k in ks), rep.map]
        lines.append(f"{label:<12}" + "".join(f"{v:>9.4f}" for v in cells) + f"{rep.count:>8}")
    return "\n".join(lines)

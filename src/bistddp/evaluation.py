"""Ranking metrics: Recall@K, F1-score@K, MAP, and the evaluation harness.

Every instance has exactly one relevant POI, which collapses the usual
definitions: Recall@K is a hit indicator, precision@K is hit/K, F1@K is
2/(K+1) on a hit, and average precision is 1/rank of the truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ingest import Sample

Ranker = Callable[[Sample], Sequence[int]]


class TruthMissing(ValueError):
    """The ground-truth POI does not appear in its ranking."""


def _rank_of(ranked, truth: int) -> int:
    """1-based position of `truth` in the ranking."""
    arr = np.asarray(ranked)
    pos = np.nonzero(arr == truth)[0]
    if pos.size == 0:
        raise TruthMissing(f"POI {truth} absent from a ranking of length {arr.size}")
    return int(pos[0]) + 1


def recall_at_k(ranked, truth: int, k: int) -> int:
    """1 if the true POI is within the first k entries, else 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    arr = np.asarray(ranked)[:k]
    return int((arr == truth).any())


def f1_at_k(ranked, truth: int, k: int) -> float:
    """Harmonic mean of precision@K (hit/K) and recall@K (hit): 2/(K+1) on a
    hit, 0 otherwise."""
    return recall_at_k(ranked, truth, k) * 2.0 / (k + 1)


def mean_average_precision(lists, truths) -> float:
    """Mean of 1/rank(truth) over instances; rankings must contain the truth."""
    if len(lists) != len(truths):
        raise ValueError("one ranking per truth required")
    if not lists:
        raise ValueError("no instances")
    total = 0.0
    for ranked, truth in zip(lists, truths):
        total += 1.0 / _rank_of(ranked, truth)
    return total / len(lists)


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
    ap_total = 0.0
    for rank in ranks.tolist():
        ap_total += 1.0 / rank
    return MetricsReport(recall=recall, f1=f1, map=ap_total / n, count=n)


def evaluate(ranker: Ranker, samples: list[Sample], ks: tuple[int, ...] = (1, 5, 10)) -> MetricsReport:
    """Apply `ranker` to every sample and aggregate all metrics with
    `report_from_ranks`."""
    return report_from_ranks([_rank_of(ranker(s), s.target_poi) for s in samples], ks)


def report_csv(report: MetricsReport) -> str:
    lines = ["metric,value"]
    for k in sorted(report.recall):
        lines.append(f"recall@{k},{report.recall[k]:.6f}")
    for k in sorted(report.f1):
        lines.append(f"f1@{k},{report.f1[k]:.6f}")
    lines.append(f"map,{report.map:.6f}")
    lines.append(f"instances,{report.count}")
    return "\n".join(lines) + "\n"


def format_report_table(report: MetricsReport, label: str = "") -> str:
    ks = sorted(report.recall)
    head = f"{'model':<12}" + "".join(f"{f'r@{k}':>9}" for k in ks)
    head += "".join(f"{f'f1@{k}':>9}" for k in ks) + f"{'map':>9}{'n':>8}"
    row = f"{label:<12}" + "".join(f"{report.recall[k]:>9.4f}" for k in ks)
    row += "".join(f"{report.f1[k]:>9.4f}" for k in ks) + f"{report.map:>9.4f}{report.count:>8}"
    return head + "\n" + row

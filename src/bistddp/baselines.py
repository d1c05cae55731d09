"""Counting baselines: transition ranking and popularity ranking.

Forward/Backward rank candidates by how often they follow/precede the
adjacent context POI in the training segments; TOP1 is global popularity,
TOP2 per-user popularity. Each ranking is the POIs with a nonzero count,
sorted, followed by all other POIs in TOP1 order (global popularity, then
ascending index). Count ties break by TOP1 order for Forward/Backward and
by ascending index for TOP2, so rankings are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import Corpus, CorpusSplit, Sample


@dataclass
class TransitionTable:
    """Counts of consecutive train-segment pairs, with per-endpoint views."""

    counts: dict[tuple[int, int], int]
    out_edges: dict[int, dict[int, int]]  # prev -> {next: count}
    in_edges: dict[int, dict[int, int]]  # next -> {prev: count}


@dataclass
class PopularityTable:
    global_counts: np.ndarray  # (M,) check-in counts over all train segments
    user_counts: list[dict[int, int]]  # per dense user, train segment only
    top1_order: np.ndarray  # cached global ranking, read-only
    top1_pos: np.ndarray  # position of each POI within top1_order, read-only


def fit_counts(corpus: Corpus, split: CorpusSplit) -> tuple[TransitionTable, PopularityTable]:
    """Count transitions and popularity from the train segments only.

    A pair straddling the train/val boundary is not counted; val and test
    targets must stay unseen.
    """
    m = corpus.n_pois
    counts: dict[tuple[int, int], int] = {}
    global_counts = np.zeros(m, dtype=np.int64)
    user_counts: list[dict[int, int]] = []
    for h, (train_end, _) in zip(corpus.histories, split.boundaries):
        mine: dict[int, int] = {}
        pois = h.pois
        for i in range(train_end):
            p = int(pois[i])
            global_counts[p] += 1
            mine[p] = mine.get(p, 0) + 1
            if i + 1 < train_end:
                key = (p, int(pois[i + 1]))
                counts[key] = counts.get(key, 0) + 1
        user_counts.append(mine)

    out_edges: dict[int, dict[int, int]] = {}
    in_edges: dict[int, dict[int, int]] = {}
    for (p, q), c in counts.items():
        out_edges.setdefault(p, {})[q] = c
        in_edges.setdefault(q, {})[p] = c

    top1_order = np.argsort(-global_counts, kind="stable")
    top1_pos = np.empty(m, dtype=np.int64)
    top1_pos[top1_order] = np.arange(m)
    # rankers hand top1_order itself to every caller
    for a in (top1_order, top1_pos):
        a.setflags(write=False)
    return (
        TransitionTable(counts, out_edges, in_edges),
        PopularityTable(global_counts, user_counts, top1_order, top1_pos),
    )


def _counted_then_top1(
    counts: dict[int, int], popularity: PopularityTable, ties_by_index: bool = False
) -> np.ndarray:
    """The POIs in `counts` by count descending, then TOP1 position (or, with
    `ties_by_index`, POI index), followed by every other POI in TOP1 order.

    Only the few counted POIs are sorted; the uncounted tail is the cached
    TOP1 order with them taken out. No counts: the TOP1 order itself.
    """
    if not counts:
        return popularity.top1_order
    pois = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    n = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    pos = popularity.top1_pos[pois]
    # lexsort: last key is primary
    head = pois[np.lexsort((pois if ties_by_index else pos, -n))]
    keep = np.ones(len(popularity.top1_order), dtype=bool)
    keep[pos] = False
    return np.concatenate((head, popularity.top1_order[keep]))


def rank_forward(sample: Sample, transitions: TransitionTable, popularity: PopularityTable) -> np.ndarray:
    """Rank by count(prev -> candidate) with popularity/index tie-breaks.

    An unseen conditioning POI leaves all counts zero, which degrades to the
    pure global-popularity (TOP1) ranking.
    """
    edges = transitions.out_edges.get(sample.fwd[0], {})
    return _counted_then_top1(edges, popularity)


def rank_backward(sample: Sample, transitions: TransitionTable, popularity: PopularityTable) -> np.ndarray:
    """Rank by count(candidate -> next); same tie chain as rank_forward."""
    edges = transitions.in_edges.get(sample.bwd[0], {})
    return _counted_then_top1(edges, popularity)


def rank_top1(popularity: PopularityTable) -> np.ndarray:
    """Global popularity descending, ties by ascending index."""
    return popularity.top1_order


def rank_top2(user: int, popularity: PopularityTable) -> tuple[np.ndarray, bool]:
    """Per-user popularity; POIs the user never visited follow in TOP1 order.

    Visited POIs tie by ascending index. Returns (ranking, fell_back); a
    user with no train check-ins falls back to TOP1 outright.
    """
    if not 0 <= user < len(popularity.user_counts) or not popularity.user_counts[user]:
        return popularity.top1_order, True
    return _counted_then_top1(popularity.user_counts[user], popularity, ties_by_index=True), False


class BaselineRankers:
    """Sample -> ranking adapters over fitted tables, for the eval harness."""

    def __init__(self, corpus: Corpus, split: CorpusSplit):
        self.transitions, self.popularity = fit_counts(corpus, split)
        self.top2_fallbacks = 0

    def forward(self, sample: Sample) -> np.ndarray:
        return rank_forward(sample, self.transitions, self.popularity)

    def backward(self, sample: Sample) -> np.ndarray:
        return rank_backward(sample, self.transitions, self.popularity)

    def top1(self, sample: Sample) -> np.ndarray:
        return rank_top1(self.popularity)

    def top2(self, sample: Sample) -> np.ndarray:
        ranking, fell_back = rank_top2(sample.user, self.popularity)
        if fell_back:
            self.top2_fallbacks += 1
        return ranking

    def named(self) -> dict:
        return {
            "forward": self.forward,
            "backward": self.backward,
            "top1": self.top1,
            "top2": self.top2,
        }

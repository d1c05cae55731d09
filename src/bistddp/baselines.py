"""Counting baselines: transition ranking and popularity ranking.

Forward/Backward rank candidates by how often they follow/precede the
adjacent context POI in the training segments; TOP1 is global popularity,
TOP2 per-user popularity. Each ranking is the POIs with a nonzero count,
sorted, followed by all other POIs in TOP1 order (global popularity, then
ascending index). Count ties break by TOP1 order for Forward/Backward and
by ascending index for TOP2, so rankings are reproducible. The fitted tables
are frozen when built, every array read-only, so a ranking may be one of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import Corpus, Sample
from .numerics import BadInput, Frozen


@dataclass(frozen=True)
class CountTable(Frozen):
    """Counted POIs per key in CSR form: key k's head, entries
    `offsets[k]:offsets[k + 1]`, is in ranking order (count descending, then
    the table's tie key)."""

    offsets: np.ndarray  # (n_keys + 1,)
    pois: np.ndarray  # counted POI of each entry
    counts: np.ndarray  # its count, >= 1
    top1_pos: np.ndarray  # its position within top1_order


@dataclass(frozen=True)
class TransitionTable:
    forward: CountTable  # consecutive train-segment pairs (p, q), keyed by p
    backward: CountTable  # the same pairs keyed by q


@dataclass(frozen=True)
class PopularityTable(Frozen):
    global_counts: np.ndarray  # (M,) check-in counts over all train segments
    top1_order: np.ndarray  # cached global ranking
    top1_pos: np.ndarray  # position of each POI within top1_order
    users: CountTable  # keyed by dense user, train segment only


def _count_table(keys, pois, counts, tie, n_keys: int, top1_pos: np.ndarray) -> CountTable:
    """Group (key, poi, count) entries by key, each head sorted once.

    One argsort over the int64 code `(key * D + rank) * M + tie` gives the
    order of sorting by (key, count descending, tie): `rank` is the dense
    rank of `-count` among the D distinct counts and `tie` is below M. No
    two entries of a key share a tie, so the codes are distinct and any sort
    kind gives that one order.
    """
    distinct, rank = np.unique(-counts, return_inverse=True)
    n_counts, m = len(distinct), len(top1_pos)
    # D distinct counts >= 1 sum to at least D(D+1)/2 and at most the P
    # counted pairs, so D <= sqrt(2 * P) + 1: every corpus with at most a
    # million users and POIs and fewer than 4e13 train check-ins fits
    if n_keys * n_counts * m >= 2**63:
        raise BadInput(f"count table too large to sort by one int64 code: {n_keys} keys, "
                         f"{n_counts} distinct counts, {m} POIs")
    order = np.argsort((keys * n_counts + rank) * m + tie)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n_keys))))
    pois = pois[order]
    return CountTable(offsets, pois, counts[order], top1_pos[pois])


def fit_counts(corpus: Corpus, split: np.ndarray) -> tuple[TransitionTable, PopularityTable]:
    """Count transitions and popularity from the train check-ins only, so
    val and test targets stay unseen: a transition is a pair of consecutive
    train check-ins of one user. `split` is `split_corpus(corpus)`, one
    segment code per check-in (0 is train)."""
    m, n = corpus.n_pois, corpus.n_users
    train = split == 0
    pois, users = corpus.checkins.pois[train], corpus.checkins.users[train]
    same_user = users[1:] == users[:-1]

    global_counts = np.bincount(pois, minlength=m)
    top1_order = np.argsort(-global_counts, kind="stable")
    top1_pos = np.empty(m, dtype=np.int64)
    top1_pos[top1_order] = np.arange(m)

    codes, counts = np.unique(pois[:-1][same_user] * m + pois[1:][same_user], return_counts=True)
    p, q = np.divmod(codes, m)
    codes, visits = np.unique(users * m + pois, return_counts=True)
    u, visited = np.divmod(codes, m)
    return (
        TransitionTable(_count_table(p, q, counts, top1_pos[q], m, top1_pos),
                        _count_table(q, p, counts, top1_pos[p], m, top1_pos)),
        PopularityTable(global_counts, top1_order, top1_pos,
                        _count_table(u, visited, visits, visited, n, top1_pos)),
    )


def _counted_then_top1(table: CountTable, key: int, popularity: PopularityTable) -> np.ndarray:
    """Key's head, then every other POI in TOP1 order.

    No counts, or a key outside the table: the TOP1 order itself.
    """
    if not 0 <= key < len(table.offsets) - 1 or table.offsets[key] == table.offsets[key + 1]:
        return popularity.top1_order
    head = slice(table.offsets[key], table.offsets[key + 1])
    keep = np.ones(len(popularity.top1_order), dtype=bool)
    keep[table.top1_pos[head]] = False
    return np.concatenate((table.pois[head], popularity.top1_order[keep]))


def rank_forward(sample: Sample, transitions: TransitionTable, popularity: PopularityTable) -> np.ndarray:
    """Rank by count(prev -> candidate) with popularity/index tie-breaks.

    An unseen conditioning POI leaves all counts zero, which degrades to the
    pure global-popularity (TOP1) ranking.
    """
    return _counted_then_top1(transitions.forward, sample.fwd[0], popularity)


def rank_backward(sample: Sample, transitions: TransitionTable, popularity: PopularityTable) -> np.ndarray:
    """Rank by count(candidate -> next); same tie chain as rank_forward."""
    return _counted_then_top1(transitions.backward, sample.bwd[0], popularity)


def rank_top1(popularity: PopularityTable) -> np.ndarray:
    """Global popularity descending, ties by ascending index."""
    return popularity.top1_order


def rank_top2(user: int, popularity: PopularityTable) -> tuple[np.ndarray, bool]:
    """Per-user popularity; POIs the user never visited follow in TOP1 order.

    Visited POIs tie by ascending index. Returns (ranking, fell_back); a
    user with no train check-ins falls back to TOP1 outright.
    """
    ranking = _counted_then_top1(popularity.users, user, popularity)
    return ranking, ranking is popularity.top1_order  # only an empty head returns it


class BaselineRankers:
    """Sample -> ranking adapters over fitted tables, for the eval harness."""

    def __init__(self, corpus: Corpus, split: np.ndarray):
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

"""Synthetic corpora for smoke tests, overfit runs, and ablation ordering.

These bypass the raw-file parsers and activity filter (they are built with
dense indices already) but go through the normal split and sample-building
path, so everything downstream sees ordinary corpora.
"""

from __future__ import annotations

import numpy as np

from .geodata import GeoPoint, PoiTable
from .ingest import CheckIns, Corpus, PreparedCorpus, Sample, encode_temporal_pattern
from .model import HyperParams, ModelParams, init_params
from .numerics import make_rng


def corpus_from_events(
    coords: list[tuple[float, float]],
    user_events: list[list[tuple[int, int, int]]],
) -> Corpus:
    """Build a Corpus from explicit (poi, utc_seconds, tz_minutes) events."""
    table = PoiTable([(f"p{i}", GeoPoint(lat, lon)) for i, (lat, lon) in enumerate(coords)])
    rows = [(u, *event) for u, events in enumerate(user_events) for event in events]
    users, pois, times, tz = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    order = np.lexsort((times, users))  # stable: ties keep event order
    checkins = CheckIns(users[order], pois[order], times[order], tz[order])
    return Corpus.from_columns(table, [f"u{u}" for u in range(len(user_events))], checkins)


def overfit_corpus(
    n_users: int = 5, n_pois: int = 10, t_per_user: int = 10
) -> PreparedCorpus:
    """Tiny memorization target: each user walks a fixed cycle over the POIs.

    Within a user, each context POI appears once, so (user, context) maps to
    a unique target and perfect training recall is attainable.
    """
    coords = [(0.5 * i, 1.0 * i) for i in range(n_pois)]
    steps = [1, 3, 7, 9]  # coprime to 10: every walk covers all POIs
    base = 1_500_000_000
    events = []
    for u in range(n_users):
        a = steps[u % len(steps)]
        events.append(
            [((a * i + u) % n_pois, base + u * 977 + i * 6 * 3600, 0) for i in range(t_per_user)]
        )
    return PreparedCorpus.from_corpus(corpus_from_events(coords, events), 1)


def planted_corpus(
    seed: int,
    n_users: int = 12,
    n_clusters: int = 6,
    pois_per_cluster: int = 10,
    t_per_user: int = 75,
    p_jump: float = 0.3,
    noise: float = 0.1,
) -> PreparedCorpus:
    """Corpus with planted geographic and temporal structure.

    POIs sit in well-separated geographic clusters. Users stay in their
    cluster on short gaps and jump to a random other cluster on long gaps,
    so whether a check-in moved far is decided by the elapsed interval plus
    the neighboring geography. Within a cluster the session-and-day-kind
    favorite POI is visited most, its slot neighbors sometimes; gaps skip a
    variable number of sessions, so the target's session is readable from
    the time pattern but not from the neighboring POIs. Within-cluster
    spread (~3 plausible slots) times two candidate clusters overflows a
    top-5 list, while one resolved cluster fits, which is what keeps every
    planted signal visible to Recall@5. The ablation comparisons rely on
    this.
    """
    rng = make_rng(seed)
    m = n_clusters * pois_per_cluster
    lats = np.linspace(-75.0, 75.0, n_clusters)
    coords = []
    for c in range(n_clusters):
        for j in range(pois_per_cluster):
            coords.append((float(lats[c]) + 0.01 * j, 0.013 * j))

    base = 18519 * 86400  # a Monday, midnight UTC
    events = []
    for u in range(n_users):
        t = base + u * 3600 + int(rng.integers(0, 3600))
        cluster = u % n_clusters
        mine = []
        for i in range(t_per_user):
            if i > 0:
                if rng.uniform() < p_jump:  # leave for a random other cluster
                    hop = 1 + int(rng.integers(n_clusters - 1))
                    cluster = (cluster + hop) % n_clusters
                    t += int(rng.uniform(10.0, 16.0) * 3600)
                else:
                    t += int(rng.uniform(2.0, 8.0) * 3600)
            bits = encode_temporal_pattern(t, 0)  # bits[1]: weekend; bits[2:]: session
            slot = (3 * bits[2:].index(1) + 5 * bits[1]) % pois_per_cluster
            r = rng.uniform()
            if r < 0.15:
                slot = (slot + 1) % pois_per_cluster
            elif r < 0.3:
                slot = (slot - 1) % pois_per_cluster
            elif r < 0.3 + noise:
                slot = int(rng.integers(pois_per_cluster))
            poi = cluster * pois_per_cluster + slot
            mine.append((poi, t, 0))
        events.append(mine)
    assert len(coords) == m
    return PreparedCorpus.from_corpus(corpus_from_events(coords, events), 1)


def random_instance(
    seed: int, m: int = 30, n: int = 6, d: int = 5, h: int = 7, w: int = 1
) -> tuple[PoiTable, ModelParams, Sample]:
    """Random table, Glorot parameters, and one sample for gradient checks."""
    rng = make_rng(seed)
    coords = [
        (float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170))) for _ in range(m)
    ]
    table = PoiTable([(f"p{i}", GeoPoint(lat, lon)) for i, (lat, lon) in enumerate(coords)])
    params = init_params(HyperParams(d=d, h=h, w=w), n, m, rng)
    bits = [0] * 7
    bits[int(rng.integers(2))] = 1
    bits[2 + int(rng.integers(5))] = 1
    sample = Sample(
        user=int(rng.integers(n)),
        target_poi=int(rng.integers(m)),
        target_utc=1_600_000_000,
        pattern=tuple(bits),
        fwd=tuple(int(rng.integers(m)) for _ in range(w)),
        bwd=tuple(int(rng.integers(m)) for _ in range(w)),
        # short gaps keep tanh(weight * interval) off its saturated tail,
        # where finite differences lose all precision
        interval_before=float(rng.uniform(0.25, 4.0)),
        interval_after=float(rng.uniform(0.25, 4.0)),
        split="train",
    )
    return table, params, sample

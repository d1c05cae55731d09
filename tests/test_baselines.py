from collections import Counter, defaultdict
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bistddp.baselines import (
    BaselineRankers,
    _count_table,
    fit_counts,
    rank_backward,
    rank_forward,
    rank_top1,
    rank_top2,
)
from bistddp.ingest import PreparedCorpus, Sample, split_corpus
from bistddp.numerics import make_rng
from bistddp.synthetic import corpus_from_events


def corpus_of(sequences, n_pois):
    coords = [(0.1 * i, 0.2 * i) for i in range(n_pois)]
    events = []
    for seq in sequences:
        events.append([(p, 1_500_000_000 + i * 3600, 0) for i, p in enumerate(seq)])
    return corpus_from_events(coords, events)


def sample_with(fwd=0, bwd=0, user=0):
    return Sample(user=user, target_poi=0, pattern=(1, 0, 1, 0, 0, 0, 0),
                  fwd=(fwd,), bwd=(bwd,), interval_before=1.0, interval_after=1.0,
                  split="test")


def entries(table):
    """A CSR count table back as {(key, poi): count}."""
    keys = np.repeat(np.arange(len(table.offsets) - 1), np.diff(table.offsets))
    return {(int(k), int(p)): int(c) for k, p, c in zip(keys, table.pois, table.counts)}


def transitions_of(trans):
    """{(p, q): count}, read from the forward table; the backward table must agree."""
    counts = entries(trans.forward)
    assert {(p, q): c for (q, p), c in entries(trans.backward).items()} == counts
    return counts


class TestFitCounts:
    def test_hand_counted_transitions(self):
        # A,B,A,C plus a val/test tail the counts must not see
        corpus = corpus_of([[0, 1, 0, 2, 2]], n_pois=3)
        split = split_corpus(corpus)
        assert split.tolist() == [0, 0, 0, 0, 2]  # T=5: train is first 4
        trans, pop = fit_counts(corpus, split)
        assert transitions_of(trans) == {(0, 1): 1, (1, 0): 1, (0, 2): 1}
        np.testing.assert_array_equal(pop.global_counts, [2, 1, 1])

    def test_single_checkin_train_segment(self):
        corpus = corpus_of([[1]], n_pois=2)
        split = split_corpus(corpus)
        assert split.tolist() == [2]
        trans, pop = fit_counts(corpus, split)
        assert transitions_of(trans) == {}
        assert entries(pop.users) == {}
        np.testing.assert_array_equal(pop.global_counts, [0, 0])

    def test_global_is_sum_of_per_user(self):
        corpus = corpus_of([[0, 1, 0, 1, 1], [1, 2, 2, 0, 1]], n_pois=3)
        split = split_corpus(corpus)
        _, pop = fit_counts(corpus, split)
        summed = np.zeros(3, dtype=np.int64)
        for (_, p), c in entries(pop.users).items():
            summed[p] += c
        np.testing.assert_array_equal(pop.global_counts, summed)

    def test_pairs_across_users_or_the_train_boundary_are_not_counted(self):
        # the concatenated train segments read 0,1,2,3 | 4,0,1,2: the 3 -> 4
        # there joins two users, and each user's 3 -> 5 / 2 -> 5 crosses into val
        corpus = corpus_of([[0, 1, 2, 3, 5], [4, 0, 1, 2, 5]], n_pois=6)
        split = split_corpus(corpus)
        assert split.tolist() == [0, 0, 0, 0, 2] * 2
        trans, pop = fit_counts(corpus, split)
        assert transitions_of(trans) == {(0, 1): 2, (1, 2): 2, (2, 3): 1, (4, 0): 1}
        # no head at all: the shared TOP1 order comes back
        assert rank_forward(sample_with(fwd=3), trans, pop) is rank_top1(pop)
        assert rank_backward(sample_with(bwd=4), trans, pop) is rank_top1(pop)
        assert rank_backward(sample_with(bwd=5), trans, pop) is rank_top1(pop)


class TestRankers:
    def fixture(self):
        # train sequence A,B,A,C (indices 0,1,0,2)
        corpus = corpus_of([[0, 1, 0, 2, 0]], n_pois=3)
        return corpus, fit_counts(corpus, split_corpus(corpus))

    def test_forward_prefers_transition_then_popularity_then_index(self):
        corpus, (trans, pop) = self.fixture()
        # prev=A: B and C tie at one transition each; popularity ties, too
        # (B:1, C:1), so the lower index wins; A itself has no transition
        ranked = rank_forward(sample_with(fwd=0), trans, pop)
        assert ranked.tolist() == [1, 2, 0]

    def test_backward_uses_incoming_counts(self):
        corpus, (trans, pop) = self.fixture()
        # next=A: predecessors of A in training are B (1x); popularity breaks
        # the A/C tie in favor of A (2 visits)
        ranked = rank_backward(sample_with(bwd=0), trans, pop)
        assert ranked.tolist() == [1, 0, 2]

    def test_unseen_conditioning_poi_falls_back_to_top1(self):
        corpus, (trans, pop) = self.fixture()
        ranked = rank_forward(sample_with(fwd=2), trans, pop)  # C never a prev
        np.testing.assert_array_equal(ranked, rank_top1(pop))

    def test_top1_order(self):
        corpus, (trans, pop) = self.fixture()
        assert rank_top1(pop).tolist() == [0, 1, 2]  # A:2, B:1, C:1 (index tie)

    def test_top2_pads_with_top1(self):
        corpus = corpus_of([[1, 1, 1, 1, 1], [0, 2, 0, 2, 0]], n_pois=3)
        _, pop = fit_counts(corpus, split_corpus(corpus))
        ranked, fell_back = rank_top2(0, pop)
        assert not fell_back
        # user 0 visited only B; the rest follows TOP1 order (A≥C by count)
        assert ranked.tolist()[0] == 1
        top1_rest = [p for p in rank_top1(pop).tolist() if p != 1]
        assert ranked.tolist()[1:] == top1_rest

    def test_top2_unknown_user_falls_back(self):
        corpus, (trans, pop) = self.fixture()
        ranked, fell_back = rank_top2(99, pop)
        assert fell_back
        np.testing.assert_array_equal(ranked, rank_top1(pop))

    def test_rankings_are_permutations(self):
        corpus, (trans, pop) = self.fixture()
        for ranked in (rank_forward(sample_with(fwd=0), trans, pop),
                       rank_backward(sample_with(bwd=1), trans, pop),
                       rank_top1(pop), rank_top2(0, pop)[0]):
            assert sorted(np.asarray(ranked).tolist()) == [0, 1, 2]


# --- independent recount + sort oracle -----------------------------------

def oracle_tables(corpus, split):
    """Counts from the train check-ins, one check-in at a time."""
    trans = Counter()
    glob = Counter()
    per_user = defaultdict(Counter)
    previous = None  # (user, POI) of the previous check-in if it is train
    for u, p, segment in zip(corpus.checkins.users.tolist(), corpus.checkins.pois.tolist(),
                             split.tolist()):
        if segment != 0:
            previous = None
            continue
        glob[p] += 1
        per_user[u][p] += 1
        if previous is not None and previous[0] == u:
            trans[(previous[1], p)] += 1
        previous = (u, p)
    return trans, glob, per_user


def oracle_forward(prev, m, trans, glob):
    return sorted(range(m), key=lambda q: (-trans[(prev, q)], -glob[q], q))


def oracle_backward(nxt, m, trans, glob):
    return sorted(range(m), key=lambda q: (-trans[(q, nxt)], -glob[q], q))


def oracle_top1(m, glob):
    return sorted(range(m), key=lambda q: (-glob[q], q))


def oracle_top2(user, m, glob, per_user):
    top1 = oracle_top1(m, glob)
    pos = {p: i for i, p in enumerate(top1)}
    mine = per_user.get(user, Counter())
    return sorted(range(m), key=lambda q: (-mine[q], q if mine[q] > 0 else pos[q]))


def random_corpus(rng):
    n_users = int(rng.integers(2, 21))
    n_pois = int(rng.integers(2, 16))
    seqs = []
    for _ in range(n_users):
        t = int(rng.integers(3, 31))
        seqs.append([int(rng.integers(n_pois)) for _ in range(t)])
    return corpus_of(seqs, n_pois)


def edge_case_corpus():
    """Five POIs whose train segments hit the sparse rankers' edge cases.

    User 0 follows and precedes POI 0 with every POI (0 -> 0 included), so
    the counted head holds all of them and the TOP1 tail is empty; user 0
    also visits every POI. Transitions out of 0 tie at count 1 for POIs
    1-4, which popularity orders 3, 4, 1, 2: POIs 1/2 and 3/4 tie in global
    popularity.
    """
    user0 = [0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0]
    user1 = [3, 4, 3, 4, 1, 2]
    seqs = [user0 + [2] * 3, user1 + [0, 0]]  # the tails land in val/test
    return corpus_of(seqs, n_pois=5)


def assert_matches_oracles(corpus):
    split = split_corpus(corpus)
    m = corpus.n_pois
    trans, pop = fit_counts(corpus, split)
    otrans, oglob, oper = oracle_tables(corpus, split)

    np.testing.assert_array_equal(rank_top1(pop), oracle_top1(m, oglob))
    for user in range(corpus.n_users):
        got, _ = rank_top2(user, pop)
        np.testing.assert_array_equal(got, oracle_top2(user, m, oglob, oper))
    for prev in range(m):
        got = rank_forward(sample_with(fwd=prev), trans, pop)
        np.testing.assert_array_equal(got, oracle_forward(prev, m, otrans, oglob))
        got = rank_backward(sample_with(bwd=prev), trans, pop)
        np.testing.assert_array_equal(got, oracle_backward(prev, m, otrans, oglob))


def test_edge_case_corpus_has_its_edge_cases():
    corpus = edge_case_corpus()
    trans, pop = fit_counts(corpus, split_corpus(corpus))
    counts = transitions_of(trans)
    assert {q for p, q in counts if p == 0} == {p for p, q in counts if q == 0} == set(range(5))
    assert counts[(0, 0)] > 1
    assert [counts[(0, q)] for q in (1, 2, 3, 4)] == [1, 1, 1, 1]
    assert {p for u, p in entries(pop.users) if u == 0} == set(range(5))
    g = pop.global_counts
    assert g[1] == g[2] and g[3] == g[4] and g[1] != g[3]


def test_oracle_equivalence_on_random_corpora():
    rng = make_rng(2024)
    corpora = [random_corpus(rng) for _ in range(25)]  # the acceptance suite runs the full 100
    for corpus in corpora + [edge_case_corpus()]:
        assert_matches_oracles(corpus)


def test_shared_rankings_are_read_only():
    corpus = corpus_of([[0, 1, 0, 2, 0], [1]], n_pois=3)
    trans, pop = fit_counts(corpus, split_corpus(corpus))
    shared = {
        "top1": rank_top1(pop),
        "forward, unseen context": rank_forward(sample_with(fwd=2), trans, pop),
        "top2, no train check-ins": rank_top2(1, pop)[0],
    }
    for name, ranking in shared.items():
        with pytest.raises(ValueError):
            ranking[0] = ranking[1]
        assert rank_top1(pop).tolist() == [0, 1, 2], name
    for table in (trans.forward, trans.backward, pop.users, pop):
        for f in fields(table):
            array = getattr(table, f.name)
            assert not isinstance(array, np.ndarray) or not array.flags.writeable, f.name


def test_fit_counts_deterministic():
    corpus = random_corpus(make_rng(7))
    split = split_corpus(corpus)
    t1, p1 = fit_counts(corpus, split)
    t2, p2 = fit_counts(corpus, split)
    for a, b in ((t1.forward, t2.forward), (t1.backward, t2.backward), (p1.users, p2.users)):
        for f in fields(a):
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))
    np.testing.assert_array_equal(p1.global_counts, p2.global_counts)


def test_baseline_rankers_adapter_counts_fallbacks():
    corpus = corpus_of([[0, 1, 0, 2, 0], [1]], n_pois=3)
    prep = PreparedCorpus(corpus, 1)
    rankers = BaselineRankers(prep.corpus, prep.split)
    # user 1 has no train check-ins: top2 falls back
    rankers.top2(sample_with(user=1))
    assert rankers.top2_fallbacks == 1


# --- the one-code sort against a lexsort oracle ---------------------------

@st.composite
def count_entries(draw):
    """(keys, pois, counts, tie, n_keys, top1_pos) as `fit_counts` hands them to
    `_count_table`: distinct (key, POI) pairs in any order, counts >= 1 with
    many ties and some of 2**40 and more, tie the TOP1 position or the POI."""
    m = draw(st.integers(1, 8))
    n_keys = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_keys - 1), st.integers(0, m - 1)),
                          unique=True, max_size=n_keys * m))
    counts = draw(st.lists(st.one_of(st.integers(1, 3), st.sampled_from([2**40, 2**40 + 1]),
                                     st.integers(2**40, 2**62)),
                           min_size=len(pairs), max_size=len(pairs)))
    top1_pos = np.array(draw(st.permutations(range(m))), dtype=np.int64)
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    pois = np.array([p for _, p in pairs], dtype=np.int64)
    tie = top1_pos[pois] if draw(st.booleans()) else pois
    return keys, pois, np.array(counts, dtype=np.int64), tie, n_keys, top1_pos


EMPTY = tuple(np.zeros(0, dtype=np.int64) for _ in range(4))


@settings(max_examples=200, deadline=None)
@given(count_entries())
@example((*EMPTY, 3, np.arange(4)))
def test_count_table_matches_a_lexsort_oracle(entries):
    keys, pois, counts, tie, n_keys, top1_pos = entries
    table = _count_table(keys, pois, counts, tie, n_keys, top1_pos)
    order = np.lexsort((tie, -counts, keys))  # last key is primary
    expected = {
        "offsets": np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n_keys)))),
        "pois": pois[order],
        "counts": counts[order],
        "top1_pos": top1_pos[pois[order]],
    }
    for name, want in expected.items():
        got = getattr(table, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert not got.flags.writeable, name


def test_count_table_too_large_for_one_code_raises():
    keys = pois = tie = np.array([0, 1], dtype=np.int64)
    counts = np.array([1, 2], dtype=np.int64)
    n_keys = 2**62  # x 2 distinct counts x 2 POIs = 2**64
    with pytest.raises(ValueError, match=f"{n_keys} keys, 2 distinct counts, 2 POIs"):
        _count_table(keys, pois, counts, tie, n_keys, np.arange(2))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistddp.evaluation import (
    MetricsReport,
    TruthMissing,
    _rank_of,
    evaluate,
    format_report_table,
    report_from_ranks,
)
from bistddp.ingest import Sample


def sample(target, idx=0):
    return Sample(user=0, target_poi=target, target_utc=idx, pattern=(1, 0, 1, 0, 0, 0, 0),
                  fwd=(0,), bwd=(0,), interval_before=1.0, interval_after=1.0, split="test")


def scored(lists, truths, ks=(1, 5, 10)):
    """`evaluate`'s report on ranking `lists[i]` of instance i, whose truth is `truths[i]`."""
    samples = [sample(truth, idx=i) for i, truth in enumerate(truths)]
    return evaluate(lambda s: lists[s.target_utc], samples, ks=ks)


class TestRecall:
    def test_hit_at_rank_one(self):
        assert scored([[3, 1, 2]], [3], ks=(1,)).recall == {1: 1.0}

    def test_rank_three(self):
        assert scored([[5, 6, 3, 1]], [3], ks=(1, 5)).recall == {1: 0.0, 5: 1.0}

    def test_non_decreasing_in_k(self):
        rep = report_from_ranks([7, 1, 3, 10, 3], ks=tuple(range(1, 11)))
        vals = list(rep.recall.values())
        assert vals == sorted(vals) and vals[-1] == 1.0


class TestF1:
    def test_miss_is_zero(self):
        assert scored([[1, 2, 3, 9]], [9], ks=(2,)).f1 == {2: 0.0}

    def test_hit_is_two_over_k_plus_one(self):
        assert scored([[9, 2, 3]], [9], ks=(3,)).f1[3] == pytest.approx(0.5)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=29))
    @settings(max_examples=200)
    def test_identity_with_recall(self, k, truth_pos):
        rep = scored([list(range(30))], [truth_pos], ks=(k,))
        assert rep.recall[k] == (truth_pos < k)
        assert rep.f1[k] == 2.0 * rep.recall[k] / (k + 1)

    def test_f1_is_computed_from_recall_not_stored(self):
        with pytest.raises(TypeError, match="f1"):
            MetricsReport(recall={1: 0.5}, f1={1: 0.5}, map=0.5, count=2)
        rep = MetricsReport(recall={1: 0.5, 5: 1.0}, map=0.75, count=2)
        assert rep.f1 == {1: 2.0 * 0.5 / 2, 5: 2.0 * 1.0 / 6}

    def test_reported_table_consistency(self):
        # published recall/F1 pairs at K=5 and K=10 agree with the identity
        # to table rounding
        assert abs(2 * 0.3476 / 6 - 0.1159) < 5e-5
        assert abs(2 * 0.4176 / 11 - 0.0759) < 5e-5


class TestMAP:
    def test_always_first(self):
        assert scored([[4, 1], [4, 2]], [4, 4]).map == 1.0

    def test_ranks_one_and_four(self):
        assert scored([[7, 1, 2, 3], [0, 1, 2, 7]], [7, 7]).map == pytest.approx(0.625)

    def test_matches_generic_average_precision(self):
        # generic multi-relevant AP, degenerating to 1/rank for one truth
        def generic_ap(ranked, relevant):
            hits, total = 0, 0.0
            for i, p in enumerate(ranked, 1):
                if p in relevant:
                    hits += 1
                    total += hits / i
            return total / len(relevant)

        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(2, 40))
            ranked = rng.permutation(m).tolist()
            truth = int(rng.integers(m))
            assert scored([ranked], [truth]).map == pytest.approx(
                generic_ap(ranked, {truth}), rel=1e-12)

    def test_permutation_invariant(self):
        lists = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        truths = [0, 0, 0]
        a = scored(lists, truths).map
        b = scored(lists[::-1], truths[::-1]).map
        assert a == pytest.approx(b, rel=1e-15)

    def test_truth_missing(self):
        with pytest.raises(TruthMissing):
            scored([[1, 2]], [3])

    def test_rank_is_the_first_hit(self):
        assert _rank_of(np.array([4, 2, 7, 2]), 2) == 2  # a truth listed twice
        assert _rank_of([5, 1, 3], 3) == 3
        for ranking in (np.array([4, 2, 7]), np.array([], dtype=np.int64)):
            with pytest.raises(TruthMissing, match=f"absent from a ranking of length {ranking.size}"):
                _rank_of(ranking, 9)


class TestEvaluate:
    def test_perfect_oracle(self):
        samples = [sample(t) for t in (0, 3, 5)]

        def oracle(s):
            rest = [p for p in range(8) if p != s.target_poi]
            return [s.target_poi] + rest

        rep = evaluate(oracle, samples, ks=(1, 5))
        assert rep.recall == {1: 1.0, 5: 1.0}
        assert rep.map == 1.0
        assert rep.f1[1] == 1.0

    def test_reversed_oracle(self):
        m = 8
        samples = [sample(t) for t in (0, 3, 5)]

        def reversed_oracle(s):
            rest = [p for p in range(m) if p != s.target_poi]
            return rest + [s.target_poi]

        rep = evaluate(reversed_oracle, samples, ks=(1, 5))
        assert rep.recall == {1: 0.0, 5: 0.0}
        assert rep.map == pytest.approx(1.0 / m)

    def test_hand_scored_ten_instance_fixture(self):
        # truth ranks: 1, 2, 3, 5, 10, 1, 1, 4, 8, 6 over M=10
        ranks = [1, 2, 3, 5, 10, 1, 1, 4, 8, 6]
        samples, lists = [], []
        for i, r in enumerate(ranks):
            truth = 0
            ranked = list(range(1, 10))
            ranked.insert(r - 1, truth)
            samples.append(sample(truth, idx=i))
            lists.append(ranked)
        rep = evaluate(lambda s: lists[s.target_utc], samples, ks=(1, 5, 10))
        # hand-scored: hits@1 = 3, hits@5 = 7, hits@10 = 10
        assert rep.recall[1] == pytest.approx(0.3)
        assert rep.recall[5] == pytest.approx(0.7)
        assert rep.recall[10] == pytest.approx(1.0)
        assert rep.f1[5] == pytest.approx(2 * 0.7 / 6)
        expected_map = sum(1.0 / r for r in ranks) / 10
        assert rep.map == pytest.approx(expected_map, rel=1e-12)
        assert rep.count == 10
        assert report_from_ranks(ranks, ks=(1, 5, 10)) == rep

    def test_aggregate_identity_exact(self):
        rng = np.random.default_rng(1)
        samples, lists = [], []
        for i in range(37):
            m = 12
            ranked = rng.permutation(m).tolist()
            samples.append(sample(int(rng.integers(m)), idx=i))
            lists.append(ranked)
        rep = evaluate(lambda s: lists[s.target_utc], samples, ks=(1, 5, 10))
        for k in (1, 5, 10):
            assert rep.f1[k] == 2.0 * rep.recall[k] / (k + 1)  # exact, not approx

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            evaluate(lambda s: [0], [])


def test_one_table_has_one_header_and_a_row_per_report():
    reports = {"forward": report_from_ranks([1, 3], ks=(1, 5)),
               "top1": report_from_ranks([2, 7, 1], ks=(1, 5))}
    lines = format_report_table(reports).split("\n")
    assert lines[0].split() == ["model", "r@1", "r@5", "f1@1", "f1@5", "map", "n"]
    assert [line.split()[0] for line in lines[1:]] == ["forward", "top1"]
    assert lines[1].split()[1:] == ["0.5000", "1.0000", "0.5000", "0.3333", "0.6667", "2"]
    assert len({len(line) for line in lines}) == 1  # columns line up

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criterion 7 needs the public NYC check-in dump and
is skipped (waived) when the file is absent.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from bistddp.baselines import fit_counts, rank_backward, rank_forward, rank_top1, rank_top2
from bistddp.evaluation import evaluate, report_from_ranks
from bistddp.geodata import PoiTable, SpatialRowCache
from bistddp.ingest import (Sample, SampleBatch, encode_temporal_pattern, parse_foursquare, prepare,
                            split_corpus)
from bistddp.model import (
    HyperParams,
    VARIANTS,
    cross_entropy,
    forward,
    init_params,
    predict_topk,
    zero_params,
)
from bistddp.numerics import make_rng, seeded_generators
from bistddp.synthetic import overfit_corpus, planted_corpus, random_instance
from bistddp.train import TrainConfig, finite_difference_check, fit

from test_baselines import (
    oracle_backward,
    oracle_forward,
    oracle_tables,
    oracle_top1,
    oracle_top2,
    random_corpus,
    sample_with,
)


def report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_gradient_oracle():
    """batch_gradients vs central differences, all variants, 10 seeds."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        w = 1 + seed % 2
        for name, variant in VARIANTS.items():
            table, params, sample = random_instance(seed, m=30, n=6, d=5, h=7, w=w)
            rep = finite_difference_check(SampleBatch.from_samples([sample]), params,
                                          SpatialRowCache(table), variant,
                                          delta=1e-5, tolerance=1e-4)
            worst = max(worst, rep.max_error)
            assert rep.ok, f"{name} seed {seed} w {w}: {rep.max_error:.2e}"
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-4 and elapsed < 120,
           f"max rel err {worst:.2e} over 10 seeds x 5 variants in {elapsed:.1f}s")


def test_criterion_2_uniform_sanity():
    """Zero-initialized model: uniform output, loss exactly ln M."""
    m = 38333
    rng = make_rng(0)
    table = PoiTable([f"p{i}" for i in range(m)], rng.uniform(-80, 80, m),
                     rng.uniform(-179, 179, m))
    params = zero_params(HyperParams(d=3, h=4, w=1), n_users=5, n_pois=m)
    sample = Sample(user=2, target_poi=11, pattern=(1, 0, 0, 0, 1, 0, 0), fwd=(7,), bwd=(23,),
                    interval_before=2.0, interval_after=3.0, split="train")
    trace = forward(sample, params, table)
    loss = cross_entropy(trace, sample.target_poi)
    loss_ok = abs(loss - math.log(m)) < 1e-9
    uniform_ok = bool(np.all(np.abs(trace.probs - 1.0 / m) < 1e-12))
    report(2, loss_ok and uniform_ok,
           f"loss {loss:.12f} vs ln M {math.log(m):.12f}; max dev "
           f"{np.abs(trace.probs - 1.0 / m).max():.2e}")


def test_criterion_3_overfit():
    """5-user/10-POI corpus reaches training Recall@1 = 1.0 at default lr."""
    t0 = time.perf_counter()
    prep = overfit_corpus()
    corpus = prep.corpus
    init_rng, shuffle_rng = seeded_generators(0, 2)
    params = init_params(HyperParams(d=8, h=16, w=1), corpus.n_users, corpus.n_pois, init_rng)
    cfg = TrainConfig(max_epochs=1000, patience=1000, seed=0, lr=0.001,
                      metric="train_recall@1")
    res = fit(prep.samples_for("train"), prep.samples_for("val"), params,
              corpus.poi_table, cfg, VARIANTS["bi-stddp"], rng=shuffle_rng)
    def ranker(s):
        return predict_topk(forward(s, res.params, corpus.poi_table), corpus.n_pois)

    r1 = evaluate(ranker, prep.samples_for("train"), ks=(1,)).recall[1]
    elapsed = time.perf_counter() - t0
    report(3, r1 == 1.0 and res.epochs_run <= 1000 and elapsed < 60,
           f"train recall@1 {r1} after {res.epochs_run} epochs in {elapsed:.1f}s")


def test_criterion_4_metric_identities():
    """The report equals a direct count and F1@K = 2 Recall@K/(K+1) exactly, on each
    ranking and over all of them; consistent with published pairs."""
    rng = make_rng(4)
    positions = []
    for _ in range(200):
        m = int(rng.integers(2, 40))
        ranked = rng.permutation(m).tolist()
        positions.append(ranked.index(int(rng.integers(m))) + 1)

    def counted(ranks):
        rep, n, ap = report_from_ranks(ranks), len(ranks), 0.0
        for r in ranks:  # in order, as MAP is defined
            ap += 1.0 / r
        return rep.map == ap / n and all(
            rep.recall[k] == sum(r <= k for r in ranks) / n
            and rep.f1[k] == 2.0 * rep.recall[k] / (k + 1) for k in (1, 5, 10))

    exact = all(counted([r]) for r in positions) and counted(positions)
    pair5 = abs(2 * 0.3476 / (5 + 1) - 0.1159) < 5e-5
    pair10 = abs(2 * 0.4176 / (10 + 1) - 0.0759) < 5e-5
    report(4, exact and pair5 and pair10,
           f"identity exact on 200 rankings; published-pair deviations "
           f"{abs(2 * 0.3476 / 6 - 0.1159):.1e}, {abs(2 * 0.4176 / 11 - 0.0759):.1e}")


def test_criterion_5_baseline_oracle_equivalence():
    """All four counting baselines match brute-force recount+sort, 100 corpora."""
    rng = make_rng(5)
    checked = 0
    for _ in range(100):
        corpus = random_corpus(rng)
        split = split_corpus(corpus)
        m = corpus.n_pois
        trans, pop = fit_counts(corpus, split)
        otrans, oglob, oper = oracle_tables(corpus, split)
        np.testing.assert_array_equal(rank_top1(pop), oracle_top1(m, oglob))
        for user in range(corpus.n_users):
            got, _ = rank_top2(user, pop)
            np.testing.assert_array_equal(got, oracle_top2(user, m, oglob, oper))
        for prev in range(m):
            np.testing.assert_array_equal(
                rank_forward(sample_with(fwd=prev), trans, pop),
                oracle_forward(prev, m, otrans, oglob))
            np.testing.assert_array_equal(
                rank_backward(sample_with(bwd=prev), trans, pop),
                oracle_backward(prev, m, otrans, oglob))
        checked += 1
    report(5, checked == 100, f"exact match on {checked} random corpora")


def test_criterion_6_ablation_ordering():
    """Planted-structure corpus: variant means order like the reported trends."""
    names = ["bi-stddp", "f-stddp", "b-stddp", "bi-b", "bi-a"]
    acc = {n: [] for n in names}
    for seed in range(5):
        prep = planted_corpus(seed)
        corpus = prep.corpus
        train_s = prep.samples_for("train")
        val_s = prep.samples_for("val")
        test_s = prep.samples_for("test")
        for name in names:
            init_rng, shuffle_rng = seeded_generators(seed, 2)
            params = init_params(HyperParams(d=16, h=32, w=1), corpus.n_users,
                                 corpus.n_pois, init_rng)
            cfg = TrainConfig(max_epochs=100, patience=15, seed=seed, lr=0.003)
            res = fit(train_s, val_s, params, corpus.poi_table, cfg,
                      VARIANTS[name], rng=shuffle_rng)
            def ranker(s):
                return predict_topk(forward(s, res.params, corpus.poi_table, VARIANTS[name]),
                                    corpus.n_pois)

            acc[name].append(evaluate(ranker, test_s, ks=(5,)).recall[5])
    mean = {n: float(np.mean(acc[n])) for n in names}
    ordering = mean["bi-stddp"] >= mean["bi-b"] >= mean["bi-a"]
    beats_single = mean["bi-stddp"] >= max(mean["f-stddp"], mean["b-stddp"])
    report(6, ordering and beats_single,
           " ".join(f"{n}={mean[n]:.3f}" for n in names))


NYC_PATH = os.environ.get("BISTDDP_NYC", "data/dataset_TSMC2014_NYC.txt")


def test_criterion_7_nyc_best_effort():
    """Best-effort NYC reproduction; waived when the dataset is absent."""
    path = Path(NYC_PATH)
    if not path.exists():
        print("\nACCEPTANCE 7: WAIVED  dataset not available "
              f"(looked for {path}; set BISTDDP_NYC to override)")
        pytest.skip("NYC dataset unavailable; criterion waived per the gate")
    from bistddp.baselines import BaselineRankers

    prep = prepare(parse_foursquare(path), w=1)
    corpus = prep.corpus
    init_rng, shuffle_rng = seeded_generators(0, 2)
    params = init_params(HyperParams(d=64, h=256, w=1), corpus.n_users,
                         corpus.n_pois, init_rng)
    cfg = TrainConfig(batch_size=128, max_epochs=50, patience=5, seed=0, lr=0.001)
    res = fit(prep.samples_for("train"), prep.samples_for("val"), params,
              corpus.poi_table, cfg, VARIANTS["bi-stddp"], rng=shuffle_rng)
    test_s = prep.samples_for("test")
    def ranker(s):
        return predict_topk(forward(s, res.params, corpus.poi_table), corpus.n_pois)

    model_r5 = evaluate(ranker, test_s, ks=(5,)).recall[5]
    rankers = BaselineRankers(corpus, prep.split)
    base_r5 = {name: evaluate(r, test_s, ks=(5,)).recall[5]
               for name, r in rankers.named().items()}
    in_band = 0.30 <= model_r5 <= 0.40
    beats = all(model_r5 > v for v in base_r5.values())
    report(7, in_band and beats, f"model r@5 {model_r5:.4f}, baselines {base_r5}")


def test_criterion_8_temporal_pattern_worked_example():
    """Saturday 11:30 encodes to [0,1,0,1,0,0,0]."""
    from datetime import datetime, timezone

    utc = int(datetime(2018, 8, 25, 11, 30, tzinfo=timezone.utc).timestamp())
    bits = encode_temporal_pattern(utc, 0)
    report(8, bits == (0, 1, 0, 1, 0, 0, 0), f"got {bits}")


def test_criterion_9_determinism(raw_foursquare, tmp_path):
    """Identical config + seed give bitwise-identical checkpoints and reports."""
    from bistddp.cli import main

    prep_dir = tmp_path / "prep"
    assert main(["prepare", "--data", str(raw_foursquare), "--format", "foursquare",
                 "--out", str(prep_dir)]) == 0
    checkpoints, reports = [], []
    for tag in ("a", "b"):
        out = tmp_path / f"train_{tag}"
        assert main(["train", "--data", str(prep_dir / "corpus.tsv"), "--out", str(out),
                     "--d", "4", "--h", "6", "--epochs", "3", "--batch", "64",
                     "--seed", "11"]) == 0
        ev = tmp_path / f"eval_{tag}"
        assert main(["evaluate", "--data", str(prep_dir / "corpus.tsv"),
                     "--checkpoint", str(out / "checkpoint.bin"),
                     "--out", str(ev)]) == 0
        checkpoints.append((out / "checkpoint.bin").read_bytes())
        reports.append((ev / "report_test.csv").read_bytes())
    same = checkpoints[0] == checkpoints[1] and reports[0] == reports[1]
    report(9, same, f"checkpoint {len(checkpoints[0])} bytes identical; reports identical")

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bistddp.geodata import SpatialRowCache, spatial_vector
from bistddp.ingest import PreparedCorpus, SampleBatch
from bistddp.model import (
    HyperParams,
    VARIANTS,
    cross_entropy,
    forward,
    forward_batch,
    init_params,
    interval_gate,
    predict_topk,
    zero_params,
)
from bistddp.numerics import ShapeMismatch, make_rng, seeded_generators, softmax_cross_entropy
from bistddp.synthetic import overfit_corpus, planted_corpus, random_instance
from bistddp.train import (
    ADAM_BLOCK,
    AdamState,
    Diverged,
    EarlyStopState,
    EmptyTrainSet,
    TraceMismatch,
    TrainConfig,
    adam_step,
    backward,
    backward_batch,
    batch_gradients,
    finite_difference_check,
    fit,
    loss_grad_wrt_logits,
    zero_gradients,
)
from bistddp.evaluation import evaluate


class TestBackward:
    def test_logit_gradient_at_zero_params(self):
        table, _, sample = random_instance(0, m=9, n=3, d=3, h=4, w=1)
        params = zero_params(HyperParams(d=3, h=4, w=1), 3, 9)
        trace = forward(sample, params, table)
        g = loss_grad_wrt_logits(trace, sample.target_poi)
        expected = np.full(9, 1 / 9)
        expected[sample.target_poi] -= 1.0
        np.testing.assert_allclose(g, expected, atol=1e-15)

    def test_gated_paths_get_zero_gradient(self):
        table, params, sample = random_instance(1, m=9, n=3, d=3, h=4, w=1)
        for name, zeroed in [
            ("bi-b", ["interval_w_before", "interval_w_after"]),
            ("bi-a", ["interval_w_before", "interval_w_after", "time_hidden"]),
            ("f-stddp", ["bwd_hidden[0]", "interval_w_after"]),
            ("b-stddp", ["fwd_hidden[0]", "interval_w_before"]),
        ]:
            variant = VARIANTS[name]
            trace = forward(sample, params, table, variant)
            grads = backward(trace, sample, params, variant)
            for tname in zeroed:
                assert not grads[tname].any(), f"{name}: {tname}"

    def test_trace_mismatch_detected(self):
        table, params, sample = random_instance(2, m=9, n=3, d=3, h=4, w=1)
        trace = forward(sample, params, table)
        other = replace(sample, target_poi=(sample.target_poi + 1) % 9)
        with pytest.raises(TraceMismatch):
            backward(trace, other, params, VARIANTS["bi-stddp"])
        with pytest.raises(TraceMismatch):
            backward(trace, sample, params, VARIANTS["bi-b"])


class TestFiniteDifferenceOracle:
    def test_matches_on_small_instances(self):
        for name, variant in VARIANTS.items():
            for seed in (0, 1):
                table, params, sample = random_instance(seed, m=12, n=4, d=3, h=5, w=1)
                report = finite_difference_check(params, sample, table, variant)
                assert report.ok, f"{name} seed {seed}: {report.max_error:.2e}"

    def test_detects_corrupted_gradient(self):
        table, params, sample = random_instance(3, m=12, n=4, d=3, h=5, w=1)
        variant = VARIANTS["bi-stddp"]
        trace = forward(sample, params, table, variant)
        grads = backward(trace, sample, params, variant)
        grads["user_hidden"] *= 2.0
        report = finite_difference_check(params, sample, table, variant, grads=grads)
        assert report.per_tensor["user_hidden"] > 0.3

    def test_zero_point_is_smooth(self):
        table, _, sample = random_instance(4, m=10, n=3, d=3, h=4, w=1)
        params = zero_params(HyperParams(d=3, h=4, w=1), 3, 10)
        report = finite_difference_check(params, sample, table, VARIANTS["bi-stddp"])
        assert report.max_error < 1e-6


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        _, params, _ = random_instance(5, m=8, n=2, d=3, h=4, w=1)
        before = params.copy()
        state = AdamState.init(params)
        adam_step(params, zero_gradients(params), state)
        for (name, a), (_, b) in zip(params.named_tensors(), before.named_tensors()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_first_step_hand_computed(self):
        # bias correction makes m_hat = g and v_hat = g^2, so the update is
        # -lr * g / (|g| + eps)
        _, params, _ = random_instance(6, m=8, n=2, d=3, h=4, w=1)
        g = 0.5
        theta0 = params.user_hidden[0, 0]
        grads = zero_gradients(params)
        grads["user_hidden"][0, 0] = g
        adam_step(params, grads, AdamState.init(params))
        expected = theta0 - 0.001 * g / (math.sqrt(g * g) + 1e-8)
        assert params.user_hidden[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_two_steps_match_scripted_trace(self):
        # independent two-step Adam on a scalar, written out longhand
        g1, g2, lr, b1, b2, eps = 0.37, -0.11, 0.001, 0.9, 0.999, 1e-8
        theta = 0.25
        m = v = 0.0
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)

        _, params, _ = random_instance(7, m=8, n=2, d=3, h=4, w=1)
        params.user_hidden[0, 0] = 0.25
        state = AdamState.init(params)
        for g in (g1, g2):
            grads = zero_gradients(params)
            grads["user_hidden"][0, 0] = g
            adam_step(params, grads, state)
        assert params.user_hidden[0, 0] == pytest.approx(theta, abs=1e-12)

    def test_shape_mismatch(self):
        _, params, _ = random_instance(8, m=8, n=2, d=3, h=4, w=1)
        grads = zero_gradients(params)
        grads["user_hidden"] = np.zeros((2, 2))
        with pytest.raises(ShapeMismatch):
            adam_step(params, grads, AdamState.init(params))

    def test_bit_identical_to_textbook_update(self):
        # the interval weights hold n_pois elements and out_weights 4 n_pois,
        # so tensors end inside a block, at its boundary and one past it
        for n_pois in (8, 1, ADAM_BLOCK - 1, ADAM_BLOCK, ADAM_BLOCK + 1, 5 * ADAM_BLOCK // 2):
            _, params, _ = random_instance(9, m=n_pois, n=2, d=3, h=4, w=1)
            state = AdamState.init(params, lr=0.003)
            rng = make_rng(10)
            theta = {name: t.copy() for name, t in params.named_tensors()}
            m = {name: np.zeros_like(t) for name, t in theta.items()}
            v = {name: np.zeros_like(t) for name, t in theta.items()}
            b1, b2, lr, eps = 0.9, 0.999, 0.003, 1e-8
            for t in range(1, 6):
                grads = {name: rng.normal(size=x.shape) for name, x in theta.items()}
                adam_step(params, grads, state)
                for name, g in grads.items():
                    m[name] = b1 * m[name] + (1.0 - b1) * g
                    v[name] = b2 * v[name] + (1.0 - b2) * g * g
                    theta[name] = theta[name] - lr * (m[name] / (1.0 - b1**t)) / (
                        np.sqrt(v[name] / (1.0 - b2**t)) + eps)
                for name, x in params.named_tensors():
                    np.testing.assert_array_equal(
                        x, theta[name], err_msg=f"M={n_pois}: {name}, step {t}")

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_parameter_raises_before_any_update(self, layout):
        _, params, _ = random_instance(11, m=8, n=2, d=3, h=4, w=1)
        if layout == "fortran":  # flattening it would update a copy
            params.out_weights = np.asfortranarray(params.out_weights)
        else:
            params.out_weights = np.repeat(params.out_weights, 2, axis=1)[:, ::2]
        state = AdamState.init(params)
        before = params.copy()
        grads = {name: make_rng(12).normal(size=t.shape) for name, t in params.named_tensors()}
        with pytest.raises(ValueError, match="parameter out_weights is not C-contiguous"):
            adam_step(params, grads, state)
        assert state.t == 0
        for (name, a), (_, b) in zip(params.named_tensors(), before.named_tensors()):
            np.testing.assert_array_equal(a, b, err_msg=name)


def test_batch_mean_equals_mean_of_per_sample_gradients():
    for w in (1, 2):
        prep = PreparedCorpus.from_corpus(overfit_corpus().corpus, w)
        table = prep.corpus.poi_table
        params = init_params(HyperParams(d=4, h=6, w=w), prep.corpus.n_users,
                             prep.corpus.n_pois, make_rng(0))
        batch = prep.samples_for("train").take(slice(0, 7))
        for name, variant in VARIANTS.items():
            grads, _ = batch_gradients(batch, params, table, variant)
            per_sample = []
            for s in batch:
                trace = forward(s, params, table, variant)
                per_sample.append(backward(trace, s, params, variant))
            for tname in grads:
                mean = sum(g[tname] for g in per_sample) / len(batch)
                np.testing.assert_allclose(grads[tname], mean, rtol=1e-12, atol=1e-15,
                                           err_msg=f"{name}, w={w}: {tname}")


def test_batched_logits_and_loss_equal_one_sample_calls():
    for w in (1, 2):
        prep = PreparedCorpus.from_corpus(planted_corpus(2).corpus, w)
        table = prep.corpus.poi_table
        params = init_params(HyperParams(d=5, h=8, w=w), prep.corpus.n_users,
                             prep.corpus.n_pois, make_rng(1))
        batch = prep.samples_for("train").take(slice(0, 40))
        for name, variant in VARIANTS.items():
            logits = forward_batch(batch, params, table, variant).logits
            losses = softmax_cross_entropy(logits.copy(), batch.targets)
            _, mean_loss = batch_gradients(batch, params, table, variant)
            for row, loss, s in zip(logits, losses, batch):
                trace = forward(s, params, table, variant)
                np.testing.assert_allclose(row, trace.logits, rtol=1e-12, atol=1e-15,
                                           err_msg=f"{name}, w={w}")
                assert loss == pytest.approx(cross_entropy(trace, s.target_poi), rel=1e-12)
            assert mean_loss == pytest.approx(losses.mean(), rel=1e-12)


def _whole_batch_gate_reference(batch, params, table, variant, g):
    """Logits, and gradients for dJ/dlogits g, with each direction's
    interval gates as one (B x M) `interval_gate` array: the dependence
    terms and the interval-weight gradients come from that array, the rest
    from the same model without dependence terms."""
    plain = replace(variant, use_dependence=False)
    logits = forward_batch(batch, params, table, plain).logits
    grads = backward_batch(forward_batch(batch, params, table, plain), g, params)
    if variant.use_dependence:
        for use, pois, interval, name in (
                (variant.use_forward_branch, batch.fwd[:, 0], batch.interval_before,
                 "interval_w_before"),
                (variant.use_backward_branch, batch.bwd[:, 0], batch.interval_after,
                 "interval_w_after")):
            if not use:
                continue
            weights = getattr(params, name)
            rows = [spatial_vector(p, table) for p in pois.tolist()]
            for row, gate_row, out in zip(rows, interval_gate(weights, interval), logits):
                out += row * gate_row
            coef = interval_gate(weights, interval)
            np.square(coef, out=coef)
            np.subtract(1.0, coef, out=coef)
            coef *= interval[:, None]
            coef *= g
            for row, c in zip(rows, coef):
                grads[name] += row * c
    return logits, grads


def test_per_row_gates_equal_whole_batch_gate_arrays():
    corpus = planted_corpus(2).corpus
    table = corpus.poi_table
    for w in (1, 2):
        prep = PreparedCorpus.from_corpus(corpus, w)
        params = init_params(HyperParams(d=5, h=8, w=w), corpus.n_users, corpus.n_pois,
                             make_rng(w))
        # every sample twice or more, so context POIs repeat within the batch
        batch = prep.samples_for("train").take(np.r_[0:30, 0:30, 5:15])
        g = make_rng(3).normal(size=(len(batch), corpus.n_pois)) / len(batch)
        for name, variant in VARIANTS.items():
            logits, expected = _whole_batch_gate_reference(batch, params, table, variant, g)
            for cache in (None, SpatialRowCache(table, capacity=1)):
                trace = forward_batch(batch, params, table, variant, cache)
                np.testing.assert_array_equal(trace.logits, logits, err_msg=f"{name}, w={w}")
                grads = backward_batch(trace, g, params)
                for tname, grad in grads.items():
                    np.testing.assert_array_equal(grad, expected[tname],
                                                  err_msg=f"{name}, w={w}: {tname}")
            if variant.use_dependence:
                assert grads["interval_w_before"].any() or grads["interval_w_after"].any()


class TestMemory:
    """tracemalloc peaks of one training step at train-5k's shapes."""

    M, N, B = 5000, 50, 128

    @pytest.fixture(scope="class")
    def step(self):
        table, params, sample = random_instance(21, m=self.M, n=self.N, d=64, h=256, w=1)
        rng = make_rng(22)
        batch = SampleBatch.from_samples([
            replace(sample, user=int(u), target_poi=int(t), fwd=(int(f),), bwd=(int(b),))
            for u, t, f, b in rng.integers(0, [self.N, self.M, self.M, self.M], (self.B, 4))])
        cache = SpatialRowCache(table, capacity=self.M)
        batch_gradients(batch, params, table, VARIANTS["bi-stddp"], cache)  # rows cached
        return table, params, batch, cache

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_adam_step_peak_is_two_blocks_of_scratch(self, step):
        _, params, _, _ = step
        params = params.copy()
        grads = {name: make_rng(23).normal(size=t.shape) for name, t in params.named_tensors()}
        state = AdamState.init(params)
        peak, _ = self.peak_bytes(lambda: adam_step(params, grads, state))
        assert peak < 1_000_000  # whole-tensor scratch arrays took 19.6 MB

    def test_batch_gradients_builds_no_gate_array(self, step):
        table, params, batch, cache = step
        peak, (grads, _) = self.peak_bytes(
            lambda: batch_gradients(batch, params, table, VARIANTS["bi-stddp"], cache))
        # the gradients and the (B x M) logits must coexist; a (B x M) gate
        # array on top of them (as a whole-batch interval_gate builds) would
        # cross this line
        bm = self.B * self.M * 8
        assert peak < sum(g.nbytes for g in grads.values()) + 2 * bm


class TestEarlyStop:
    def test_state_machine(self):
        _, params, _ = random_instance(9, m=8, n=2, d=3, h=4, w=1)
        early = EarlyStopState()
        assert early.update(0.5, params, 1) is True
        assert early.update(0.4, params, 2) is False
        assert early.should_stop(patience=1)
        assert early.best_epoch == 1

    def test_fit_stops_after_patience_and_returns_best(self):
        prep = overfit_corpus()
        corpus = prep.corpus
        params = init_params(HyperParams(d=4, h=6, w=1), corpus.n_users, corpus.n_pois, make_rng(0))
        snapshots = {}

        def worsening_metric(p, epoch):
            snapshots[epoch] = p.copy()
            return 1.0 / epoch  # strictly worse after epoch 1

        cfg = TrainConfig(max_epochs=10, patience=1, seed=0)
        res = fit(prep.samples_for("train"), [], params, corpus.poi_table, cfg,
                  VARIANTS["bi-stddp"], metric_fn=worsening_metric)
        assert res.epochs_run == 2
        assert res.best_epoch == 1
        for (name, a), (_, b) in zip(res.params.named_tensors(), snapshots[1].named_tensors()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_no_finite_metric_raises_diverged(self):
        prep = planted_corpus(3)
        corpus = prep.corpus
        params = init_params(HyperParams(d=4, h=6, w=1), corpus.n_users, corpus.n_pois,
                             make_rng(0))
        with pytest.raises(Diverged, match="no finite early-stop metric"):
            fit(prep.samples_for("train"), prep.samples_for("val"), params,
                corpus.poi_table, TrainConfig(max_epochs=3, patience=2),
                VARIANTS["bi-stddp"], metric_fn=lambda p, e: float("nan"))

    def test_val_metric_with_no_val_samples_is_rejected_before_training(self):
        prep = overfit_corpus()
        params = init_params(HyperParams(d=4, h=6, w=1), 5, 10, make_rng(0))
        before = params.copy()
        for metric in ("val_map", "val_recall@5"):
            with pytest.raises(ValueError, match="needs a non-empty validation split"):
                fit(prep.samples_for("train"), [], params, prep.corpus.poi_table,
                    TrainConfig(metric=metric), VARIANTS["bi-stddp"])
        for (name, a), (_, b) in zip(params.named_tensors(), before.named_tensors()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_empty_train_set(self):
        prep = overfit_corpus()
        params = init_params(HyperParams(d=4, h=6, w=1), 5, 10, make_rng(0))
        with pytest.raises(EmptyTrainSet):
            fit([], [], params, prep.corpus.poi_table, TrainConfig(), VARIANTS["bi-stddp"])


def test_fit_deterministic_same_seed():
    prep = overfit_corpus()
    corpus = prep.corpus

    def run():
        init_rng, shuffle_rng = seeded_generators(123, 2)
        params = init_params(HyperParams(d=4, h=6, w=1), corpus.n_users, corpus.n_pois, init_rng)
        cfg = TrainConfig(max_epochs=5, patience=5, seed=123)
        return fit(prep.samples_for("train"), prep.samples_for("val"), params,
                   corpus.poi_table, cfg, VARIANTS["bi-stddp"], rng=shuffle_rng)

    a, b = run(), run()
    assert [r.train_loss for r in a.log] == [r.train_loss for r in b.log]
    assert [r.val_map for r in a.log] == [r.val_map for r in b.log]
    for (name, x), (_, y) in zip(a.params.named_tensors(), b.params.named_tensors()):
        np.testing.assert_array_equal(x, y, err_msg=name)


def test_loss_non_increasing_over_first_steps():
    prep = overfit_corpus()
    corpus = prep.corpus
    batch = prep.samples_for("train")
    variant = VARIANTS["bi-stddp"]
    for seed in range(5):
        params = init_params(HyperParams(d=4, h=6, w=1), corpus.n_users,
                             corpus.n_pois, make_rng(seed))
        state = AdamState.init(params, lr=0.001)
        losses = []
        for _ in range(6):
            grads, loss = batch_gradients(batch, params, corpus.poi_table, variant)
            losses.append(loss)
            adam_step(params, grads, state)
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12, f"seed {seed}: {losses}"


def test_overfit_reaches_perfect_training_recall():
    prep = overfit_corpus()
    corpus = prep.corpus
    init_rng, shuffle_rng = seeded_generators(0, 2)
    params = init_params(HyperParams(d=8, h=16, w=1), corpus.n_users, corpus.n_pois, init_rng)
    cfg = TrainConfig(max_epochs=1000, patience=1000, seed=0,
                      metric="train_recall@1", stop_threshold=1.0)
    res = fit(prep.samples_for("train"), prep.samples_for("val"), params,
              corpus.poi_table, cfg, VARIANTS["bi-stddp"], rng=shuffle_rng)
    def ranker(s):
        return predict_topk(forward(s, res.params, corpus.poi_table), corpus.n_pois)

    report = evaluate(ranker, prep.samples_for("train"), ks=(1,))
    assert report.recall[1] == 1.0
    assert res.epochs_run <= 1000


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, 0.0, -0.001])
    def test_rejects_a_learning_rate_that_is_not_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="lr must be finite and positive"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("metric", ["val_recall@7", "val_recall@", "val_recall",
                                        "train_recall@0", "train_recall@x", "train_recall@-1",
                                        "val_loss", "map", ""])
    def test_rejects_a_metric_fit_cannot_score(self, metric):
        with pytest.raises(ValueError, match="unknown early-stop metric"):
            TrainConfig(metric=metric)

    def test_accepts_every_metric_fit_can_score(self):
        for metric in ("val_map", "train_loss", "val_recall@1", "val_recall@5",
                       "val_recall@10", "train_recall@1", "train_recall@7"):
            assert TrainConfig(metric=metric).metric == metric

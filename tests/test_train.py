import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bistddp.geodata import SpatialRowCache, spatial_vector
from bistddp.ingest import PreparedCorpus, SampleBatch
from bistddp.model import (
    HyperParams,
    ModelParams,
    VARIANTS,
    arena_size,
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
)
from bistddp.evaluation import evaluate


def zeros_like(params):
    """A zero arena in `params`' layout: a fresh gradient buffer."""
    return zero_params(params.hyper, params.n_users, params.n_pois)


def random_arena(params, seed):
    """Standard-normal values in `params`' layout, as gradients."""
    return ModelParams(params.hyper, params.n_users, params.n_pois,
                       make_rng(seed).normal(size=params.data.size))


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
        adam_step(params, zeros_like(params), state)
        for (name, a), (_, b) in zip(params.named_tensors(), before.named_tensors()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_first_step_hand_computed(self):
        # bias correction makes m_hat = g and v_hat = g^2, so the update is
        # -lr * g / (|g| + eps)
        _, params, _ = random_instance(6, m=8, n=2, d=3, h=4, w=1)
        g = 0.5
        theta0 = params.user_hidden[0, 0]
        grads = zeros_like(params)
        grads.user_hidden[0, 0] = g
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
            grads = zeros_like(params)
            grads.user_hidden[0, 0] = g
            adam_step(params, grads, state)
        assert params.user_hidden[0, 0] == pytest.approx(theta, abs=1e-12)

    def test_shape_mismatch(self):
        # a gradient arena or a moment of another length raises before any update
        _, params, _ = random_instance(8, m=8, n=2, d=3, h=4, w=1)
        before = params.copy()
        state = AdamState.init(params)
        with pytest.raises(ShapeMismatch):
            adam_step(params, zero_params(params.hyper, params.n_users, 9), state)
        assert state.t == 0
        for moment in ("m", "v"):
            state = AdamState.init(params)
            setattr(state, moment, np.zeros(params.data.size - 1))
            with pytest.raises(ShapeMismatch):
                adam_step(params, random_arena(params, 12), state)
            assert state.t == 0
        np.testing.assert_array_equal(params.data, before.data)

    def test_bit_identical_to_textbook_update(self):
        # at n=2, d=3, h=4, w=1 the arena holds 9 M + 70 elements; the last
        # three sizes end one short of a block boundary, on one and one past
        hp = HyperParams(d=3, h=4, w=1)
        assert [arena_size(hp, 2, m) % ADAM_BLOCK for m in (3633, 7274, 10915)] == [
            ADAM_BLOCK - 1, 0, 1]
        for n_pois in (8, 1, 3633, 7274, 10915):
            _, params, _ = random_instance(9, m=n_pois, n=2, d=3, h=4, w=1)
            state = AdamState.init(params, lr=0.003)
            theta = params.data.copy()
            m = np.zeros_like(theta)
            v = np.zeros_like(theta)
            b1, b2, lr, eps = 0.9, 0.999, 0.003, 1e-8
            for t in range(1, 6):
                grads = random_arena(params, 10 + t)
                adam_step(params, grads, state)
                g = grads.data
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                theta = theta - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
                np.testing.assert_array_equal(params.data, theta,
                                              err_msg=f"M={n_pois}, step {t}")


def test_batch_mean_equals_mean_of_per_sample_gradients():
    for w in (1, 2):
        prep = PreparedCorpus.from_corpus(overfit_corpus().corpus, w)
        table = prep.corpus.poi_table
        params = init_params(HyperParams(d=4, h=6, w=w), prep.corpus.n_users,
                             prep.corpus.n_pois, make_rng(0))
        batch = prep.samples_for("train").take(slice(0, 7))
        for name, variant in VARIANTS.items():
            grads, _ = batch_gradients(batch, params, table, variant, zeros_like(params))
            per_sample = []
            for s in batch:
                trace = forward(s, params, table, variant)
                per_sample.append(backward(trace, s, params, variant))
            for tname, grad in grads.named_tensors():
                mean = sum(g[tname] for g in per_sample) / len(batch)
                np.testing.assert_allclose(grad, mean, rtol=1e-12, atol=1e-15,
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
            _, mean_loss = batch_gradients(batch, params, table, variant, zeros_like(params))
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
    grads = dict(backward_batch(forward_batch(batch, params, table, plain), g, params,
                                zeros_like(params)).named_tensors())
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
                grads = backward_batch(trace, g, params, zeros_like(params))
                for tname, grad in grads.named_tensors():
                    np.testing.assert_array_equal(grad, expected[tname],
                                                  err_msg=f"{name}, w={w}: {tname}")
            if variant.use_dependence:
                assert grads.interval_w_before.any() or grads.interval_w_after.any()


def test_backward_batch_leaves_nothing_of_what_the_arena_held():
    # backward_batch zeroes only part of its output arena; a stale arena full
    # of NaN must come out bit for bit as a fresh zero one does
    corpus = planted_corpus(2).corpus
    for w in (1, 2):
        prep = PreparedCorpus.from_corpus(corpus, w)
        params = init_params(HyperParams(d=5, h=8, w=w), corpus.n_users, corpus.n_pois,
                             make_rng(w))
        batch = prep.samples_for("train").take(slice(0, 40))
        g = make_rng(4).normal(size=(len(batch), corpus.n_pois)) / len(batch)
        for name, variant in VARIANTS.items():
            trace = forward_batch(batch, params, corpus.poi_table, variant)
            fresh = backward_batch(trace, g, params, zeros_like(params))
            stale = zeros_like(params)
            stale.data[:] = np.nan
            assert backward_batch(trace, g, params, stale) is stale
            assert stale.data.tobytes() == fresh.data.tobytes(), f"{name}, w={w}"


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
        grads = zeros_like(params)
        batch_gradients(batch, params, table, VARIANTS["bi-stddp"], grads, cache)  # rows cached
        return table, params, batch, cache, grads

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_adam_step_peak_is_two_blocks_of_scratch(self, step):
        _, params, _, _, _ = step
        params = params.copy()
        grads = random_arena(params, 23)
        state = AdamState.init(params)
        peak, _ = self.peak_bytes(lambda: adam_step(params, grads, state))
        assert peak < 1_000_000  # whole-tensor scratch arrays took 19.6 MB

    def test_batch_gradients_builds_no_gate_array(self, step):
        table, params, batch, cache, out = step
        peak, (grads, _) = self.peak_bytes(
            lambda: batch_gradients(batch, params, table, VARIANTS["bi-stddp"], out, cache))
        # the gradients and the (B x M) logits must coexist; a (B x M) gate
        # array on top of them (as a whole-batch interval_gate builds) would
        # cross this line
        bm = self.B * self.M * 8
        assert peak < grads.data.nbytes + 2 * bm

    def test_batch_gradients_allocates_no_gradient_arena(self, step):
        # with the arena passed in, the (B x M) logits are the largest
        # allocation; a fresh gradient arena per step (13.3 MB here) is not
        table, params, batch, cache, grads = step
        peak, _ = self.peak_bytes(
            lambda: batch_gradients(batch, params, table, VARIANTS["bi-stddp"], grads, cache))
        assert peak < 2 * self.B * self.M * 8


class TestEarlyStop:
    def test_state_machine(self):
        _, params, _ = random_instance(9, m=8, n=2, d=3, h=4, w=1)
        early = EarlyStopState()
        assert early.update(0.5, params, 1) is True
        assert early.update(0.4, params, 2) is False
        assert early.should_stop(patience=1)
        assert early.best_epoch == 1

    def test_snapshot_is_one_arena_that_ignores_later_updates(self):
        _, params, _ = random_instance(9, m=8, n=2, d=3, h=4, w=1)
        early = EarlyStopState()
        early.update(0.5, params, 1)
        snapshot, arena = early.best_params, early.best_params.data
        first = params.data.copy()
        params.data += 1.0  # a worse epoch: the snapshot keeps epoch 1
        assert early.update(0.4, params, 2) is False
        np.testing.assert_array_equal(snapshot.data, first)
        assert early.update(0.6, params, 3) is True  # copied into the same arena
        assert early.best_params is snapshot and snapshot.data is arena
        np.testing.assert_array_equal(snapshot.data, params.data)
        params.data += 1.0
        np.testing.assert_array_equal(snapshot.data, first + 1.0)
        assert snapshot.data is not params.data and early.best_epoch == 3

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
        grads = zeros_like(params)
        losses = []
        for _ in range(6):
            _, loss = batch_gradients(batch, params, corpus.poi_table, variant, grads)
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

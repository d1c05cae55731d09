import json
import math
import threading
import traceback
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bistddp.geodata import SpatialRowCache, spatial_vector
from bistddp.ingest import PreparedCorpus, SampleBatch
from bistddp.model import (
    HyperParams,
    VARIANTS,
    arena_size,
    cross_entropy,
    forward,
    forward_batch,
    init_params,
    predict_topk,
    zero_params,
)
from bistddp.numerics import (BadInput, Diverged, ShapeMismatch, make_rng, seeded_generators,
                              softmax_cross_entropy)
from bistddp.synthetic import overfit_corpus, planted_corpus, random_instance
from bistddp.train import (
    ADAM_BLOCK,
    AdamState,
    EarlyStopState,
    EpochRecord,
    FdReport,
    FitResult,
    Gradients,
    TraceMismatch,
    TrainConfig,
    adam_step,
    backward,
    backward_batch,
    batch_gradients,
    finite_difference_check,
    fit,
    loss_grad_wrt_logits,
    row_blocks,
)
from bistddp.evaluation import evaluate
from golden.regenerate import MANIFEST, build


def interval_gate(weights, interval):
    """(B, M) tanh(interval_w * interval), one row per sample's interval: the
    whole-batch gate array that the per-row gate loops must reproduce."""
    gate = np.multiply.outer(interval, weights)
    return np.tanh(gate, out=gate)


def one_row(sample):
    return SampleBatch.from_samples([sample])


def shared_context_rows(seed, w):
    """Three rows of one user with the same context POIs and distinct targets
    and intervals, so every context row of `poi_emb` and the user's row of
    `user_emb` take a gradient from each of them."""
    table, params, sample = random_instance(seed, m=12, n=4, d=3, h=5, w=w)
    rows = [replace(sample, target_poi=(sample.target_poi + 4 * k) % 12,
                    interval_before=0.5 + 1.2 * k, interval_after=3.1 - 1.1 * k)
            for k in range(3)]
    return table, params, rows


def random_gradients(params, seed, b=3):
    """Gradients for `params` with a standard-normal arena and factors of `b` rows."""
    rng = make_rng(seed)
    grads = Gradients(params)
    grads.data[:] = rng.normal(size=grads.data.size)
    grads.g = rng.normal(size=(b, params.n_pois))
    grads.pref = rng.normal(size=(b, params.hyper.h))
    return grads


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
                report = finite_difference_check(one_row(sample), params,
                                                 SpatialRowCache(table), variant)
                assert report.ok, f"{name} seed {seed}: {report.max_error:.2e}"

    def test_matches_on_rows_that_share_the_user_and_context(self):
        for w in (1, 2):
            for seed in (0, 1):
                table, params, rows = shared_context_rows(seed, w)
                batch, cache = SampleBatch.from_samples(rows), SpatialRowCache(table)
                for name, variant in VARIANTS.items():
                    report = finite_difference_check(batch, params, cache, variant)
                    assert report.max_error < 1e-4, f"{name}, w={w}, seed {seed}: {report}"

    def test_detects_corrupted_gradient(self):
        table, params, sample = random_instance(3, m=12, n=4, d=3, h=5, w=1)
        variant, cache = VARIANTS["bi-stddp"], SpatialRowCache(table)
        grads, _ = batch_gradients(one_row(sample), params, cache, variant, Gradients(params))

        def double_user_hidden(dense):
            dense["user_hidden"][...] *= 2.0

        def double_one_output_weight(dense):  # its largest coordinate
            out = dense["out_weights"]
            out.flat[np.argmax(np.abs(out))] *= 2.0

        # out_weights' limit is ten times the oracle's default tolerance
        for name, corrupt, limit in (("user_hidden", double_user_hidden, 0.3),
                                     ("out_weights", double_one_output_weight, 1e-3)):
            dense = {k: v.copy() for k, v in grads.dense().items()}
            corrupt(dense)
            report = finite_difference_check(one_row(sample), params, cache, variant,
                                             grads=dense)
            assert report.per_tensor[name] > limit, name

    def test_detects_a_corrupted_row_that_two_contexts_share(self):
        table, params, rows = shared_context_rows(3, 1)
        rows[2] = replace(rows[2], fwd=((rows[0].fwd[0] + 1) % 12,),
                          bwd=((rows[0].bwd[0] + 1) % 12,))
        shared = rows[0].fwd[0]  # in the contexts of rows 0 and 1 only
        assert rows[1].fwd[0] == shared and shared not in rows[2].fwd + rows[2].bwd
        variant, cache = VARIANTS["bi-stddp"], SpatialRowCache(table)
        batch = SampleBatch.from_samples(rows)
        grads = batch_gradients(batch, params, cache, variant, Gradients(params))[0].dense()
        clean = finite_difference_check(batch, params, cache, variant, grads=grads)
        grads["poi_emb"][shared] *= 2.0
        report = finite_difference_check(batch, params, cache, variant, grads=grads)
        assert clean.ok and report.per_tensor["poi_emb"] > 0.3
        assert all(report.per_tensor[name] == e for name, e in clean.per_tensor.items()
                   if name != "poi_emb")

    def test_zero_point_is_smooth(self):
        table, _, sample = random_instance(4, m=10, n=3, d=3, h=4, w=1)
        params = zero_params(HyperParams(d=3, h=4, w=1), 3, 10)
        report = finite_difference_check(one_row(sample), params, SpatialRowCache(table),
                                         VARIANTS["bi-stddp"])
        assert report.max_error < 1e-6

    def test_the_max_error_is_computed_from_the_per_tensor_errors(self):
        with pytest.raises(TypeError, match="max_error"):
            FdReport({"a": 1e-3}, max_error=1e-3, tolerance=1e-4)
        report = FdReport({"a": 1e-5, "b": 3e-4, "c": 0.0}, tolerance=1e-4)
        assert report.max_error == 3e-4 and not report.ok


@pytest.mark.parametrize("b, m, h", [(128, 5000, 256), (127, 4999, 256)])
def test_blocked_output_gradient_has_the_bits_of_one_product(b, m, h):
    # the gradient check and adam_step form out_weights' gradient in row
    # blocks; at train-5k's shapes the blocks have the bits of one g.T @ pref
    params = zero_params(HyperParams(d=1, h=h, w=1), 1, m)
    grads = Gradients(params)
    rng = make_rng(b)
    grads.g, grads.pref = rng.normal(size=(b, m)) / b, np.tanh(rng.normal(size=(b, h)))
    blocked, whole = grads.dense()["out_weights"], grads.g.T @ grads.pref
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))["build"]
    if build() == recorded:
        np.testing.assert_array_equal(blocked, whole)
    else:
        np.testing.assert_allclose(
            blocked, whole, rtol=1e-12, atol=1e-12 * np.abs(whole).max(),
            err_msg=f"numpy/BLAS build {build()} is not the manifest's {recorded}, so the "
                    "bits of a matrix product may differ: compared to 1e-12 relative")


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        _, params, _ = random_instance(5, m=8, n=2, d=3, h=4, w=1)
        before = params.copy()
        state = AdamState.init(params)
        adam_step(params, Gradients(params), state)  # a zero arena and factors of no rows
        for (name, a), (_, b) in zip(params.named_tensors(), before.named_tensors()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_first_step_hand_computed(self):
        # bias correction makes m_hat = g and v_hat = g^2, so the update is
        # -lr * g / (|g| + eps)
        _, params, _ = random_instance(6, m=8, n=2, d=3, h=4, w=1)
        g = 0.5
        theta0 = params.user_hidden[0, 0]
        grads = Gradients(params)
        grads.tensors["user_hidden"][0, 0] = g
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
            grads = Gradients(params)
            grads.tensors["user_hidden"][0, 0] = g
            adam_step(params, grads, state)
        assert params.user_hidden[0, 0] == pytest.approx(theta, abs=1e-12)

    def test_shape_mismatch(self):
        # a gradient arena, a factor or a moment of another shape raises
        # before any update
        _, params, _ = random_instance(8, m=8, n=2, d=3, h=4, w=1)
        before = params.copy()
        state = AdamState.init(params)
        with pytest.raises(ShapeMismatch):
            adam_step(params, Gradients(zero_params(params.hyper, params.n_users, 9)), state)
        assert state.t == 0
        for moment in ("m", "v"):
            state = AdamState.init(params)
            setattr(state, moment, np.zeros(params.data.size - 1))
            with pytest.raises(ShapeMismatch):
                adam_step(params, random_gradients(params, 12), state)
            assert state.t == 0
        m, h = params.out_weights.shape
        for factor, shape in (("g", (3, m + 1)), ("g", (3, m - 1)), ("g", (m,)),
                              ("g", (3, m, 1)), ("g", (2, m)), ("pref", (3, h + 1)),
                              ("pref", (4, h)), ("pref", (h,))):
            grads = random_gradients(params, 13)
            setattr(grads, factor, np.ones(shape))
            state = AdamState.init(params)
            with pytest.raises(ShapeMismatch):
                adam_step(params, grads, state)
            assert state.t == 0, (factor, shape)
        np.testing.assert_array_equal(params.data, before.data)

    def test_bit_identical_to_textbook_update(self):
        # at n=2, d=3, h=4, w=1 the arena holds 9 M + 70 elements, 5 M + 70
        # of them before out_weights; at M = 13093, 32754 and 19647 those end
        # one short of a block boundary, on one and one past. out_weights is
        # updated in blocks of ADAM_BLOCK // h rows: at h = 4 M = 8193 ends
        # in a block of one row; h = 5 and h = 300 do not divide ADAM_BLOCK
        hp = HyperParams(d=3, h=4, w=1)
        assert [(arena_size(hp, 2, m) - 4 * m) % ADAM_BLOCK for m in (13093, 32754, 19647)
                ] == [ADAM_BLOCK - 1, 0, 1]
        assert row_blocks(8193, 4) == [slice(0, 8192), slice(8192, 8193)]
        assert ADAM_BLOCK % 5 and ADAM_BLOCK % 300
        for h, n_pois in ((4, 8), (4, 1), (4, 13093), (4, 32754), (4, 19647), (4, 8193),
                          (5, 6554), (5, 13110), (300, 110), (300, 333)):
            _, params, _ = random_instance(9, m=n_pois, n=2, d=3, h=h, w=1)
            state = AdamState.init(params, lr=0.003)
            theta = params.data.copy()
            m = np.zeros_like(theta)
            v = np.zeros_like(theta)
            b1, b2, lr, eps = 0.9, 0.999, 0.003, 1e-8
            for t in range(1, 6):
                grads = random_gradients(params, 10 + t)
                adam_step(params, grads, state)
                # the whole gradient: the arena, then out_weights' formed whole
                # as the gradient check reads it, within rounding of g.T @ pref
                dense = grads.dense()["out_weights"]
                product = grads.g.T @ grads.pref
                np.testing.assert_allclose(dense, product, rtol=0,
                                           atol=1e-12 * np.abs(product).max())
                g = np.concatenate([grads.data, dense.ravel()])
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                theta = theta - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
                np.testing.assert_array_equal(params.data, theta,
                                              err_msg=f"h={h}, M={n_pois}, step {t}")


def test_batch_mean_equals_mean_of_per_sample_gradients():
    for w in (1, 2):
        prep = PreparedCorpus(overfit_corpus().corpus, w)
        table = prep.corpus.poi_table
        params = init_params(HyperParams(d=4, h=6, w=w), prep.corpus.n_users,
                             prep.corpus.n_pois, make_rng(0))
        batch = prep.samples_for("train").take(slice(0, 7))
        for name, variant in VARIANTS.items():
            grads, _ = batch_gradients(batch, params, SpatialRowCache(table), variant,
                                       Gradients(params))
            per_sample = []
            for s in batch:
                trace = forward(s, params, table, variant)
                per_sample.append(backward(trace, s, params, variant))
            for tname, grad in grads.dense().items():
                mean = sum(g[tname] for g in per_sample) / len(batch)
                np.testing.assert_allclose(grad, mean, rtol=1e-12, atol=1e-15,
                                           err_msg=f"{name}, w={w}: {tname}")


def test_batched_logits_and_loss_equal_one_sample_calls():
    for w in (1, 2):
        prep = PreparedCorpus(planted_corpus(2).corpus, w)
        table = prep.corpus.poi_table
        params = init_params(HyperParams(d=5, h=8, w=w), prep.corpus.n_users,
                             prep.corpus.n_pois, make_rng(1))
        batch, cache = prep.samples_for("train").take(slice(0, 40)), SpatialRowCache(table)
        for name, variant in VARIANTS.items():
            logits = forward_batch(batch, params, cache, variant).logits
            losses = softmax_cross_entropy(logits.copy(), batch.targets)
            _, mean_loss = batch_gradients(batch, params, cache, variant, Gradients(params))
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
    plain, cache = replace(variant, use_dependence=False), SpatialRowCache(table)
    logits = forward_batch(batch, params, cache, plain).logits
    grads = backward_batch(forward_batch(batch, params, cache, plain), g, params,
                           Gradients(params)).dense()
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
        prep = PreparedCorpus(corpus, w)
        params = init_params(HyperParams(d=5, h=8, w=w), corpus.n_users, corpus.n_pois,
                             make_rng(w))
        # every sample twice or more, so context POIs repeat within the batch
        batch = prep.samples_for("train").take(np.r_[0:30, 0:30, 5:15])
        g = make_rng(3).normal(size=(len(batch), corpus.n_pois)) / len(batch)
        for name, variant in VARIANTS.items():
            logits, expected = _whole_batch_gate_reference(batch, params, table, variant, g)
            # a cache that holds every row, and one that evicts at each new POI
            for cache in (SpatialRowCache(table, capacity=len(table)),
                          SpatialRowCache(table, capacity=1)):
                trace = forward_batch(batch, params, cache, variant)
                np.testing.assert_array_equal(trace.logits, logits, err_msg=f"{name}, w={w}")
                grads = backward_batch(trace, g, params, Gradients(params))
                for tname, grad in grads.dense().items():
                    np.testing.assert_array_equal(grad, expected[tname],
                                                  err_msg=f"{name}, w={w}: {tname}")
            if variant.use_dependence:
                assert (grads.tensors["interval_w_before"].any()
                        or grads.tensors["interval_w_after"].any())


def test_backward_batch_leaves_nothing_of_what_the_arena_held():
    # a stale arena and stale factors full of NaN must come out bit for bit
    # as a fresh zero gradient does
    corpus = planted_corpus(2).corpus
    for w in (1, 2):
        prep = PreparedCorpus(corpus, w)
        params = init_params(HyperParams(d=5, h=8, w=w), corpus.n_users, corpus.n_pois,
                             make_rng(w))
        batch = prep.samples_for("train").take(slice(0, 40))
        g = make_rng(4).normal(size=(len(batch), corpus.n_pois)) / len(batch)
        for name, variant in VARIANTS.items():
            trace = forward_batch(batch, params, SpatialRowCache(corpus.poi_table), variant)
            fresh = backward_batch(trace, g, params, Gradients(params)).dense()
            stale = Gradients(params)
            stale.data[:] = np.nan
            stale.g, stale.pref = np.full_like(g, np.nan), np.full_like(trace.pref, np.nan)
            assert backward_batch(trace, g, params, stale) is stale
            for tname, grad in stale.dense().items():
                assert grad.tobytes() == fresh[tname].tobytes(), f"{name}, w={w}: {tname}"


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
        grads = Gradients(params)
        batch_gradients(batch, params, cache, VARIANTS["bi-stddp"], grads)  # rows cached
        return table, params, batch, cache, grads

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_adam_step_peak_is_three_blocks_of_scratch(self, step):
        # two pieces of scratch for the update and one that out_weights'
        # gradient rows are formed in, 256 KiB each
        _, params, _, _, _ = step
        params = params.copy()
        grads = random_gradients(params, 23, b=self.B)
        state = AdamState.init(params)
        peak, _ = self.peak_bytes(lambda: adam_step(params, grads, state))
        assert peak < 1_000_000  # whole-tensor scratch arrays took 19.6 MB

    def test_batch_gradients_builds_no_gate_array(self, step):
        # the (B x M) logits (5.1 MB), the rest of the forward trace (1.5 MB)
        # and backward's (B x h) scratch (1.0 MB) peak at 7.7 MB here; one
        # (B x M) float64 gate array on top of them, as a whole-batch gate
        # builds, would reach 7.7 + 5.1 = 12.8 MB; the line, 2 B M 8 =
        # 10.2 MB, lies between the two
        table, params, batch, cache, grads = step
        peak, _ = self.peak_bytes(
            lambda: batch_gradients(batch, params, cache, VARIANTS["bi-stddp"], grads))
        assert peak < 2 * self.B * self.M * 8

    def test_batch_gradients_allocates_no_gradient_arena(self, step):
        # with the arena passed in, the (B x M) logits are the largest
        # allocation; a fresh gradient arena per step (3.1 MB here) would
        # take the 7.7 MB peak to 10.8 MB, over this line
        table, params, batch, cache, grads = step
        peak, _ = self.peak_bytes(
            lambda: batch_gradients(batch, params, cache, VARIANTS["bi-stddp"], grads))
        assert peak < 2 * self.B * self.M * 8

    def test_one_epoch_fit_holds_no_snapshot_arena(self, step):
        # Adam's m and v, the gradient arena and the (B x M) logits, with room
        # for a second (B x M) array, stay under this line; a copy of the
        # parameter arena (13.3 MB here) on top of them would not
        table, params, batch, cache, _ = step
        params = params.copy()
        config = TrainConfig(batch_size=self.B, max_epochs=1, patience=1)
        peak, res = self.peak_bytes(
            lambda: fit(batch, batch, params, table, config, VARIANTS["bi-stddp"], cache,
                        make_rng(24)))
        assert peak < 3 * params.data.nbytes + 2 * self.B * self.M * 8
        assert res.params is params

    def test_one_epoch_fit_stores_no_output_projection_gradient(self, step):
        # Adam's m and v, the gradient arena without out_weights and the
        # (B x M) logits, with room for a second (B x M) array, stay under
        # this line (39.9 MB here); an (M x h) out_weights gradient (10.2 MB)
        # on top of them would not, and nor would the factors of the last
        # batch kept through the validation pass
        table, params, batch, cache, _ = step
        params = params.copy()
        config = TrainConfig(batch_size=self.B, max_epochs=1, patience=1)
        peak, _ = self.peak_bytes(
            lambda: fit(batch, batch, params, table, config, VARIANTS["bi-stddp"], cache,
                        make_rng(24)))
        assert peak < (3 * params.data.nbytes - params.out_weights.nbytes
                       + 2 * self.B * self.M * 8)


class TestEarlyStop:
    def test_state_machine(self):
        early = EarlyStopState()
        assert early.update(0.5, 1) is True
        assert early.update(0.4, 2) is False
        assert early.should_stop(patience=1)
        assert early.best_epoch == 1

    def test_best_arena_is_copied_only_when_training_goes_on(self):
        _, params, _ = random_instance(9, m=8, n=2, d=3, h=4, w=1)
        early = EarlyStopState()
        early.keep(params)  # before epoch 1: nothing scored yet
        assert early.update(0.5, 1) is True
        assert early.snapshot is None and early.best_params(params) is params
        early.keep(params)  # epoch 2 is about to overwrite the best epoch's arena
        snapshot, arena = early.snapshot, early.snapshot.data
        first = params.data.copy()
        np.testing.assert_array_equal(arena, first)
        params.data += 1.0  # a worse epoch 2: the snapshot keeps epoch 1
        assert early.update(0.4, 2) is False
        assert early.best_params(params) is snapshot
        early.keep(params)  # epoch 2 is not the best: nothing is copied
        np.testing.assert_array_equal(snapshot.data, first)
        params.data += 1.0
        assert early.update(0.6, 3) is True
        assert early.best_params(params) is params  # not copied while it is the last epoch
        np.testing.assert_array_equal(snapshot.data, first)
        early.keep(params)  # copied into the same arena
        assert early.snapshot is snapshot and snapshot.data is arena
        np.testing.assert_array_equal(snapshot.data, params.data)
        params.data += 1.0  # later updates do not reach the snapshot
        assert early.update(0.1, 4) is False
        assert early.best_params(params) is snapshot and snapshot.data is not params.data
        np.testing.assert_array_equal(snapshot.data, first + 2.0)
        assert early.best_epoch == 3

    def test_fit_stops_after_patience_and_returns_best(self):
        # from this start the validation MAP drops from epoch 1 to epoch 2
        prep = overfit_corpus()
        corpus = prep.corpus

        def run(max_epochs):
            params = init_params(HyperParams(d=4, h=6, w=1), corpus.n_users, corpus.n_pois,
                                 make_rng(3))
            cfg = TrainConfig(max_epochs=max_epochs, patience=1, seed=3)
            return params, fit(prep.samples_for("train"), prep.samples_for("val"), params,
                               corpus.poi_table, cfg, VARIANTS["bi-stddp"])

        last, res = run(10)
        _, one_epoch = run(1)
        assert res.log[1].val_map < res.log[0].val_map
        assert res.epochs_run == 2
        assert res.best_epoch == 1
        np.testing.assert_array_equal(res.params.data, one_epoch.params.data)
        assert not np.array_equal(res.params.data, last.data)  # not epoch 2's parameters

    def test_a_metric_at_its_ceiling_ends_training(self):
        # 10 POIs: every target ranks in the top 10, so validation Recall@10 is
        # 1.0 after epoch 1, and no later epoch could replace that checkpoint
        prep = overfit_corpus()
        corpus = prep.corpus
        params = init_params(HyperParams(d=4, h=6, w=1), corpus.n_users, corpus.n_pois,
                             make_rng(0))
        res = fit(prep.samples_for("train"), prep.samples_for("val"), params, corpus.poi_table,
                  TrainConfig(max_epochs=50, patience=50, metric="val_recall@10"),
                  VARIANTS["bi-stddp"])
        assert res.best_value == 1.0
        assert res.epochs_run == res.best_epoch == 1
        assert res.params is params  # the best epoch is the last: no copy

    def test_the_epoch_count_is_the_length_of_the_log(self):
        with pytest.raises(TypeError, match="epochs_run"):
            FitResult(params=None, epochs_run=2)
        record = EpochRecord(1, 0.5, {}, math.nan, 0.0)
        assert FitResult(params=None, log=[record, replace(record, epoch=2)]).epochs_run == 2

    def test_overflow_while_ranking_raises_diverged(self):
        # epoch 1's batch losses stay finite, but its update takes the
        # parameters to about 1e300, and epoch 1's validation ranking
        # overflows in a GEMM
        prep = overfit_corpus()
        corpus = prep.corpus
        params = init_params(HyperParams(d=4, h=6, w=1), corpus.n_users, corpus.n_pois,
                             make_rng(0))
        with pytest.raises(Diverged, match=r"^epoch 1: non-finite value while ranking "
                                           r"\(overflow"):
            fit(prep.samples_for("train"), prep.samples_for("val"), params,
                corpus.poi_table, TrainConfig(max_epochs=3, patience=3, lr=1e300),
                VARIANTS["bi-stddp"])

    def test_overflow_in_an_update_raises_diverged(self):
        # tanh units saturated by a tenfold start give some mean gradient
        # above 1.8, so lr * m overflows in epoch 1's first update
        prep = overfit_corpus()
        corpus = prep.corpus
        params = init_params(HyperParams(d=4, h=6, w=1), corpus.n_users, corpus.n_pois,
                             make_rng(0))
        params.data *= 10.0
        with pytest.raises(Diverged, match=r"^epoch 1: non-finite value in a training step "
                                           r"\(overflow") as info:
            fit(prep.samples_for("train"), prep.samples_for("val"), params,
                corpus.poi_table, TrainConfig(max_epochs=3, patience=3, lr=1e308),
                VARIANTS["bi-stddp"])
        frames = traceback.extract_tb(info.value.__cause__.__traceback__)
        assert frames[-1].name == "adam_step"

    def test_val_metric_with_no_val_samples_is_rejected_before_training(self):
        prep = overfit_corpus()
        params = init_params(HyperParams(d=4, h=6, w=1), 5, 10, make_rng(0))
        before = params.copy()
        for metric in ("val_map", "val_recall@5"):
            with pytest.raises(BadInput, match="needs a non-empty validation split"):
                fit(prep.samples_for("train"), [], params, prep.corpus.poi_table,
                    TrainConfig(metric=metric), VARIANTS["bi-stddp"])
        for (name, a), (_, b) in zip(params.named_tensors(), before.named_tensors()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_empty_train_set(self):
        prep = overfit_corpus()
        params = init_params(HyperParams(d=4, h=6, w=1), 5, 10, make_rng(0))
        with pytest.raises(BadInput, match="^no training samples$"):
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


class _Inline:
    """`numerics.behind` without the worker: `background`, then the block, on this thread."""

    def __init__(self, background):
        self.background = background

    def __enter__(self):
        self.result = self.background()
        return self

    def __exit__(self, *exc):
        return None


@pytest.mark.parametrize("name", ["bi-stddp", "bi-a"])
def test_fit_is_the_same_with_and_without_the_worker(monkeypatch, name):
    # h = 300 makes 109-row blocks of out_weights: four at M = 333, the last
    # one short, after three dense pieces at d = 64
    prep = planted_corpus(0, n_clusters=9, pois_per_cluster=37)
    corpus = prep.corpus
    assert corpus.n_pois == 333

    def run():
        params = init_params(HyperParams(d=64, h=300, w=1), corpus.n_users, corpus.n_pois,
                             make_rng(5))
        result = fit(prep.samples_for("train"), prep.samples_for("val"), params,
                     corpus.poi_table, TrainConfig(max_epochs=2, patience=2, seed=5),
                     VARIANTS[name])
        return (result.params.data.tobytes(),
                [(r.epoch, r.train_loss, r.val_recall, r.val_map) for r in result.log])

    shipped = run()
    monkeypatch.setattr("bistddp.model.behind", _Inline)
    monkeypatch.setattr("bistddp.train.behind", _Inline)
    assert run() == shipped


def test_every_row_lookup_of_a_fit_runs_on_the_calling_thread(monkeypatch):
    # perfbench's tracer keeps one span stack, and the cache's hits and
    # misses must fall in the serial order
    threads = set()
    row = SpatialRowCache.row

    def recording(self, poi):
        threads.add(threading.get_ident())
        return row(self, poi)

    monkeypatch.setattr(SpatialRowCache, "row", recording)
    prep = planted_corpus(0)
    corpus = prep.corpus
    params = init_params(HyperParams(d=4, h=6, w=1), corpus.n_users, corpus.n_pois, make_rng(6))
    fit(prep.samples_for("train"), prep.samples_for("val"), params, corpus.poi_table,
        TrainConfig(max_epochs=1, patience=1), VARIANTS["bi-stddp"])
    assert threads == {threading.get_ident()}


def test_loss_non_increasing_over_first_steps():
    prep = overfit_corpus()
    corpus = prep.corpus
    batch = prep.samples_for("train")
    variant = VARIANTS["bi-stddp"]
    for seed in range(5):
        params = init_params(HyperParams(d=4, h=6, w=1), corpus.n_users,
                             corpus.n_pois, make_rng(seed))
        state = AdamState.init(params, lr=0.001)
        grads, cache = Gradients(params), SpatialRowCache(corpus.poi_table)
        losses = []
        for _ in range(6):
            _, loss = batch_gradients(batch, params, cache, variant, grads)
            losses.append(loss)
            adam_step(params, grads, state)
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12, f"seed {seed}: {losses}"


def test_overfit_reaches_perfect_training_recall():
    prep = overfit_corpus()
    corpus = prep.corpus
    init_rng, shuffle_rng = seeded_generators(0, 2)
    params = init_params(HyperParams(d=8, h=16, w=1), corpus.n_users, corpus.n_pois, init_rng)
    cfg = TrainConfig(max_epochs=1000, patience=1000, seed=0, metric="train_recall@1")
    res = fit(prep.samples_for("train"), prep.samples_for("val"), params,
              corpus.poi_table, cfg, VARIANTS["bi-stddp"], rng=shuffle_rng)
    def ranker(s):
        return predict_topk(forward(s, res.params, corpus.poi_table), corpus.n_pois)

    report = evaluate(ranker, prep.samples_for("train"), ks=(1,))
    assert report.recall[1] == 1.0
    assert res.epochs_run <= 1000
    assert res.epochs_run == res.best_epoch  # training ended at the ceiling


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, 0.0, -0.001])
    def test_rejects_a_learning_rate_that_is_not_finite_and_positive(self, lr):
        with pytest.raises(BadInput, match="lr must be finite and positive"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("metric", ["val_recall@7", "val_recall@", "val_recall",
                                        "train_recall@0", "train_recall@x", "train_recall@-1",
                                        "val_loss", "map", ""])
    def test_rejects_a_metric_fit_cannot_score(self, metric):
        with pytest.raises(BadInput, match="unknown early-stop metric"):
            TrainConfig(metric=metric)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(BadInput, match=r"^seed must be >= 0, got -1$"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=0).seed == 0

    def test_accepts_every_metric_fit_can_score(self):
        for metric in ("val_map", "train_loss", "val_recall@1", "val_recall@5",
                       "val_recall@10", "train_recall@1", "train_recall@7"):
            assert TrainConfig(metric=metric).metric == metric

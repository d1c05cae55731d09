import contextlib
import math
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistddp.evaluation import _rank_of, evaluate, report_from_ranks
from bistddp.geodata import PoiTable, SpatialRowCache
from bistddp.ingest import PreparedCorpus, Sample, SampleBatch
from bistddp import model
from bistddp.model import (
    CHECKPOINT_MAGIC,
    RANK_CHUNK,
    HyperParams,
    ModelParams,
    VARIANTS,
    VariantConfig,
    arena_size,
    cross_entropy,
    expect_compatible,
    forward,
    forward_batch,
    init_params,
    load_checkpoint,
    predict_topk,
    save_checkpoint,
    target_ranks,
    zero_params,
)
from bistddp.numerics import BadInput, Diverged, ShapeMismatch, make_rng
from bistddp.synthetic import planted_corpus, random_instance
from bistddp.train import Gradients, TrainConfig, batch_gradients, finite_difference_check, fit


def test_hyperparams_defaults_and_validation():
    hp = HyperParams()
    assert (hp.d, hp.h, hp.w) == (64, 256, 1)
    with pytest.raises(BadInput, match="hyperparameters must be >= 1"):
        HyperParams(d=0)


def test_variant_requires_a_direction():
    with pytest.raises(BadInput, match="at least one direction must be enabled"):
        VariantConfig(use_forward_branch=False, use_backward_branch=False)


def test_init_shapes_and_determinism():
    hp = HyperParams(d=3, h=5, w=2)
    a = init_params(hp, n_users=4, n_pois=9, rng=make_rng(0))
    b = init_params(hp, n_users=4, n_pois=9, rng=make_rng(0))
    shapes = {name: t.shape for name, t in a.named_tensors()}
    assert shapes["poi_emb"] == (9, 3)
    assert shapes["user_emb"] == (4, 3)
    assert shapes["fwd_hidden[1]"] == (5, 3)
    assert shapes["bwd_hidden[0]"] == (5, 3)
    assert shapes["user_hidden"] == (5, 3)
    assert shapes["time_hidden"] == (5, 7)
    assert shapes["interval_w_before"] == (9,)
    assert shapes["out_weights"] == (9, 5)
    for name, t in a.named_tensors():
        np.testing.assert_array_equal(t, dict(b.named_tensors())[name])
    # interval weights follow the M x 1 fan convention
    assert np.abs(a.interval_w_before).max() <= math.sqrt(6.0 / 10.0)


@pytest.mark.parametrize("n, m, d, h, w", [(7, 300, 5, 12, 2), (1000, 5000, 64, 256, 1)])
@pytest.mark.parametrize("seed", [0, 7])
def test_init_draws_in_place_the_bits_of_rng_uniform(n, m, d, h, w, seed):
    # each tensor is drawn into its arena view, with the bits that
    # rng.uniform(-L, L, shape) gives from the same stream; a temporary of
    # the largest tensor's size (out_weights, 10.2 MB at M = 5000, h = 256)
    # would cross the 8 KB of room the arena is given
    hp, rng = HyperParams(d=d, h=h, w=w), make_rng(seed)
    tracemalloc.start()
    try:
        params = init_params(hp, n, m, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.data.nbytes + 8192
    rng = make_rng(seed)
    for (name, got), (_, shape, fan_in, fan_out) in zip(
            params.named_tensors(), model.param_layout(hp, n, m)):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        want = rng.uniform(-limit, limit, shape)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=name)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 12), d=st.integers(1, 4), h=st.integers(1, 5),
       w=st.integers(1, 3))
def test_views_tile_the_arena_once_in_checkpoint_order(n, m, d, h, w):
    hp = HyperParams(d=d, h=h, w=w)
    params = zero_params(hp, n, m)
    size = params.data.size
    names = ["poi_emb", "user_emb", *(f"fwd_hidden[{k}]" for k in range(w)),
             *(f"bwd_hidden[{k}]" for k in range(w)), "user_hidden", "time_hidden",
             "interval_w_before", "interval_w_after", "out_weights"]
    named = params.named_tensors()
    assert [name for name, _ in named] == names
    attrs = [params.poi_emb, params.user_emb, *params.fwd_hidden, *params.bwd_hidden,
             params.user_hidden, params.time_hidden, params.interval_w_before,
             params.interval_w_after, params.out_weights]
    assert all(view is attr for (_, view), attr in zip(named, attrs))
    # each view starts where the one before it ends, and the last ends the arena
    start = params.data.__array_interface__["data"][0]
    offset = 0
    for name, view in named:
        assert view.flags.c_contiguous, name
        assert view.__array_interface__["data"][0] == start + 8 * offset, name
        offset += view.size
    assert offset == size == arena_size(hp, n, m)
    params.data[:] = np.arange(size)
    np.testing.assert_array_equal(np.concatenate([t.ravel() for _, t in named]), np.arange(size))
    twin = params.copy()
    np.testing.assert_array_equal(twin.data, params.data)
    assert not any(np.shares_memory(a, b) for _, a in twin.named_tensors()
                   for b in (params.data, *attrs))
    for bad in (np.zeros(size - 1), np.zeros(size + 1), np.zeros(size, dtype=np.float32),
                np.zeros((size, 1)), np.zeros(size, dtype=np.int64)):
        with pytest.raises(ShapeMismatch):
            ModelParams(hp, n, m, bad)


def _sample(**kw):
    base = dict(user=0, target_poi=0, pattern=(1, 0, 0, 1, 0, 0, 0), fwd=(1,), bwd=(2,),
                interval_before=1.5, interval_after=2.5, split="train")
    base.update(kw)
    return Sample(**base)


def _grid_table(m):
    return PoiTable([f"p{i}" for i in range(m)], [0.3 * i - 10.0 for i in range(m)],
                    [0.7 * i - 20.0 for i in range(m)])


def test_zero_params_uniform_output():
    table = _grid_table(7)
    params = zero_params(HyperParams(d=3, h=4, w=1), n_users=2, n_pois=7)
    trace = forward(_sample(), params, table)
    np.testing.assert_allclose(trace.probs, np.full(7, 1 / 7), atol=1e-15)
    assert cross_entropy(trace, 3) == pytest.approx(math.log(7), abs=1e-12)


def test_zero_intervals_zero_dependence():
    # both dependence terms are on, but tanh(w * 0) gates every row off: the
    # logits are exactly the projected preference
    table = _grid_table(6)
    params = init_params(HyperParams(d=3, h=4, w=1), 2, 6, make_rng(1))
    for intervals, zero in (((0.0, 0.0), True), ((1.5, 0.0), False), ((0.0, 2.5), False)):
        sample = _sample(interval_before=intervals[0], interval_after=intervals[1])
        trace = forward_batch(SampleBatch.from_samples([sample]), params, SpatialRowCache(table))
        projected = trace.pref @ params.out_weights.T
        assert np.array_equal(trace.logits, projected) == zero, intervals


def test_forward_matches_straight_line_oracle():
    """Independent equation-by-equation evaluation of one tiny instance."""
    m, n, d, h = 5, 2, 3, 4
    rng = make_rng(42)
    coords = [(float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170))) for _ in range(m)]
    table = PoiTable([f"p{i}" for i in range(m)], *zip(*coords))
    params = init_params(HyperParams(d=d, h=h, w=1), n, m, rng)
    sample = _sample(user=1, target_poi=4, fwd=(2,), bwd=(0,),
                     interval_before=1.25, interval_after=3.5,
                     pattern=(0, 1, 0, 0, 1, 0, 0))

    # --- straight-line reference, no shared helpers ---
    def hav_row(p):
        lat0, lon0 = math.radians(coords[p][0]), math.radians(coords[p][1])
        out = []
        for la, lo in coords:
            la_r, lo_r = math.radians(la), math.radians(lo)
            s = (math.sin((la_r - lat0) / 2) ** 2
                 + math.cos(lat0) * math.cos(la_r) * math.sin((lo_r - lon0) / 2) ** 2)
            out.append(2.0 * 6371.0 * math.asin(math.sqrt(s)))
        return np.array(out)

    row_prev = hav_row(2)
    row_next = hav_row(0)
    s_prev = row_prev / row_prev.std()
    s_next = row_next / row_next.std()
    gate_prev = np.tanh(params.interval_w_before * 1.25)
    gate_next = np.tanh(params.interval_w_after * 3.5)
    dep = s_prev * gate_prev + s_next * gate_next

    e_prev = params.poi_emb[2]
    e_next = params.poi_emb[0]
    e_user = params.user_emb[1]
    v = np.array([0, 1, 0, 0, 1, 0, 0], dtype=float)
    c = (np.tanh(params.fwd_hidden[0] @ e_prev)
         + np.tanh(params.bwd_hidden[0] @ e_next)
         + np.tanh(params.user_hidden @ e_user)
         + np.tanh(params.time_hidden @ v))
    logits = params.out_weights @ c + dep
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()

    trace = forward(sample, params, table)
    np.testing.assert_allclose(trace.probs, probs, rtol=1e-12, atol=1e-15)


def test_variant_identities():
    table, params, sample = random_instance(5, m=9, n=3, d=3, h=4, w=1)
    bi_b = forward(sample, params, table, VARIANTS["bi-b"])
    # no dependence: logits are exactly the projected preference
    np.testing.assert_array_equal(bi_b.logits, params.out_weights @ bi_b.batch.pref[0])
    assert bi_b.batch.directions == []

    bi_a = forward(sample, params, table, VARIANTS["bi-a"])
    # no time pattern: the forward, backward and user branches, in that order
    assert [b.weights for b in bi_a.batch.branches] == [
        ["fwd_hidden[0]"], ["bwd_hidden[0]"], ["user_hidden"]]
    manual = (np.tanh(params.fwd_hidden[0] @ params.poi_emb[sample.fwd[0]])
              + np.tanh(params.bwd_hidden[0] @ params.poi_emb[sample.bwd[0]])
              + np.tanh(params.user_hidden @ params.user_emb[sample.user]))
    np.testing.assert_array_equal(bi_a.logits, params.out_weights @ manual)


def test_forward_only_ignores_backward_inputs():
    table, params, sample = random_instance(6, m=9, n=3, d=3, h=4, w=1)
    f = VARIANTS["f-stddp"]
    base = forward(sample, params, table, f)
    perturbed = replace(sample, bwd=((sample.bwd[0] + 3) % 9,),
                        interval_after=sample.interval_after + 11.0)
    other = forward(perturbed, params, table, f)
    np.testing.assert_array_equal(base.probs, other.probs)


def test_backward_only_ignores_forward_inputs():
    table, params, sample = random_instance(7, m=9, n=3, d=3, h=4, w=1)
    b = VARIANTS["b-stddp"]
    base = forward(sample, params, table, b)
    perturbed = replace(sample, fwd=((sample.fwd[0] + 2) % 9,),
                        interval_before=sample.interval_before + 7.0)
    np.testing.assert_array_equal(base.probs, forward(perturbed, params, table, b).probs)


def test_forward_deterministic_bitwise():
    table, params, sample = random_instance(8, m=11, n=3, d=4, h=5, w=2)
    a = forward(sample, params, table)
    b = forward(sample, params, table)
    np.testing.assert_array_equal(a.logits, b.logits)
    np.testing.assert_array_equal(a.probs, b.probs)


def test_forward_validates_indices():
    table, params, sample = random_instance(9, m=8, n=2, d=3, h=4, w=1)
    with pytest.raises(ShapeMismatch):
        forward(replace(sample, user=5), params, table)
    with pytest.raises(ShapeMismatch):
        forward(replace(sample, fwd=(8,)), params, table)
    with pytest.raises(ShapeMismatch):
        forward(replace(sample, fwd=(1, 2)), params, table)
    # in a batch, the first offending sample is named
    batch = [sample, replace(sample, target_poi=9), replace(sample, target_poi=-1)]
    with pytest.raises(ShapeMismatch, match=r"target POI 9 outside \[0, 8\)"):
        forward_batch(SampleBatch.from_samples(batch), params, SpatialRowCache(table))


def test_a_row_cache_of_another_size_is_refused():
    # parameters for M = 9 and rows of length 10: every batched entry point
    # names both counts before it computes anything
    _, params, sample = random_instance(15, m=9, n=3, d=3, h=4, w=1)
    rows = SpatialRowCache(_grid_table(10))
    batch, variant = SampleBatch.from_samples([sample]), VARIANTS["bi-stddp"]
    for name, call in (
            ("forward_batch", lambda: forward_batch(batch, params, rows, variant)),
            ("target_ranks", lambda: target_ranks(batch, params, rows, variant)),
            ("batch_gradients",
             lambda: batch_gradients(batch, params, rows, variant, Gradients(params))),
            ("finite_difference_check",
             lambda: finite_difference_check(batch, params, rows, variant))):
        with pytest.raises(ShapeMismatch, match=r"table has 10 POIs, the parameters M=9"):
            call()
        assert rows.hits == rows.misses == 0, name


def test_a_row_cache_on_another_table_is_refused():
    # a table of the same size at other places: its rows would silently
    # replace the given table's, and change the logits
    table, params, sample = random_instance(16, m=9, n=3, d=3, h=4, w=1)
    other = PoiTable(table.ids, table.lat[::-1], table.lon[::-1])
    assert not np.array_equal(forward(sample, params, table).logits,
                              forward(sample, params, other).logits)
    cache, variant = SpatialRowCache(other), VARIANTS["bi-stddp"]
    before = params.data.copy()
    with pytest.raises(ValueError, match="row cache was built on another POI table"):
        forward(sample, params, table, variant, cache)
    with pytest.raises(ValueError, match="row cache was built on another POI table"):
        fit(SampleBatch.from_samples([sample]), [], params, table,
            TrainConfig(max_epochs=1, metric="train_loss"), variant, cache)
    assert cache.hits == cache.misses == 0
    np.testing.assert_array_equal(params.data, before)


class TestCrossEntropy:
    def trace_with_logits(self, logits, target=0):
        table, params, sample = random_instance(10, m=len(logits), n=2, d=3, h=4, w=1)
        trace = forward(sample, params, table)
        trace.logits = np.asarray(logits, dtype=float)
        from bistddp.numerics import stable_softmax

        trace.probs = stable_softmax(trace.logits)
        return trace

    def test_uniform_large_m(self):
        t = self.trace_with_logits(np.zeros(38333))
        assert cross_entropy(t, 17) == pytest.approx(math.log(38333), abs=1e-12)

    def test_saturated_confidence(self):
        t = self.trace_with_logits([1000.0, 0.0, 0.0])
        assert cross_entropy(t, 0) == pytest.approx(0.0, abs=1e-12)
        # the losing class stays finite in fused form
        assert math.isfinite(cross_entropy(t, 1))

    def test_closed_form(self):
        t = self.trace_with_logits([0.0, math.log(3.0)])
        assert cross_entropy(t, 0) == pytest.approx(math.log(4.0), rel=1e-12)


class TestTopK:
    def trace(self, probs):
        table, params, sample = random_instance(11, m=len(probs), n=2, d=3, h=4, w=1)
        t = forward(sample, params, table)
        t.probs = np.asarray(probs, dtype=float)
        return t

    def test_basic(self):
        assert predict_topk(self.trace([0.1, 0.7, 0.2]), 1).tolist() == [1]

    def test_full_permutation(self):
        out = predict_topk(self.trace([0.3, 0.1, 0.4, 0.2]), 4)
        assert sorted(out.tolist()) == [0, 1, 2, 3]

    def test_tie_breaks_to_lower_index(self):
        probs = np.array([0.1, 0.2, 0.25, 0.1, 0.1, 0.25])
        assert predict_topk(self.trace(probs), 2).tolist() == [2, 5]

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            predict_topk(self.trace([0.5, 0.5]), 0)
        with pytest.raises(ValueError):
            predict_topk(self.trace([0.5, 0.5]), 3)

    def test_argmax_invariant_to_logit_shift(self):
        table, params, sample = random_instance(12, m=9, n=3, d=3, h=4, w=1)
        t = forward(sample, params, table)
        ranked = predict_topk(t, 9)
        from bistddp.numerics import stable_softmax

        t.logits = t.logits + 123.0
        t.probs = stable_softmax(t.logits)
        np.testing.assert_array_equal(predict_topk(t, 9), ranked)


def test_predict_topk_over_m_is_a_full_ranking():
    table, params, sample = random_instance(13, m=9, n=3, d=3, h=4, w=1)
    ranked = predict_topk(forward(sample, params, table), 9)
    assert sorted(ranked.tolist()) == list(range(9))


def test_target_ranks_match_per_sample_ranking():
    corpus = planted_corpus(3).corpus
    table = corpus.poi_table
    ks = (1, 5, 10)
    for w in (1, 2):
        prep = PreparedCorpus(corpus, w)
        samples = prep.samples
        assert len(samples) > RANK_CHUNK and len(samples) % RANK_CHUNK
        params = init_params(HyperParams(d=8, h=16, w=w), corpus.n_users, corpus.n_pois,
                             make_rng(w))
        params = fit(prep.samples_for("train"), [], params, table,
                     TrainConfig(batch_size=64, max_epochs=3, metric="train_loss"),
                     VARIANTS["bi-stddp"]).params
        batch, cache = SampleBatch.from_samples(samples), SpatialRowCache(table)
        for name, variant in VARIANTS.items():
            def ranker(s):
                return predict_topk(forward(s, params, table, variant), corpus.n_pois)

            expected = [_rank_of(ranker(s), s.target_poi) for s in samples]
            ranks = target_ranks(batch, params, cache, variant)
            assert ranks.tolist() == expected, f"{name}, w={w}"
            assert report_from_ranks(ranks, ks) == evaluate(ranker, samples, ks)


def test_target_ranks_put_ties_and_underflows_in_index_order():
    # only user unit 0 and out_weights[:, 0] are non-zero, so the logits are
    # v * tanh(1): equal v tie exactly, v = -1e4 underflows to 0.0 in exp, and
    # v = -975.5 only when divided by the row sum (exp gives the least subnormal)
    v = np.array([0.0, 2.0, 0.0, -1e4, 2.0, -975.5, 0.0, -1e4])
    m = len(v)
    table = _grid_table(m)
    params = zero_params(HyperParams(d=2, h=3, w=1), n_users=1, n_pois=m)
    params.user_emb[:] = 1.0
    params.user_hidden[0] = 0.5
    params.out_weights[:, 0] = v
    samples = [_sample(target_poi=t) for t in range(m)]
    cache = SpatialRowCache(table)
    for name, variant in VARIANTS.items():
        probs = forward(samples[0], params, table, variant).probs
        assert probs[3] == probs[5] == probs[7] == 0.0
        assert probs[1] == probs[4] and probs[0] == probs[2] == probs[6]
        ranks = target_ranks(SampleBatch.from_samples(samples), params, cache, variant)
        # predict_topk's order is 1, 4, 0, 2, 6, 3, 5, 7
        assert ranks.tolist() == [3, 1, 4, 6, 2, 7, 5, 8], name
        assert ranks.tolist() == [_rank_of(predict_topk(forward(s, params, table, variant), m),
                                           s.target_poi) for s in samples]


def test_target_ranks_reject_non_finite_scores():
    table, params, sample = random_instance(17, m=9, n=3, d=3, h=4, w=1)
    params.user_emb[2] = np.nan
    samples = [replace(sample, user=0)] * (RANK_CHUNK + 1) + [replace(sample, user=2)]
    with pytest.raises(Diverged, match=f"sample {RANK_CHUNK + 1}"):
        target_ranks(SampleBatch.from_samples(samples), params, SpatialRowCache(table))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        _, params, _ = random_instance(14, m=9, n=3, d=3, h=4, w=2)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, params)
        back = load_checkpoint(path)
        for (name, a), (_, b) in zip(params.named_tensors(), back.named_tensors()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_failed_save_keeps_the_old_file_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, random_instance(14, m=9, n=3, d=3, h=4, w=1)[1])
        old = path.read_bytes()
        _, params, _ = random_instance(17, m=2000, n=3, d=3, h=4, w=1)
        written = []

        class HalfWrite:  # the arena's write stops halfway, as on a full disk
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                data = memoryview(data).cast("B")
                if len(data) < 1000:  # magic and header
                    return self.fh.write(data)
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                written.extend(p.stat().st_size for p in tmp_path.iterdir() if p != path)
                raise OSError("no space left on device")

        real_open = model.atomic_open

        @contextlib.contextmanager
        def half_open(target, mode):
            with real_open(target, mode) as fh:
                yield HalfWrite(fh)

        monkeypatch.setattr(model, "atomic_open", half_open)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, params)
        assert len(written) == 1 and written[0] > 0  # it failed partway through a temp file
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("w", [1, 2])
    def test_bytes_are_the_v1_format(self, tmp_path, w):
        _, params, _ = random_instance(19, m=9, n=3, d=3, h=4, w=w)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, params)
        # v1 written out longhand: magic, the (N, M, d, h, w) header, then each
        # tensor as little-endian float64, one after the other
        tensors = [params.poi_emb, params.user_emb, *params.fwd_hidden, *params.bwd_hidden,
                   params.user_hidden, params.time_hidden, params.interval_w_before,
                   params.interval_w_after, params.out_weights]
        v1 = [CHECKPOINT_MAGIC, struct.pack("<5I", 3, 9, 3, 4, w)]
        v1 += [np.asarray(t, dtype="<f8").tobytes() for t in tensors]
        assert path.read_bytes() == b"".join(v1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_non_finite_value_is_rejected_naming_the_tensor(self, tmp_path, where, value):
        _, params, _ = random_instance(21, m=9, n=3, d=3, h=4, w=2)
        tensor, at, text = {"first": (params.poi_emb, (0, 0), "poi_emb[0, 0]"),
                            "middle": (params.fwd_hidden[1], (2, 1), "fwd_hidden[1][2, 1]"),
                            "last": (params.out_weights, (8, 3), "out_weights[8, 3]")}[where]
        tensor[at] = value
        (k,) = np.flatnonzero(~np.isfinite(params.data))  # the arena's first, a middle or last
        assert (k == 0, k == params.data.size - 1) == (where == "first", where == "last")
        path = tmp_path / "ck.bin"
        save_checkpoint(path, params)
        with pytest.raises(BadInput) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: {text} is {value}; every value must be finite"
        if where != "last":  # with a later non-finite value too, the first is named
            params.out_weights[8, 3] = np.nan
            save_checkpoint(path, params)
            with pytest.raises(BadInput, match=re.escape(f"{text} is {value};")):
                load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(BadInput, match=re.escape(f"{p}: bad magic b'NOTACKPT\\x00'")):
            load_checkpoint(p)

    def test_truncated(self, tmp_path):
        _, params, _ = random_instance(15, m=9, n=3, d=3, h=4, w=1)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(BadInput, match=f"{re.escape(str(path))}: header .* implies "
                                           r"\d+ bytes of tensors, the file holds \d+$"):
            load_checkpoint(path)

    def test_header_is_checked_against_the_file_size_first(self, tmp_path, monkeypatch):
        _, params, _ = random_instance(18, m=9, n=3, d=3, h=4, w=1)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        at = len(CHECKPOINT_MAGIC)
        huge_m = raw[:at] + struct.pack("<5I", 3, 4_000_000_000, 3, 4, 1) + raw[at + 20:]
        # 2**32 - 1 hidden matrices each way: the size is counted, not laid out
        huge_w = raw[:at] + struct.pack("<5I", 3, 9, 3, 4, 2**32 - 1) + raw[at + 20:]
        monkeypatch.setattr(model, "zero_params", lambda *a: pytest.fail("tensors allocated"))
        monkeypatch.setattr(model, "param_layout", lambda *a: pytest.fail("layout built"))
        for text, message in [(huge_m, "implies"), (huge_w, "implies"), (raw + b"\0", "implies"),
                              (raw[:at + 10], "truncated header")]:
            path.write_bytes(text)
            with pytest.raises(BadInput, match=f"^{re.escape(str(path))}: .*{message}"):
                load_checkpoint(path)

    @pytest.mark.parametrize("field", ["N", "M", "d", "h", "w"])
    def test_zero_dimension_is_rejected_before_anything_is_allocated(self, tmp_path,
                                                                     monkeypatch, field):
        dims = {"N": 3, "M": 9, "d": 3, "h": 4, "w": 1, field: 0}
        n, m, d, h, w = dims.values()
        values = (m + n + (2 * w + 1) * h) * d + 7 * h + (2 + h) * m  # the payload fits
        path = tmp_path / "ck.bin"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<5I", n, m, d, h, w) + b"\0" * 8 * values)
        monkeypatch.setattr(model, "zero_params", lambda *a: pytest.fail("tensors allocated"))
        with pytest.raises(BadInput, match="zero dimension") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_expect_compatible(self):
        _, params, _ = random_instance(16, m=9, n=3, d=3, h=4, w=1)
        expect_compatible(params, 3, 9, 1, "ck.bin", "corpus.tsv")
        with pytest.raises(BadInput, match="ck.bin .* does not match corpus corpus.tsv"):
            expect_compatible(params, 3, 10, 1, "ck.bin", "corpus.tsv")
        with pytest.raises(BadInput, match="does not match"):
            expect_compatible(params, 3, 9, 2, "ck.bin", "corpus.tsv")

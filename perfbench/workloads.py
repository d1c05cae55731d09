"""The benchmark's workloads, run through the package's public API.

Every workload follows the command-line journey: a raw Foursquare dump goes
through `prepare` (parse, filter, split, build samples, write the corpus
file), then the command's set-up (load the corpus, then build the model or
fit the baselines), then a closed loop of repetitions that each do a
fixed amount of work, until the time budget is spent. One process, one
repetition in flight at a time.

* train-5k: `train.fit` with one epoch on a slice of training samples plus
  a fixed validation slice, as `bistddp train` sets it up. M=5000.
* pipeline-nyc: `BaselineRankers` plus `evaluate` for all four baselines on
  chunks of test samples, as `bistddp baselines` does. No model code runs.

With tracing on, even repetitions run untraced and odd ones traced, so the
tracing overhead is measured on the same inputs in the same process.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bistddp import baselines, evaluation, ingest, model, numerics, synthetic, train
from bistddp.geodata import SpatialRowCache

import inputs
from tracing import Span, Tracer, self_times, totals

END_TO_END = ("setup_s", "peak_rss_mb", "samples_per_s")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "samples_per_s": "1/s"}

# Self times of the spans inside one `fit` call; they add up to train.fit_s.
FIT_PARTS = (
    "train.fit_self_s", "train.backward_s", "train.adam_step_s", "model.forward_s",
    "model.cross_entropy_s", "model.predict_topk_s", "numerics.softmax_s",
    "geodata.spatial_vector_s", "evaluation.evaluate_self_s",
)

# metric -> span whose self time it reports; the other metrics are derived in layer_metrics
_SELF_TIME_METRICS = {
    "ingest.parse_s": "ingest.parse",
    "ingest.filter_s": "ingest.filter",
    "ingest.build_samples_s": "ingest.build_samples",
    "ingest.write_corpus_s": "ingest.write_corpus",
    "ingest.prepare_self_s": "ingest.prepare",
    "ingest.load_corpus_s": "ingest.load_corpus",
    "model.forward_s": "model.forward",
    "model.cross_entropy_s": "model.cross_entropy",
    "model.predict_topk_s": "model.predict_topk",
    "numerics.softmax_s": "numerics.softmax",
    "geodata.spatial_vector_s": "geodata.spatial_vector",
    "train.fit_self_s": "train.fit",
    "train.backward_s": "train.backward",
    "train.adam_step_s": "train.adam_step",
    "baselines.fit_counts_s": "baselines.fit_counts",
    "baselines.rank_forward_s": "baselines.rank_forward",
    "baselines.rank_backward_s": "baselines.rank_backward",
    "baselines.rank_top1_s": "baselines.rank_top1",
    "baselines.rank_top2_s": "baselines.rank_top2",
}

PER_LAYER_UNITS = {
    "ingest.prepare_checkins_per_s": "1/s",
    **{name: "s" for name in _SELF_TIME_METRICS},
    "ingest.malformed_lines": "count",
    "ingest.samples": "count",
    "model.forward_calls": "count",
    "evaluation.evaluate_self_s": "s",
    "evaluation.rankings": "count",
    "train.fit_s": "s",
    "train.val_eval_s": "s",
    "train.steps": "count",
    "geodata.row_hits": "count",
    "geodata.row_misses": "count",
    "geodata.row_lookups": "count",
    "geodata.hit_ratio": "ratio",
    "baselines.top2_fallbacks": "count",
    "trace.overhead_pct": "%",
}
PER_LAYER = tuple(PER_LAYER_UNITS)

# one call of any of these produces one ranking for `evaluate`
RANKING_SPANS = ("model.predict_topk", "baselines.rank_forward", "baselines.rank_backward",
                 "baselines.rank_top1", "baselines.rank_top2")

VARIANT = model.VARIANTS["bi-stddp"]
HYPER = model.HyperParams(d=64, h=256, w=1)
BATCH = 128
CACHE_CAPACITY = 1024
KS = (1, 5, 10)
SETUP_REPEATS = 3  # untraced runs report the median set-up
WARM_SAMPLES = 1024  # samples whose context rows fill the row cache before timing
FD_DELTA, FD_RTOL = 1e-5, 1e-4  # train.finite_difference_check's defaults

NYC_5K = inputs.DumpSpec(
    n_users=1000, n_pois=5000, checkins_per_user=150, home_coverage=12,
    n_light_users=60, n_rare_pois=300, rare_max_users=9,
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" | "baselines"
    dump: inputs.DumpSpec
    chunk: int  # samples per timed repetition
    val_chunk: int = 0  # fixed validation slice, train only


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-5k", "train", NYC_5K, chunk=256, val_chunk=64),
        Workload("pipeline-nyc", "baselines", NYC_5K, chunk=128),
    )
}


@dataclass
class Outcome:
    """Results checked, and how many of them were wrong."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.notes.append(what)
            print(f"check failed: {what}", file=sys.stderr)


def _sample_digest(samples) -> tuple[int, int]:
    return len(samples), hash(tuple(samples))


def _finite(params: model.ModelParams) -> bool:
    return all(np.isfinite(t).all() for _, t in params.named_tensors())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class _Run:
    """One workload run: inputs, prepare, set-up, timed loop, checks."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.workdir = workdir
        self.out = Outcome()
        self.tracer = Tracer() if trace else None
        self.spans: dict[str, list[Span]] = {}
        self.fingerprint: dict = {"workload": wl.name, "seed": seed}
        self.loaded = self.state = None

    def _traced(self):
        return self.tracer.patched() if self.tracer else contextlib.nullcontext()

    # -- prepare ---------------------------------------------------------
    def generate(self) -> None:
        self.raw = self.workdir / "raw.tsv"
        self.corpus_path = self.workdir / "corpus.tsv"
        self.info = inputs.write_dump(self.raw, self.wl.dump, self.seed)
        self.fingerprint.update(
            raw_lines=self.info.lines, raw_users=self.info.raw_users,
            raw_pois=self.info.raw_pois, malformed=self.info.malformed,
            raw_sha256=self.info.sha256,
        )

    def prepare(self) -> float:
        """One timed parse + prepare + write pass; returns raw lines per second."""
        with self._traced():
            t0 = time.perf_counter()
            parsed = ingest.parse_foursquare(self.raw)
            prepared = ingest.prepare(parsed, HYPER.w)
            ingest.write_corpus(self.corpus_path, prepared)
            elapsed = time.perf_counter() - t0
        if self.tracer:
            self.spans["prepare"] = self.tracer.take()
        self.out.check(len(parsed.malformed) == self.info.malformed,
                       f"parser skipped {len(parsed.malformed)} lines, generator wrote "
                       f"{self.info.malformed} malformed")
        corpus = prepared.corpus
        self.digest = _sample_digest(prepared.samples)
        self.malformed = len(parsed.malformed)
        self.fingerprint.update(N=corpus.n_users, M=corpus.n_pois,
                                checkins=corpus.n_checkins, samples=len(prepared.samples))
        return self.info.lines / elapsed

    # -- set-up ----------------------------------------------------------
    def _setup_once(self):
        t0 = time.perf_counter()
        loaded = ingest.load_corpus(self.corpus_path)
        table = loaded.corpus.poi_table
        if self.wl.kind == "train":
            params = model.init_params(HYPER, loaded.corpus.n_users, loaded.corpus.n_pois,
                                       inputs.seeded_rng(self.seed, "params"))
            state = (params, SpatialRowCache(table, capacity=CACHE_CAPACITY))
        else:
            state = (baselines.BaselineRankers(loaded.corpus, loaded.split),)
        return time.perf_counter() - t0, loaded, state

    def setup(self) -> float:
        times = []
        repeats = 1 if self.trace else SETUP_REPEATS
        for _ in range(repeats):
            self.loaded = self.state = None  # free the previous set-up first
            with self._traced():
                elapsed, self.loaded, self.state = self._setup_once()
            times.append(elapsed)
            self.out.check(_sample_digest(self.loaded.samples) == self.digest,
                           "load_corpus does not reproduce prepare's samples")
        if self.tracer:
            self.spans["setup"] = self.tracer.take()
        self.setup_times = times
        return statistics.median(times)

    # -- timed loop ------------------------------------------------------
    def loop(self) -> tuple[float, float | None]:
        """Median rate over untraced repetitions, and over traced ones."""
        self.ls = types.SimpleNamespace()  # state of the loop only
        getattr(self, f"_{self.wl.kind}_init")()
        rep = getattr(self, f"_{self.wl.kind}_rep")
        plain, traced = [], []
        self.traced_reps = 0
        self.loop_spans: list[Span] = []
        self.counter_delta = [0, 0, 0]  # cache hits, cache misses, top2 fallbacks
        _, check = rep(-1)  # warm-up on the last chunk of the order, untimed and unreported
        check()
        del check
        deadline = time.perf_counter() + self.seconds
        k = 0
        while k < (2 if self.trace else 1) or time.perf_counter() < deadline:
            if self.trace and k % 2 == 1:
                before = self._counters()
                with self.tracer.patched():
                    rate, check = rep(k)
                traced.append(rate)
                self.counter_delta = [a + c - b for a, b, c in
                                      zip(self.counter_delta, before, self._counters())]
                self.traced_reps += 1
            else:
                rate, check = rep(k)
                plain.append(rate)
            check()  # untimed and untraced
            del check  # or its results would stay alive through the next repetition
            k += 1
        self.reps = k
        if self.tracer:
            self.loop_spans = self.tracer.take()
        self.rates = {"untraced": plain, "traced": traced}
        return statistics.median(plain), (statistics.median(traced) if traced else None)

    def _counters(self) -> list[int]:
        s = self.state
        if self.wl.kind == "baselines":
            return [0, 0, s[0].top2_fallbacks]
        return [s[1].hits, s[1].misses, 0]

    def _chunk(self, k: int, size: int):
        """Repetition k's samples: the next `size` of the seeded order, wrapping."""
        order = self.ls.order
        lo = (k * size) % len(order)
        idx = np.concatenate([order[lo:], order[:lo]])[:size]
        return [self.ls.pool[i] for i in idx]

    def _warm_cache(self, cache: SpatialRowCache) -> None:
        """Fill the row cache untimed, from samples at the far end of the order.

        A full command run spends most of its time with a warm cache; a short
        timed window that starts cold would overweight the misses.
        """
        for i in self.ls.order[-WARM_SAMPLES:]:
            sample = self.ls.pool[i]
            cache.row(sample.fwd[0])
            cache.row(sample.bwd[0])

    def _train_init(self):
        rng = inputs.seeded_rng(self.seed, "loop")
        self.ls.pool = self.loaded.samples_for("train")
        val = self.loaded.samples_for("val")
        self.ls.order = rng.permutation(len(self.ls.pool))
        self.ls.val_slice = [val[i] for i in sorted(rng.choice(len(val), self.wl.val_chunk,
                                                            replace=False))]
        self.ls.init_params = self.state[0]
        self._warm_cache(self.state[1])
        # untimed pre-flight: the gradient oracle on a small random instance
        worst = gradient_oracle(self.seed)
        self.out.check(worst <= 1.0, f"gradient oracle: error {worst:.2e} x its tolerance")
        self.train_loss = None

    # Each repetition returns its rate and a function that checks its results.
    def _train_rep(self, k: int):
        batch = self._chunk(k, self.wl.chunk)
        params = self.ls.init_params.copy()
        config = train.TrainConfig(batch_size=BATCH, max_epochs=1, patience=1, seed=self.seed)
        t0 = time.perf_counter()
        result = train.fit(batch, self.ls.val_slice, params, self.loaded.corpus.poi_table, config,
                           VARIANT, cache=self.state[1], rng=numerics.make_rng(self.seed + k))
        elapsed = time.perf_counter() - t0

        def check():
            loss = result.log[0].train_loss
            if self.train_loss is None:
                self.train_loss = loss
            self.out.check(math.isfinite(loss) and _finite(result.params),
                           f"repetition {k}: loss {loss} or parameters not finite")
        return len(batch) / elapsed, check

    def _baselines_init(self):
        self.ls.pool = self.loaded.samples_for("test")
        self.ls.order = inputs.seeded_rng(self.seed, "loop").permutation(len(self.ls.pool))

    def _baselines_rep(self, k: int):
        chunk = self._chunk(k, self.wl.chunk)
        rankers = self.state[0].named()
        recorded: list[np.ndarray] = []

        def recording(fn):
            def ranker(sample):
                ranking = fn(sample)
                recorded.append(ranking)
                return ranking
            return ranker

        t0 = time.perf_counter()
        reports = [evaluation.evaluate(recording(fn), chunk, ks=KS) for fn in rankers.values()]
        elapsed = time.perf_counter() - t0

        def check():
            m = self.loaded.corpus.n_pois
            bad = sum(not _is_permutation(r, m) for r in recorded)
            self.out.check(bad == 0, f"repetition {k}: {bad} baseline rankings not permutations",
                           n=len(recorded))
            self.out.check(all(r.count == len(chunk) for r in reports), f"repetition {k}: counts")
        return len(recorded) / elapsed, check

    # -- results ---------------------------------------------------------
    def layer_metrics(self, plain_rate: float, traced_rate: float,
                      prepare_rate: float) -> dict[str, float]:
        reps = self.traced_reps
        loop = totals(self.loop_spans)
        once = totals(self.spans["prepare"], self.spans["setup"])
        metrics: dict[str, float] = {}
        for metric, span in _SELF_TIME_METRICS.items():
            if span in once.self_s:
                metrics[metric] = once.self_s[span]
            else:
                metrics[metric] = loop.self_s.get(span, 0.0) / reps
        metrics["evaluation.evaluate_self_s"] = (
            loop.self_s.get("evaluation.evaluate", 0.0) + loop.self_s.get("train.val_eval", 0.0)
        ) / reps
        metrics["train.fit_s"] = loop.total_s.get("train.fit", 0.0) / reps
        metrics["train.val_eval_s"] = loop.total_s.get("train.val_eval", 0.0) / reps
        metrics["train.steps"] = loop.calls.get("train.adam_step", 0) / reps
        metrics["model.forward_calls"] = loop.calls.get("model.forward", 0) / reps
        metrics["evaluation.rankings"] = sum(
            loop.calls.get(span, 0) for span in RANKING_SPANS) / reps
        metrics["ingest.prepare_checkins_per_s"] = prepare_rate
        metrics["ingest.malformed_lines"] = self.malformed
        metrics["ingest.samples"] = self.fingerprint["samples"]
        hits, misses, fallbacks = (c / reps for c in self.counter_delta)
        metrics["geodata.row_hits"] = hits
        metrics["geodata.row_misses"] = misses
        metrics["geodata.row_lookups"] = hits + misses
        metrics["geodata.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics["baselines.top2_fallbacks"] = fallbacks
        metrics["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
        # parent indices are local to each phase's list
        worst = min(min(self_times(spans), default=0.0)
                    for spans in (self.spans["prepare"], self.spans["setup"], self.loop_spans))
        self.out.check(worst >= -1e-9, f"a span's children outlast it by {-worst} s")
        if self.wl.kind == "train":
            parts = sum(metrics[name] for name in FIT_PARTS)
            self.out.check(abs(parts - metrics["train.fit_s"]) <= 1e-6 * max(1.0, parts),
                           f"self times inside fit sum to {parts}, fit took "
                           f"{metrics['train.fit_s']}")
        return {name: metrics[name] for name in PER_LAYER}


def gradient_oracle(seed: int, corrupt=None) -> float:
    """`backward` against central differences on `synthetic.random_instance(seed)`.

    Returns the worst coordinate's |analytic - numeric| divided by its
    tolerance, `FD_RTOL * max(|analytic|, |numeric|) + atol`; above 1 fails.
    The relative part is `train.finite_difference_check`'s. `atol` bounds
    the rounding error of the difference quotient itself: each loss is off
    by up to a few eps * |J|, so (J+ - J-) / 2 delta is off by about
    eps * |J| / delta (about 2e-11 at J = 2). Without it a coordinate whose
    true gradient is near 1e-8 fails on rounding alone, on some seeds.
    `corrupt`, if given, edits the analytic gradients first (for tests).
    """
    table, params, sample = synthetic.random_instance(seed, m=12, n=4, d=3, h=5, w=1)
    cache = SpatialRowCache(table, capacity=len(table))
    grads = train.backward(model.forward(sample, params, table, VARIANT, cache), sample,
                           params, VARIANT)
    if corrupt is not None:
        corrupt(grads)

    def loss() -> float:
        return model.cross_entropy(model.forward(sample, params, table, VARIANT, cache),
                                   sample.target_poi)

    atol = 8 * np.finfo(float).eps * max(abs(loss()), 1.0) / FD_DELTA
    worst = 0.0
    for name, tensor in params.named_tensors():
        for idx in np.ndindex(tensor.shape):
            orig = tensor[idx]
            tensor[idx] = orig + FD_DELTA
            j_plus = loss()
            tensor[idx] = orig - FD_DELTA
            j_minus = loss()
            tensor[idx] = orig
            numeric = (j_plus - j_minus) / (2.0 * FD_DELTA)
            analytic = float(grads[name][idx])
            tol = FD_RTOL * max(abs(analytic), abs(numeric)) + atol
            worst = max(worst, abs(analytic - numeric) / tol)
    return worst


def _is_permutation(ranking: np.ndarray, m: int) -> bool:
    return ranking.shape == (m,) and bool((np.bincount(ranking, minlength=m) == 1).all())


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        workloads: dict[str, Workload] = WORKLOADS) -> dict:
    """Run one workload; returns the result record (metrics, checks, fingerprint)."""
    wl = workloads[name]
    r = _Run(wl, seed, seconds, trace, workdir)
    phases: dict[str, float] = {}
    rss_after: dict[str, float] = {}

    def phase(name: str, fn):
        t0 = time.perf_counter()
        out = fn()
        phases[name] = time.perf_counter() - t0
        rss_after[name] = _peak_rss_mb()
        return out

    phase("generate", r.generate)
    prepare_rate = phase("prepare", r.prepare)
    setup_s = phase("setup", r.setup)
    plain_rate, traced_rate = phase("loop", r.loop)
    if trace:
        values = r.layer_metrics(plain_rate, traced_rate, prepare_rate)
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(),
            "samples_per_s": plain_rate,
        }
        units = END_TO_END_UNITS
    r.fingerprint["repetitions"] = r.reps
    if wl.kind == "train":
        r.fingerprint["first_train_loss"] = r.train_loss
    return {
        "correct": r.out.failed == 0,
        "attempted": r.out.attempted,
        "failed": r.out.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
        "fingerprint": r.fingerprint,
        "failures": r.out.notes,
        "phase_seconds": phases,
        "peak_rss_mb_after": rss_after,
        "setup_times": r.setup_times,
        "prepare_checkins_per_s": prepare_rate,
        "rates": r.rates,
        "spans": {phase: [[s.name, s.start, s.end, s.parent] for s in spans]
                  for phase, spans in {**r.spans, "loop": r.loop_spans}.items()} if trace else {},
    }

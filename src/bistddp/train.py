"""Training: reverse-mode gradients, Adam, mini-batch loop, gradient check.

Gradients are derived by hand. With one-hot target y and candidate
distribution o, the logit gradient is o - y; it flows back through the
output projection, the four tanh hidden branches (touching only the
embedding rows the sample used), and the interval-gate path
dJ/d(interval weight) = (o - y) * spatial_row * (1 - gate^2) * interval.
Spatial rows are data, not parameters, so no gradient reaches coordinates.
Adam's moments are flat arenas in the parameters' layout. The gradient
arena stops before the (M x h) output projection, last in the layout, whose
gradient g.T @ pref `adam_step` forms a block of rows at a time from the
batch's two factors: at N = 1000, M = 5000, d = 64, h = 256 the arena is
3.56 MB, not 13.80 MB, and Adam's three scratch pieces take 0.75 MB.
`backward`, with `model.forward`, `cross_entropy` and `predict_topk`, is a
one-row shim over the batched path, kept for perfbench and the tests.
"""

from __future__ import annotations

import math
import re
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .evaluation import MetricsReport, report_from_ranks
from .geodata import PoiTable, SpatialRowCache, row_source
from .ingest import Sample, SampleBatch, atomic_open
from .model import (
    BatchTrace,
    ForwardTrace,
    ModelParams,
    NonFiniteScores,
    VariantConfig,
    forward_batch,
    layout_views,
    param_layout,
    target_ranks,
)
from .numerics import ShapeMismatch, behind, make_rng, softmax_cross_entropy

# module attributes only: perfbench's tracer patches train.forward,
# train.cross_entropy and train.evaluate, and nothing here calls them
from .evaluation import evaluate  # noqa: F401
from .model import cross_entropy, forward  # noqa: F401


class Gradients:
    """dJ/dtheta of one batch. Each tensor before `out_weights`, last in the
    parameters' layout, has its gradient in `tensors`, a view of the arena
    `data` in that layout. The (M x h) gradient of `out_weights`, g.T @ pref,
    is not stored: it is kept as its two factors, the logit gradients `g`
    (B x M) and the summed preference `pref` (B x h), the batch's own
    buffers, and `out_weights_rows` forms it a block of rows at a time, in
    the blocks of `row_blocks`. A new object is the zero gradient: a zero
    arena and factors of no rows."""

    def __init__(self, params: ModelParams):
        *layout, (_, (m, h), _, _) = param_layout(params.hyper, params.n_users, params.n_pois)
        self.data = np.zeros(params.data.size - m * h)
        self.tensors = dict(layout_views(self.data, layout))
        self.g, self.pref = np.zeros((0, m)), np.zeros((0, h))

    def release(self) -> None:
        """Let go of the batch's buffers for factors of no rows: `out_weights`'
        gradient reads zero until the next `backward_batch`."""
        self.g, self.pref = np.zeros((0, self.g.shape[1])), np.zeros((0, self.pref.shape[1]))

    def out_weights_rows(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """Rows `rows` of out_weights' gradient g.T @ pref, written into `out`."""
        return np.matmul(self.g[:, rows].T, self.pref, out=out)

    def dense(self) -> dict[str, np.ndarray]:
        """Every tensor's gradient by layout name, out_weights' formed whole
        block by block, so its bits are the ones `adam_step` applies: the
        form the gradient check reads. Training never builds it."""
        m, h = self.g.shape[1], self.pref.shape[1]
        out = np.empty((m, h))
        for rows in row_blocks(m, h):
            self.out_weights_rows(rows, out[rows])
        return {**self.tensors, "out_weights": out}


class TraceMismatch(ValueError):
    """Trace was produced by different inputs than the backward call."""


class EmptyTrainSet(ValueError):
    pass


class Diverged(RuntimeError):
    """Training produced non-finite losses or scores; the parameters are no
    longer usable."""


def loss_grad_wrt_logits(trace: ForwardTrace, target: int) -> np.ndarray:
    """dJ/dlogits for J = -log probs[target]: probs - onehot(target)."""
    g = trace.probs.copy()
    g[target] -= 1.0
    return g


def _gate_grad(
    out: np.ndarray, g: np.ndarray, rows: list[np.ndarray], weights: np.ndarray,
    interval: np.ndarray,
) -> None:
    """out += sum_i rows[i] * (1 - T[i]^2) * interval[i] * g[i], with gate
    row T[i] = tanh(interval[i] * weights) recomputed as forward_batch had it.

    One sample at a time in a single length-M buffer, with the operations
    per element of T[i] and the expression above in that order, so the sum
    is bit-identical to a pass over the (B x M) gate array."""
    coef = np.empty_like(weights)
    for row, iv, g_row in zip(rows, interval, g):
        np.tanh(np.multiply(iv, weights, out=coef), out=coef)
        np.square(coef, out=coef)
        np.subtract(1.0, coef, out=coef)
        coef *= iv
        coef *= g_row
        coef *= row
        out += coef


def backward_batch(trace: BatchTrace, g: np.ndarray, params: ModelParams,
                   out: Gradients) -> Gradients:
    """Gradients of sum_i J_i w.r.t. every parameter tensor, written into
    and returned as `out`, where row g[i] is dJ_i/dlogits[i] and `params`
    are those the trace was made with. It walks the trace's directions and
    branches in forward_batch's order, so tensors the variant gates off
    receive zero. Nothing `out` held survives: its arena is zeroed first,
    and its factors become `g` and the trace's `pref`, not copies."""
    out.data[:] = 0.0
    out.g, out.pref = g, trace.pref
    tensors, grads = dict(params.named_tensors()), out.tensors

    with behind(lambda: g @ params.out_weights) as product:
        for d in trace.directions:
            _gate_grad(grads[d.weights], g, d.rows, tensors[d.weights], d.interval)
    pref_grad = product.result

    for b in trace.branches:
        a = pref_grad * (1.0 - b.act**2)
        for k, name in enumerate(b.weights):
            np.matmul(a.T, b.inputs[:, k], out=grads[name])
            if b.table is not None:
                np.add.at(grads[b.table], b.index[:, k], a @ tensors[name])
    return out


def backward(
    trace: ForwardTrace,
    sample: Sample,
    params: ModelParams,
    variant: VariantConfig,
) -> dict[str, np.ndarray]:
    """Exact gradients of -log probs[target] w.r.t. every parameter tensor,
    keyed by name: `backward_batch` on the trace's batch of one."""
    if trace.sample != sample or trace.variant != variant:
        raise TraceMismatch("trace does not belong to this sample/variant")
    g = loss_grad_wrt_logits(trace, sample.target_poi)
    return backward_batch(trace.batch, g[None], params, Gradients(params)).dense()


def batch_gradients(
    batch: SampleBatch,
    params: ModelParams,
    rows: SpatialRowCache,
    variant: VariantConfig,
    out: Gradients,
) -> tuple[Gradients, float]:
    """Mean gradients, written into `out`, and mean loss over a batch, in one
    pass; `out`'s factors are the batch's logit buffer and preference."""
    trace = forward_batch(batch, params, rows, variant)
    g = trace.logits  # overwritten with the probabilities, then with dJ/dlogits
    loss = float(softmax_cross_entropy(g, batch.targets).mean())
    g[np.arange(len(batch)), batch.targets] -= 1.0
    g /= len(batch)
    return backward_batch(trace, g, params, out), loss


@dataclass
class AdamState:
    """First/second moment estimates with the standard bias correction; `m`
    and `v` are flat arrays in the parameters' arena layout."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 0.001

    @classmethod
    def init(cls, params: ModelParams, lr: float = 0.001) -> "AdamState":
        return cls(m=np.zeros_like(params.data), v=np.zeros_like(params.data), lr=lr)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # the moments' decay rates, the epsilon
# Elements per piece of adam_step's update: its 256 KB working arrays (theta,
# m, v, the gradient and the scratch) stay in a core's L2 cache between operations.
ADAM_BLOCK = 1 << 15


def row_blocks(m: int, h: int) -> list[slice]:
    """The (M x h) out_weights' rows in blocks of ADAM_BLOCK // h (one row if
    h is larger): the pieces in which its gradient is formed and applied.
    At h = 256 that is 128 rows, and at train-5k's shapes the blocks'
    products have the bits of one g.T @ pref; at other shapes BLAS may sum
    some entries in another order, a few ulps of the largest entry apart."""
    step = max(1, ADAM_BLOCK // h)
    return [slice(lo, min(lo + step, m)) for lo in range(0, m, step)]


def adam_step(params: ModelParams, grads: Gradients, state: AdamState):
    """One in-place Adam update of the arena; returns (params, state) for chaining.

    The arena is updated in pieces, every piece through the whole operation
    sequence before the next, so the arrays it touches stay in cache: pieces
    of ADAM_BLOCK elements up to `out_weights`, then its `row_blocks`, whose
    gradient `out_weights_rows` forms `behind` the update of the piece
    before, in one of two buffers that alternate. The operations per element
    are the textbook update's, in its order, so the result is bit-identical
    to whole-array passes over `grads.dense()`. An arena, factors or moments
    whose shapes do not fit the parameters raise before anything is updated.
    """
    theta, dense, m, v = params.data, grads.data, state.m, state.v
    rows, h = params.out_weights.shape
    # elements before out_weights: poi_emb's at least, so row block 0's
    # gradient has a piece to form behind
    n = theta.size - rows * h
    if not (theta.shape == m.shape == v.shape and dense.shape == (n,)
            and grads.g.shape[1:] == (rows,) and grads.pref.shape == (len(grads.g), h)):
        raise ShapeMismatch(f"parameters {theta.shape} (out_weights {rows} x {h}), gradients "
                            f"{dense.shape}, factors {grads.g.shape} and {grads.pref.shape}, "
                            f"moments {m.shape}, {v.shape} do not fit")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    # three pieces of scratch: `a_buf`, and the two buffers row block j's
    # gradient alternates in, g_bufs[j % 2]
    a_buf, *g_bufs = (np.empty(max(ADAM_BLOCK, h)) for _ in range(3))
    blocks = row_blocks(rows, h)

    def form(j: int) -> np.ndarray:
        r = blocks[j]
        return grads.out_weights_rows(r, g_bufs[j % 2][: (r.stop - r.start) * h].reshape(-1, h))

    pieces = [*((slice(lo, min(lo + ADAM_BLOCK, n)), None) for lo in range(0, n, ADAM_BLOCK)),
              *((slice(n + r.start * h, n + r.stop * h), j) for j, r in enumerate(blocks))]
    for k, (piece, block) in enumerate(pieces):
        th, mp, vp = theta[piece], m[piece], v[piece]
        a = a_buf[: th.size]
        if block is None:  # the gradient is the arena's; g_bufs[1] is free until block 1
            gp, q = dense[piece], g_bufs[1][: th.size]
        else:  # the block's own buffer, free for `q` once m and v are updated
            gp = q = g_bufs[block % 2][: th.size]
        next_block = pieces[k + 1][1] if k + 1 < len(pieces) else None
        with behind(partial(form, next_block)) if next_block is not None else nullcontext():
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
            # theta -= lr (m / c1) / (sqrt(v / c2) + eps), operation for
            # operation in that order, through `a` and `q`
            mp *= ADAM_BETA1
            mp += np.multiply(1.0 - ADAM_BETA1, gp, out=a)
            vp *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, gp, out=a)
            vp += np.multiply(a, gp, out=a)
            np.multiply(state.lr, np.divide(mp, c1, out=q), out=q)
            np.sqrt(np.divide(vp, c2, out=a), out=a)
            a += ADAM_EPS
            th -= np.divide(q, a, out=q)
    return params, state


_VAL_KS = (1, 5, 10)  # the validation recalls `fit` records, logs and tabulates every epoch
_METRICS = re.compile(r"val_map|train_loss|val_recall@(%s)|train_recall@[1-9]\d*"
                      % "|".join(map(str, _VAL_KS)))


@dataclass
class TrainConfig:
    batch_size: int = 128
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0
    lr: float = 0.001
    # "val_map" (default), "val_recall@K" for K in _VAL_KS, "train_loss" or "train_recall@K"
    metric: str = "val_map"

    def __post_init__(self):
        if self.batch_size < 1 or self.patience < 1 or self.max_epochs < 1:
            raise ValueError(f"bad training config: {self}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not _METRICS.fullmatch(self.metric):
            raise ValueError(f"unknown early-stop metric {self.metric!r}: choose val_map, "
                             f"train_loss, val_recall@K for K in {_VAL_KS} or train_recall@K")


# No early-stop metric scores above this: recall and MAP are at most 1, -loss at most 0.
METRIC_CEILING = 1.0


@dataclass
class EarlyStopState:
    """Tracks the best metric value seen, the epoch that scored it, and a
    copy of that epoch's parameters once training has gone on past it.

    `fit` calls `keep` before an epoch changes the parameters, so the best
    epoch's arena is copied only when a later epoch would overwrite it;
    when the best epoch is the last one run, `best_params` is the live
    arena and no copy is made. The copy goes into one arena, allocated at
    the first copy and reused after that. Only a strictly greater value
    improves, so once the best value is METRIC_CEILING no later epoch can
    change the checkpoint.
    """

    best_value: float = -math.inf
    best_epoch: int = 0
    epochs_since_improvement: int = 0
    snapshot: ModelParams | None = None

    def update(self, value: float, epoch: int) -> bool:
        if value > self.best_value:
            self.best_value = value
            self.best_epoch = epoch
            self.epochs_since_improvement = 0
            return True
        self.epochs_since_improvement += 1
        return False

    def _last_is_best(self) -> bool:
        return self.best_epoch > 0 and self.epochs_since_improvement == 0

    def keep(self, params: ModelParams) -> None:
        """Copy `params`, those of the last epoch scored, if that epoch is the best."""
        if self._last_is_best():
            if self.snapshot is None:
                self.snapshot = params.copy()
            else:
                np.copyto(self.snapshot.data, params.data)

    def best_params(self, params: ModelParams) -> ModelParams | None:
        """The best epoch's parameters, where `params` are those of the last epoch scored."""
        return params if self._last_is_best() else self.snapshot

    def should_stop(self, patience: int) -> bool:
        return (self.best_value >= METRIC_CEILING
                or self.epochs_since_improvement >= patience)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_recall: dict[int, float]  # keyed by _VAL_KS; NaN without a validation split
    val_map: float
    seconds: float


@dataclass
class FitResult:
    params: ModelParams  # best checkpoint by the early-stop metric
    log: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_value: float = -math.inf

    @property
    def epochs_run(self) -> int:
        return len(self.log)


def check_fit_inputs(train_samples, val_samples, metric: str) -> None:
    """Raise what `fit` raises before it trains: no training samples, or the
    early-stop `metric` is a validation metric and there are no validation
    samples."""
    if not train_samples:
        raise EmptyTrainSet("no training samples")
    if metric.startswith("val_") and not val_samples:
        raise ValueError(f"metric {metric!r} needs a non-empty validation split")


def fit(
    train_samples: SampleBatch | list[Sample],
    val_samples: SampleBatch | list[Sample],
    params: ModelParams,
    table: PoiTable,
    config: TrainConfig,
    variant: VariantConfig,
    cache: SpatialRowCache | None = None,
    rng: np.random.Generator | None = None,
) -> FitResult:
    """Mini-batch training with early stopping, on the rows of `row_source(table, cache)`.

    Every epoch shuffles the training samples with the seeded RNG, applies
    Adam on per-batch mean gradients (the last short batch is kept), then
    scores the early-stop metric; training ends after `patience` epochs
    without improvement, at an epoch that scores METRIC_CEILING, or at
    `max_epochs`, returning the best checkpoint: `params` itself, updated
    in place, when the best epoch is the last one run. Raises Diverged on
    an overflow or invalid value in a training step (gradients or update)
    or a non-finite batch loss (before its update is applied), and on an
    overflow, invalid value or non-finite score while ranking.
    """
    check_fit_inputs(train_samples, val_samples, config.metric)
    metric = config.metric
    cutoff = int(metric.split("@")[1]) if "@" in metric else None  # of a recall metric
    rows = row_source(table, cache)
    if rng is None:
        rng = make_rng(config.seed)
    data = SampleBatch.from_samples(train_samples)
    val = SampleBatch.from_samples(val_samples) if val_samples else None
    adam = AdamState.init(params, lr=config.lr)
    grads = Gradients(params)
    early = EarlyStopState()
    log: list[EpochRecord] = []

    for epoch in range(1, config.max_epochs + 1):
        early.keep(params)
        t0 = time.perf_counter()
        order = rng.permutation(len(train_samples))
        total_loss = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = data.take(order[lo : lo + config.batch_size])
            try:
                with np.errstate(over="raise", invalid="raise"):
                    _, batch_loss = batch_gradients(batch, params, rows, variant, grads)
                    if not math.isfinite(batch_loss):
                        raise Diverged(f"epoch {epoch}: non-finite batch loss {batch_loss}")
                    adam_step(params, grads, adam)
                    grads.release()  # before the next forward pass makes its (B x M) buffer
            except FloatingPointError as exc:
                raise Diverged(f"epoch {epoch}: non-finite value in a training step ({exc})"
                               ) from exc
            total_loss += batch_loss * len(batch)
        train_loss = total_loss / len(train_samples)

        def report(samples: SampleBatch, ks: tuple[int, ...]) -> MetricsReport:
            try:
                ranks = target_ranks(samples, params, rows, variant)
            except NonFiniteScores as exc:
                raise Diverged(f"epoch {epoch}: {exc}") from exc
            return report_from_ranks(ranks, ks)

        val_report = report(val, _VAL_KS) if val is not None else None
        value = (-train_loss if metric == "train_loss"
                 else val_report.map if metric == "val_map"
                 else val_report.recall[cutoff] if metric.startswith("val_")
                 else report(data, (cutoff,)).recall[cutoff])

        log.append(
            EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                val_recall={k: (val_report.recall[k] if val_report else math.nan) for k in _VAL_KS},
                val_map=val_report.map if val_report else math.nan,
                seconds=time.perf_counter() - t0,
            )
        )
        early.update(value, epoch)
        if early.should_stop(config.patience):
            break

    return FitResult(
        params=early.best_params(params),
        log=log,
        best_epoch=early.best_epoch,
        best_value=early.best_value,
    )


@dataclass
class FdReport:
    """Per-tensor max relative error of analytic vs central-difference grads."""

    per_tensor: dict[str, float]
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.per_tensor.values())

    @property
    def ok(self) -> bool:
        return self.max_error < self.tolerance


def finite_difference_check(
    batch: SampleBatch,
    params: ModelParams,
    rows: SpatialRowCache,
    variant: VariantConfig,
    delta: float = 1e-5,
    tolerance: float = 1e-4,
    grads: dict[str, np.ndarray] | None = None,
) -> FdReport:
    """Compare `batch_gradients`' gradients, `out_weights`' formed whole by
    `Gradients.dense`, against central differences of the
    same mean loss (`forward_batch`, then `softmax_cross_entropy`),
    coordinate by coordinate. Relative error is |a - n| / max(|a|, |n|,
    1e-8). Cost is two forward passes per parameter, so keep the instance
    small; rows that share a user or context POI check how their gradients
    accumulate.

    Passing `grads`, in `dense`'s form, checks those instead of a fresh
    `batch_gradients` (handy for verifying that a corrupted gradient is
    actually detected).
    """
    if grads is None:
        grads = batch_gradients(batch, params, rows, variant, Gradients(params))[0].dense()

    def loss() -> float:
        logits = forward_batch(batch, params, rows, variant).logits
        return float(softmax_cross_entropy(logits, batch.targets).mean())

    per_tensor: dict[str, float] = {}
    for name, tensor in params.named_tensors():
        analytic = grads[name]
        worst = 0.0
        for idx in np.ndindex(tensor.shape):
            orig = tensor[idx]
            tensor[idx] = orig + delta
            j_plus = loss()
            tensor[idx] = orig - delta
            j_minus = loss()
            tensor[idx] = orig
            numeric = (j_plus - j_minus) / (2.0 * delta)
            a = float(analytic[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > worst:
                worst = rel
        per_tensor[name] = worst
    return FdReport(per_tensor, tolerance)


def write_train_log(path, log: list[EpochRecord]) -> None:
    """One CSV row per epoch, in the columns of `format_train_table`."""
    with atomic_open(path) as fh:
        fh.write(",".join(["epoch", "train_loss", *(f"val_recall@{k}" for k in _VAL_KS),
                           "val_map", "seconds"]) + "\n")
        for r in log:
            scores = (r.train_loss, *(r.val_recall[k] for k in _VAL_KS), r.val_map)
            fh.write(",".join([str(r.epoch), *(f"{v:.6f}" for v in scores),
                               f"{r.seconds:.3f}"]) + "\n")


def format_train_table(log: list[EpochRecord]) -> str:
    heads = (*(f"r@{k}" for k in _VAL_KS), "map", "sec")
    lines = [f"{'epoch':>5} {'loss':>10} " + " ".join(f"{h:>7}" for h in heads)]
    for r in log:
        scores = (*(r.val_recall[k] for k in _VAL_KS), r.val_map)
        lines.append(f"{r.epoch:>5} {r.train_loss:>10.4f} "
                     + " ".join(f"{v:>7.4f}" for v in scores) + f" {r.seconds:>7.2f}")
    return "\n".join(lines)

"""Training: reverse-mode gradients, Adam, mini-batch loop, gradient check.

Gradients are derived by hand. With one-hot target y and candidate
distribution o, the logit gradient is o - y; it flows back through the
output projection, the four tanh hidden branches (touching only the
embedding rows the sample used), and the interval-gate path
dJ/d(interval weight) = (o - y) * spatial_row * (1 - gate^2) * interval.
Spatial rows are data, not parameters, so no gradient reaches coordinates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

# `evaluate` stays a module attribute: perfbench's tracer patches train.evaluate
from .evaluation import MetricsReport, evaluate, report_from_ranks  # noqa: F401
from .geodata import PoiTable, SpatialRowCache
from .ingest import Sample, SampleBatch
from .model import (
    BatchTrace,
    ForwardTrace,
    ModelParams,
    NonFiniteScores,
    VariantConfig,
    cross_entropy,
    forward,
    forward_batch,
    interval_gate,
    target_ranks,
)
from .numerics import ShapeMismatch, make_rng, softmax_cross_entropy

# One array per ModelParams tensor, keyed by its named_tensors() name.
Gradients = dict[str, np.ndarray]


class TraceMismatch(ValueError):
    """Trace was produced by different inputs than the backward call."""


class EmptyTrainSet(ValueError):
    pass


class Diverged(RuntimeError):
    """Training produced non-finite losses or scores, or never a finite
    early-stop metric; the parameters are no longer usable."""


def zero_gradients(params: ModelParams) -> Gradients:
    return {name: np.zeros_like(t) for name, t in params.named_tensors()}


def loss_grad_wrt_logits(trace: ForwardTrace, target: int) -> np.ndarray:
    """dJ/dlogits for J = -log probs[target]: probs - onehot(target)."""
    g = trace.probs.copy()
    g[target] -= 1.0
    return g


def _context_grads(
    grads: Gradients, name: str, hidden: list[np.ndarray], emb: np.ndarray,
    context: np.ndarray, a: np.ndarray,
) -> None:
    for k, weights in enumerate(hidden):
        np.matmul(a.T, emb[:, k], out=grads[f"{name}[{k}]"])
        np.add.at(grads["poi_emb"], context[:, k], a @ weights)


def _gate_grad(
    out: np.ndarray, g: np.ndarray, rows: list[np.ndarray], weights: np.ndarray,
    interval: np.ndarray,
) -> None:
    """out += sum_i rows[i] * (1 - T[i]^2) * interval[i] * g[i], with
    T = interval_gate(weights, interval) recomputed as forward_batch had it."""
    coef = interval_gate(weights, interval)
    np.square(coef, out=coef)
    np.subtract(1.0, coef, out=coef)
    coef *= interval[:, None]
    coef *= g
    for row, c in zip(rows, coef):
        out += row * c


def backward_batch(trace: BatchTrace, g: np.ndarray, params: ModelParams) -> Gradients:
    """Gradients of sum_i J_i w.r.t. every parameter tensor, where row g[i]
    is dJ_i/dlogits[i] and `params` are those the trace was made with.
    Tensors the trace's variant gates off receive zero."""
    batch, variant = trace.samples, trace.variant
    grads = zero_gradients(params)

    # first, so _gate_grad's (B x M) scratch is freed before out_weights'
    # gradient pages are written: this keeps the step's peak memory down
    if variant.use_dependence:
        if variant.use_forward_branch:
            _gate_grad(grads["interval_w_before"], g, trace.spat_before,
                       params.interval_w_before, batch.interval_before)
        if variant.use_backward_branch:
            _gate_grad(grads["interval_w_after"], g, trace.spat_after,
                       params.interval_w_after, batch.interval_after)

    np.matmul(g.T, trace.pref, out=grads["out_weights"])
    pref_grad = g @ params.out_weights

    if variant.use_forward_branch:
        _context_grads(grads, "fwd_hidden", params.fwd_hidden, trace.fwd_emb, batch.fwd,
                       pref_grad * (1.0 - trace.h_fwd**2))
    if variant.use_backward_branch:
        _context_grads(grads, "bwd_hidden", params.bwd_hidden, trace.bwd_emb, batch.bwd,
                       pref_grad * (1.0 - trace.h_bwd**2))

    a = pref_grad * (1.0 - trace.h_user**2)
    np.matmul(a.T, trace.user_vec, out=grads["user_hidden"])
    np.add.at(grads["user_emb"], batch.users, a @ params.user_hidden)

    if variant.use_time_pattern:
        a = pref_grad * (1.0 - trace.h_time**2)
        np.matmul(a.T, batch.pattern, out=grads["time_hidden"])

    return grads


def backward(
    trace: ForwardTrace,
    sample: Sample,
    params: ModelParams,
    variant: VariantConfig,
) -> Gradients:
    """Exact gradients of -log probs[target] w.r.t. every parameter tensor:
    `backward_batch` on the trace's batch of one."""
    if trace.sample != sample or trace.variant != variant:
        raise TraceMismatch("trace does not belong to this sample/variant")
    g = loss_grad_wrt_logits(trace, sample.target_poi)
    return backward_batch(trace.batch, g[None], params)


def batch_gradients(
    samples: SampleBatch | list[Sample],
    params: ModelParams,
    table: PoiTable,
    variant: VariantConfig,
    cache: SpatialRowCache | None = None,
) -> tuple[Gradients, float]:
    """Mean gradients and mean loss over a batch, from one batched pass."""
    if not isinstance(samples, SampleBatch):
        samples = SampleBatch.from_samples(samples)
    trace = forward_batch(samples, params, table, variant, cache)
    g = trace.logits  # overwritten with the probabilities, then with dJ/dlogits
    loss = float(softmax_cross_entropy(g, samples.targets).mean())
    g[np.arange(len(samples)), samples.targets] -= 1.0
    g /= len(samples)
    return backward_batch(trace, g, params), loss


@dataclass
class AdamState:
    """First/second moment estimates with the standard bias correction."""

    m: Gradients
    v: Gradients
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr: float = 0.001

    @classmethod
    def init(cls, params: ModelParams, lr: float = 0.001) -> "AdamState":
        return cls(m=zero_gradients(params), v=zero_gradients(params), lr=lr)


def adam_step(params: ModelParams, grads: Gradients, state: AdamState):
    """One in-place Adam update; returns (params, state) for chaining."""
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    for name, theta in params.named_tensors():
        g = grads[name]
        if g.shape != theta.shape:
            raise ShapeMismatch(f"gradient {name} has shape {g.shape}, want {theta.shape}")
        m = state.m[name]
        v = state.v[name]
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
        # theta -= lr (m / c1) / (sqrt(v / c2) + eps), operation for operation
        # in that order (so bit-identical), through two scratch arrays instead
        # of a temporary per operator
        a = np.empty_like(theta)
        b = np.empty_like(theta)
        m *= state.beta1
        m += np.multiply(1.0 - state.beta1, g, out=a)
        v *= state.beta2
        np.multiply(1.0 - state.beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.multiply(state.lr, np.divide(m, c1, out=a), out=a)
        np.sqrt(np.divide(v, c2, out=b), out=b)
        b += state.eps
        theta -= np.divide(a, b, out=a)
    return params, state


@dataclass
class TrainConfig:
    batch_size: int = 128
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0
    lr: float = 0.001
    # "val_map" (default), "val_recall@K", "train_loss" or "train_recall@K"
    metric: str = "val_map"
    # optional early exit once the metric reaches this value
    stop_threshold: float | None = None

    def __post_init__(self):
        if self.batch_size < 1 or self.patience < 1 or self.max_epochs < 1:
            raise ValueError(f"bad training config: {self}")


@dataclass
class EarlyStopState:
    """Tracks the best metric value seen and the checkpoint that scored it."""

    best_value: float = -math.inf
    best_params: ModelParams | None = None
    best_epoch: int = 0
    epochs_since_improvement: int = 0

    def update(self, value: float, params: ModelParams, epoch: int) -> bool:
        if value > self.best_value:
            self.best_value = value
            self.best_params = params.copy()
            self.best_epoch = epoch
            self.epochs_since_improvement = 0
            return True
        self.epochs_since_improvement += 1
        return False

    def should_stop(self, patience: int) -> bool:
        return self.epochs_since_improvement >= patience


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_recall: dict[int, float]
    val_map: float
    seconds: float


@dataclass
class FitResult:
    params: ModelParams  # best checkpoint by the early-stop metric
    log: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_value: float = -math.inf
    epochs_run: int = 0


def _metric_value(
    metric: str,
    train_loss: float,
    val_report: MetricsReport | None,
    train_eval,
) -> float:
    """Higher-is-better value of the selected early-stop metric."""
    if metric == "train_loss":
        return -train_loss
    if metric.startswith("val_"):
        if val_report is None:
            raise ValueError(f"metric {metric!r} needs a non-empty validation split")
        if metric == "val_map":
            return val_report.map
        k = int(metric.split("@")[1])
        return val_report.recall[k]
    if metric.startswith("train_recall@"):
        k = int(metric.split("@")[1])
        return train_eval(k)
    raise ValueError(f"unknown early-stop metric {metric!r}")


def fit(
    train_samples: list[Sample],
    val_samples: list[Sample],
    params: ModelParams,
    table: PoiTable,
    config: TrainConfig,
    variant: VariantConfig,
    cache: SpatialRowCache | None = None,
    metric_fn=None,
    rng: np.random.Generator | None = None,
) -> FitResult:
    """Mini-batch training with early stopping.

    Every epoch shuffles the training samples with the seeded RNG, applies
    Adam on per-batch mean gradients (the last short batch is kept), then
    scores the early-stop metric; training ends after `patience` epochs
    without improvement or at `max_epochs`, returning the best checkpoint.
    Raises Diverged on a non-finite batch loss (before its update is
    applied), on non-finite scores while ranking, or when no epoch scored a
    finite metric. `metric_fn(params, epoch) -> float` overrides the
    configured metric.
    """
    if not train_samples:
        raise EmptyTrainSet("no training samples")
    if cache is None:
        cache = SpatialRowCache(table, capacity=min(1024, len(table)))
    if rng is None:
        rng = make_rng(config.seed)
    data = SampleBatch.from_samples(train_samples)
    val = SampleBatch.from_samples(val_samples) if val_samples else None
    adam = AdamState.init(params, lr=config.lr)
    early = EarlyStopState()
    ks = (1, 5, 10)
    log: list[EpochRecord] = []
    epochs_run = 0

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_samples))
        total_loss = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = data.take(order[lo : lo + config.batch_size])
            grads, batch_loss = batch_gradients(batch, params, table, variant, cache)
            if not math.isfinite(batch_loss):
                raise Diverged(f"epoch {epoch}: non-finite batch loss {batch_loss}")
            adam_step(params, grads, adam)
            total_loss += batch_loss * len(batch)
        train_loss = total_loss / len(train_samples)

        def report(samples: SampleBatch, ks: tuple[int, ...]) -> MetricsReport:
            try:
                ranks = target_ranks(samples, params, table, variant, cache)
            except NonFiniteScores as exc:
                raise Diverged(f"epoch {epoch}: {exc}") from exc
            return report_from_ranks(ranks, ks)

        val_report = report(val, ks) if val is not None else None

        if metric_fn is not None:
            value = float(metric_fn(params, epoch))
        else:
            value = _metric_value(config.metric, train_loss, val_report,
                                  lambda k: report(data, (k,)).recall[k])

        log.append(
            EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                val_recall={k: (val_report.recall[k] if val_report else math.nan) for k in ks},
                val_map=val_report.map if val_report else math.nan,
                seconds=time.perf_counter() - t0,
            )
        )
        epochs_run = epoch
        early.update(value, params, epoch)
        if config.stop_threshold is not None and early.best_value >= config.stop_threshold:
            break
        if early.should_stop(config.patience):
            break

    if early.best_params is None:
        raise Diverged(f"no finite early-stop metric in {epochs_run} epochs")
    return FitResult(
        params=early.best_params,
        log=log,
        best_epoch=early.best_epoch,
        best_value=early.best_value,
        epochs_run=epochs_run,
    )


@dataclass
class FdReport:
    """Per-tensor max relative error of analytic vs central-difference grads."""

    per_tensor: dict[str, float]
    max_error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_error < self.tolerance


def finite_difference_check(
    params: ModelParams,
    sample: Sample,
    table: PoiTable,
    variant: VariantConfig,
    delta: float = 1e-5,
    tolerance: float = 1e-4,
    grads: Gradients | None = None,
) -> FdReport:
    """Compare analytic gradients against central differences, coordinate by
    coordinate. Relative error is |a - n| / max(|a|, |n|, 1e-8). Cost is two
    forward passes per parameter, so keep the instance small.

    Passing `grads` checks those instead of a fresh backward (handy for
    verifying that a corrupted gradient is actually detected).
    """
    cache = SpatialRowCache(table, capacity=len(table))
    trace = forward(sample, params, table, variant, cache)
    if grads is None:
        grads = backward(trace, sample, params, variant)

    def loss() -> float:
        t = forward(sample, params, table, variant, cache)
        return cross_entropy(t, sample.target_poi)

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
    return FdReport(per_tensor, max(per_tensor.values()), tolerance)


def write_train_log(path, log: list[EpochRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_recall@1,val_recall@5,val_recall@10,val_map,seconds\n")
        for r in log:
            fh.write(
                f"{r.epoch},{r.train_loss:.6f},{r.val_recall[1]:.6f},{r.val_recall[5]:.6f},"
                f"{r.val_recall[10]:.6f},{r.val_map:.6f},{r.seconds:.3f}\n"
            )


def format_train_table(log: list[EpochRecord]) -> str:
    lines = [f"{'epoch':>5} {'loss':>10} {'r@1':>7} {'r@5':>7} {'r@10':>7} {'map':>7} {'sec':>7}"]
    for r in log:
        lines.append(
            f"{r.epoch:>5} {r.train_loss:>10.4f} {r.val_recall[1]:>7.4f} "
            f"{r.val_recall[5]:>7.4f} {r.val_recall[10]:>7.4f} {r.val_map:>7.4f} "
            f"{r.seconds:>7.2f}"
        )
    return "\n".join(lines)

"""The identification model.

A sample's score over all M candidate POIs combines two parts:

* spatio-temporal dependence: the normalized distance row of each adjacent
  POI, gated elementwise by a tanh-transformed time interval
  (short gap => distant candidates get suppressed);
* the user's dynamic preference: tanh hidden layers over the context POI
  embeddings, the user embedding, and the 7-bit target-time pattern, summed
  and projected to candidate space.

Softmax of the summed scores gives the candidate distribution. The ablation
variants drop parts: `_branch_table` lists the preference branches and
dependence directions a variant runs, in summation order, and
`forward_batch` and `train.backward_batch` both walk that list.

`forward`, `cross_entropy` and `predict_topk`, with `train.backward`, are a
one-row shim over the batched path, kept for perfbench and the tests.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

# spatial_vector is a module attribute only, for perfbench's tracer to patch
from .geodata import PoiTable, SpatialRowCache, row_source, spatial_vector  # noqa: F401
from .ingest import Sample, SampleBatch, atomic_open
from .numerics import (BadInput, Diverged, ShapeMismatch, behind, glorot_uniform,
                       softmax_cross_entropy, stable_softmax)

CHECKPOINT_MAGIC = b"STDDPCKPT"


@dataclass(frozen=True)
class HyperParams:
    d: int = 64  # embedding dimension
    h: int = 256  # hidden units
    w: int = 1  # context window width per direction

    def __post_init__(self):
        if min(self.d, self.h, self.w) < 1:
            raise BadInput(f"hyperparameters must be >= 1: {self}")


@dataclass(frozen=True)
class VariantConfig:
    use_forward_branch: bool = True
    use_backward_branch: bool = True
    use_dependence: bool = True
    use_time_pattern: bool = True

    def __post_init__(self):
        if not (self.use_forward_branch or self.use_backward_branch):
            raise BadInput("at least one direction must be enabled")


# The standard model plus the four ablations reported alongside it.
VARIANTS: dict[str, VariantConfig] = {
    "bi-stddp": VariantConfig(),
    "f-stddp": VariantConfig(use_backward_branch=False),
    "b-stddp": VariantConfig(use_forward_branch=False),
    "bi-b": VariantConfig(use_dependence=False),
    "bi-a": VariantConfig(use_dependence=False, use_time_pattern=False),
}


def param_layout(hp: HyperParams, n_users: int, n_pois: int) -> list[tuple[str, tuple, int, int]]:
    """(name, shape, fan_in, fan_out) of every learnable tensor, in arena
    and checkpoint order. Fans follow each tensor's role as a linear map;
    the length-M interval weight vectors count as M x 1 maps."""
    d, h, w, m, n = hp.d, hp.h, hp.w, n_pois, n_users
    return [
        ("poi_emb", (m, d), m, d),
        ("user_emb", (n, d), n, d),
        *((f"fwd_hidden[{k}]", (h, d), d, h) for k in range(w)),
        *((f"bwd_hidden[{k}]", (h, d), d, h) for k in range(w)),
        ("user_hidden", (h, d), d, h),
        ("time_hidden", (h, 7), 7, h),
        ("interval_w_before", (m,), 1, m),
        ("interval_w_after", (m,), 1, m),
        ("out_weights", (m, h), h, m),
    ]


def arena_size(hp: HyperParams, n_users: int, n_pois: int) -> int:
    """The values in `param_layout`, counted without building it: a checkpoint
    header's w (up to 2**32 - 1) is checked against the file at no cost."""
    d, h, w, m, n = hp.d, hp.h, hp.w, n_pois, n_users
    return (m + n) * d + (2 * w + 1) * h * d + 7 * h + 2 * m + m * h


def layout_views(data: np.ndarray, layout) -> list[tuple[str, np.ndarray]]:
    """(name, view) of each tensor of `layout`, reshaped from the flat array
    `data`, where the tensors lie end to end in layout order."""
    views, lo = [], 0
    for name, shape, _, _ in layout:
        views.append((name, data[lo : lo + math.prod(shape)].reshape(shape)))
        lo += math.prod(shape)
    return views


class ModelParams:
    """All learnable tensors as reshaped views of one float64 arena `data`, laid
    out by `param_layout` (the checkpoint order): `poi_emb`, `user_emb`, the
    lists `fwd_hidden` and `bwd_hidden`, `user_hidden`, `time_hidden`, the two
    interval weights and `out_weights`. Adam's moments share the layout, and
    the gradients all of it before `out_weights`, so each is copied, zeroed,
    updated or saved as one array."""

    def __init__(self, hyper: HyperParams, n_users: int, n_pois: int, data: np.ndarray):
        size = arena_size(hyper, n_users, n_pois)
        if data.dtype != np.float64 or data.shape != (size,):
            raise ShapeMismatch(f"arena is {data.dtype} {data.shape}, the layout of "
                                f"(N={n_users}, M={n_pois}, {hyper}) needs float64 ({size},)")
        self.hyper, self.n_users, self.n_pois, self.data = hyper, n_users, n_pois, data
        self.fwd_hidden, self.bwd_hidden = [], []  # w views each
        self._named = layout_views(data, param_layout(hyper, n_users, n_pois))
        for name, view in self._named:
            if name.endswith("]"):
                getattr(self, name[: name.index("[")]).append(view)
            else:
                setattr(self, name, view)

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return list(self._named)

    def copy(self) -> "ModelParams":
        return ModelParams(self.hyper, self.n_users, self.n_pois, self.data.copy())


def zero_params(hp: HyperParams, n_users: int, n_pois: int) -> ModelParams:
    """An all-zero arena: the model with uniform scores."""
    return ModelParams(hp, n_users, n_pois, np.zeros(arena_size(hp, n_users, n_pois)))


def init_params(
    hp: HyperParams, n_users: int, n_pois: int, rng: np.random.Generator
) -> ModelParams:
    """Glorot-uniform initialization of every tensor, drawn in layout order,
    so one seed fixes the whole model."""
    params = zero_params(hp, n_users, n_pois)
    for (_, view), (_, _, fan_in, fan_out) in zip(
            params.named_tensors(), param_layout(hp, n_users, n_pois)):
        glorot_uniform(rng, fan_in, fan_out, view)
    return params


@dataclass
class _Branch:
    """A preference layer tanh(sum_k X_k W_k^T), X_k = inputs[:, k] the rows
    index[:, k] of the embedding `table` (None: the time patterns)."""

    weights: list[str]  # layout names of W_0, W_1, ...
    table: str | None
    index: np.ndarray | None  # (B, k)
    inputs: np.ndarray  # (B, k, d), or (B, 1, 7) patterns
    act: np.ndarray | None = None  # (B, h), set by forward_batch


@dataclass
class _Direction:
    """A dependence term: each adjacent POI's distance row gated by tanh(interval * w)."""

    weights: str  # layout name of the interval weights w
    pois: np.ndarray  # (B,) p_{t-1} or p_{t+1}
    interval: np.ndarray  # (B,)
    rows: list[np.ndarray] | None = None  # B distance rows, set by forward_batch


def _branch_table(batch: SampleBatch, params: ModelParams,
                  variant: VariantConfig) -> tuple[list[_Branch], list[_Direction]]:
    """The preference branches and dependence directions `variant` runs, in
    summation order: forward, backward, user, time; before, after. The one
    place that reads the variant's flags."""
    branches, directions = [], []
    for use, name, context, weights, interval in (
            (variant.use_forward_branch, "fwd_hidden", batch.fwd, "interval_w_before",
             batch.interval_before),
            (variant.use_backward_branch, "bwd_hidden", batch.bwd, "interval_w_after",
             batch.interval_after)):
        if use:
            branches.append(_Branch([f"{name}[{k}]" for k in range(context.shape[1])],
                                   "poi_emb", context, params.poi_emb[context]))
            if variant.use_dependence:
                directions.append(_Direction(weights, context[:, 0], interval))
    users = batch.users[:, None]
    branches.append(_Branch(["user_hidden"], "user_emb", users, params.user_emb[users]))
    if variant.use_time_pattern:
        branches.append(_Branch(["time_hidden"], None, None, batch.pattern[:, None]))
    return branches, directions


@dataclass
class BatchTrace:
    """Every intermediate of one batched forward evaluation, kept for backprop.

    Row i belongs to sample i of the batch. `branches` and `directions` are
    `_branch_table`'s, with each branch's activation and each direction's
    distance rows: the read-only arrays the row cache returned, one per
    sample, never stacked. The gates are not kept: forward
    and backward each compute one sample's length-M gate row at a time.
    """

    branches: list[_Branch]
    directions: list[_Direction]
    pref: np.ndarray  # (B, h) summed dynamic preference
    logits: np.ndarray  # (B, M)


@dataclass
class ForwardTrace:
    """One sample's forward evaluation: a one-row BatchTrace plus probabilities."""

    sample: Sample
    variant: VariantConfig
    batch: BatchTrace
    logits: np.ndarray  # (M,)
    probs: np.ndarray  # (M,)


def _check_batch(batch: SampleBatch, params: ModelParams, rows: SpatialRowCache) -> None:
    m, n, w = params.n_pois, params.n_users, params.hyper.w
    if len(rows.table) != m:
        raise ShapeMismatch(f"row cache's table has {len(rows.table)} POIs, the parameters M={m}")
    if batch.fwd.shape[1] != w or batch.bwd.shape[1] != w:
        raise ShapeMismatch(
            f"context width {batch.fwd.shape[1]}/{batch.bwd.shape[1]} does not match w={w}"
        )
    context = np.concatenate([batch.fwd, batch.bwd], axis=1)
    for what, values, bound in (
        ("user", batch.users, n),
        ("target POI", batch.targets, m),
        ("context POI", context, m),
    ):
        outside = values[(values < 0) | (values >= bound)]
        if outside.size:
            raise ShapeMismatch(f"{what} {outside[0]} outside [0, {bound})")


def forward_batch(
    batch: SampleBatch,
    params: ModelParams,
    rows: SpatialRowCache,
    variant: VariantConfig = VARIANTS["bi-stddp"],
) -> BatchTrace:
    """Evaluate the model on a batch: logits are one (B x h) @ (h x M) GEMM,
    run `behind` the distance-row lookups.

    Dependence terms use only the immediate neighbors (t-1 / t+1) even for
    w > 1; wider context enters through the hidden branches.
    """
    _check_batch(batch, params, rows)
    tensors = dict(params.named_tensors())
    branches, directions = _branch_table(batch, params, variant)

    pref = np.zeros((len(batch), params.user_hidden.shape[0]))
    for b in branches:
        acc = b.inputs[:, 0] @ tensors[b.weights[0]].T
        for k in range(1, len(b.weights)):
            acc += b.inputs[:, k] @ tensors[b.weights[k]].T
        b.act = np.tanh(acc)
        pref += b.act

    # the row lookups stay on this thread, so perfbench's tracer and the
    # cache's LRU order see them as serial code does
    with behind(lambda: pref @ params.out_weights.T) as product:
        for d in directions:
            # one row lookup per distinct POI, in order of first appearance
            distinct = {p: rows.row(p) for p in dict.fromkeys(d.pois.tolist())}
            d.rows = [distinct[p] for p in d.pois.tolist()]
    logits = product.result

    for d in directions:
        # each sample's gate row tanh(interval * weights) in one length-M
        # buffer: no (B x M) gate array is built
        weights = tensors[d.weights]
        gate = np.empty_like(weights)
        for row, iv, out in zip(d.rows, d.interval, logits):
            np.tanh(np.multiply(iv, weights, out=gate), out=gate)
            gate *= row
            out += gate

    return BatchTrace(branches, directions, pref, logits)


def forward(
    sample: Sample,
    params: ModelParams,
    table: PoiTable,
    variant: VariantConfig = VARIANTS["bi-stddp"],
    cache: SpatialRowCache | None = None,
) -> ForwardTrace:
    """Evaluate the model on one sample: `forward_batch` on a batch of one,
    with the rows of `row_source(table, cache)`."""
    batch = forward_batch(SampleBatch.from_samples([sample]), params, row_source(table, cache),
                          variant)
    return ForwardTrace(sample, variant, batch, batch.logits[0], stable_softmax(batch.logits[0]))


def cross_entropy(trace: ForwardTrace, target: int) -> float:
    """-log p(target): `softmax_cross_entropy` on a copy of the logits as one row."""
    return float(softmax_cross_entropy(np.array(trace.logits, ndmin=2), np.array([target]))[0])


def predict_topk(trace: ForwardTrace, k: int) -> np.ndarray:
    """Indices of the k most probable POIs; ties go to the lower index."""
    m = trace.probs.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k={k} outside [1, {m}]")
    order = np.argsort(-trace.probs, kind="stable")
    return order[:k]


# Samples per forward_batch in target_ranks: bounds its (rows x M) buffer.
RANK_CHUNK = 128


def target_ranks(
    batch: SampleBatch,
    params: ModelParams,
    rows: SpatialRowCache,
    variant: VariantConfig = VARIANTS["bi-stddp"],
) -> np.ndarray:
    """1-based rank of each sample's target among all M candidates.

    The rank is the target's position in `predict_topk`'s order, counted
    instead of sorted: 1 + #(p > p_target) + #(p == p_target at a lower
    index). Probabilities are the ones training computes, from
    `softmax_cross_entropy`, whose operations are `stable_softmax`'s, so ties
    (and underflows to 0.0) fall exactly as they do there. An overflow or
    invalid value in the forward pass, like a non-finite probability, raises
    Diverged.
    """
    ranks = np.empty(len(batch), dtype=np.int64)
    cols = np.arange(params.n_pois)
    for lo in range(0, len(batch), RANK_CHUNK):
        chunk = batch.take(slice(lo, lo + RANK_CHUNK))
        try:
            with np.errstate(over="raise", invalid="raise"):
                p = forward_batch(chunk, params, rows, variant).logits
        except FloatingPointError as exc:
            raise Diverged(f"non-finite value while ranking ({exc})") from exc
        softmax_cross_entropy(p, chunk.targets)  # leaves each row's softmax in p
        targets = chunk.targets[:, None]
        p_target = np.take_along_axis(p, targets, axis=1)
        # shifted exps lie in [0, 1] unless NaN, so a row's sum is NaN or at
        # least 1, and its probabilities are all finite exactly when one is
        finite = np.isfinite(p_target[:, 0])
        if not finite.all():
            row = lo + int(np.argmin(finite))
            raise Diverged(f"non-finite probabilities for sample {row}")
        ahead = np.where(cols < targets, p >= p_target, p > p_target)
        ranks[lo : lo + len(chunk)] = 1 + np.count_nonzero(ahead, axis=1)
    return ranks


def save_checkpoint(path, params: ModelParams) -> None:
    """Binary checkpoint: magic, 5 uint32 LE dims (N, M, d, h, w), then the
    arena as little-endian float64. Written through `atomic_open`, so a
    failed save leaves any old checkpoint in place."""
    hp = params.hyper
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<5I", params.n_users, params.n_pois, hp.d, hp.h, hp.w))
        fh.write(params.data.astype("<f8", copy=False))


def load_checkpoint(path) -> ModelParams:
    """The parameters saved at `path`; BadInput, naming the file, for a bad
    magic or header, a payload of the wrong size or a NaN or infinite value."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise BadInput(f"{path}: bad magic {magic!r}")
        header = fh.read(20)
        if len(header) != 20:
            raise BadInput(f"{path}: truncated header")
        n, m, d, h, w = struct.unpack("<5I", header)
        dims = f"header (N={n}, M={m}, d={d}, h={h}, w={w})"
        if 0 in (n, m, d, h, w):
            raise BadInput(f"{path}: {dims} has a zero dimension")
        hp = HyperParams(d=d, h=h, w=w)
        # the arena's size, checked before any of it is allocated
        nbytes = 8 * arena_size(hp, n, m)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != nbytes:
            raise BadInput(f"{path}: {dims} implies {nbytes} bytes of tensors, "
                                f"the file holds {payload}")
        params = zero_params(hp, n, m)
        params.data[:] = np.frombuffer(fh.read(nbytes), dtype="<f8")
    for name, view in params.named_tensors():  # in arena order: the first bad value is named
        bad = np.flatnonzero(~np.isfinite(view))
        if len(bad):
            at = ", ".join(map(str, np.unravel_index(bad[0], view.shape)))
            raise BadInput(f"{path}: {name}[{at}] is {view.flat[bad[0]]}; "
                                "every value must be finite")
    return params


def expect_compatible(params: ModelParams, n_users: int, n_pois: int, w: int,
                      checkpoint, corpus) -> None:
    """Raise BadInput, naming both files, unless the checkpoint fits the corpus."""
    if (params.n_users, params.n_pois, params.hyper.w) != (n_users, n_pois, w):
        raise BadInput(
            f"checkpoint {checkpoint} (N={params.n_users}, M={params.n_pois}, w={params.hyper.w}) "
            f"does not match corpus {corpus} (N={n_users}, M={n_pois}, w={w})"
        )

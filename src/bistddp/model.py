"""The identification model.

A sample's score over all M candidate POIs combines two parts:

* spatio-temporal dependence: the normalized distance row of each adjacent
  POI, gated elementwise by a tanh-transformed time interval
  (short gap => distant candidates get suppressed);
* the user's dynamic preference: tanh hidden layers over the context POI
  embeddings, the user embedding, and the 7-bit target-time pattern, summed
  and projected to candidate space.

Softmax of the summed scores gives the candidate distribution. Ablation
variants gate individual parts (forward/backward branch, dependence terms,
time pattern).

`forward`, `cross_entropy` and `predict_topk`, with `train.backward`, are a
one-row shim over the batched path, kept for perfbench and the tests.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .geodata import PoiTable, SpatialRowCache, spatial_vector
from .ingest import Sample, SampleBatch, atomic_open
from .numerics import ShapeMismatch, glorot_uniform, softmax_cross_entropy, stable_softmax

CHECKPOINT_MAGIC = b"STDDPCKPT"


@dataclass(frozen=True)
class HyperParams:
    d: int = 64  # embedding dimension
    h: int = 256  # hidden units
    w: int = 1  # context window width per direction

    def __post_init__(self):
        if min(self.d, self.h, self.w) < 1:
            raise ValueError(f"hyperparameters must be >= 1: {self}")


@dataclass(frozen=True)
class VariantConfig:
    use_forward_branch: bool = True
    use_backward_branch: bool = True
    use_dependence: bool = True
    use_time_pattern: bool = True

    def __post_init__(self):
        if not (self.use_forward_branch or self.use_backward_branch):
            raise ValueError("at least one direction must be enabled")


# The standard model plus the four ablations reported alongside it.
VARIANTS: dict[str, VariantConfig] = {
    "bi-stddp": VariantConfig(),
    "f-stddp": VariantConfig(use_backward_branch=False),
    "b-stddp": VariantConfig(use_forward_branch=False),
    "bi-b": VariantConfig(use_dependence=False),
    "bi-a": VariantConfig(use_dependence=False, use_time_pattern=False),
}


def variant_from_name(name: str) -> VariantConfig:
    try:
        return VARIANTS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; choose from {sorted(VARIANTS)}") from None


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
    return sum(math.prod(shape) for _, shape, _, _ in param_layout(hp, n_users, n_pois))


class ModelParams:
    """All learnable tensors as reshaped views of one float64 arena `data`, laid
    out by `param_layout` (the checkpoint order): `poi_emb`, `user_emb`, the
    lists `fwd_hidden` and `bwd_hidden`, `user_hidden`, `time_hidden`, the two
    interval weights and `out_weights`. Adam's moments and the gradients share
    the layout, so each is copied, zeroed, updated or saved as one array."""

    def __init__(self, hyper: HyperParams, n_users: int, n_pois: int, data: np.ndarray):
        size = arena_size(hyper, n_users, n_pois)
        if data.dtype != np.float64 or data.shape != (size,):
            raise ShapeMismatch(f"arena is {data.dtype} {data.shape}, the layout of "
                                f"(N={n_users}, M={n_pois}, {hyper}) needs float64 ({size},)")
        self.hyper, self.n_users, self.n_pois, self.data = hyper, n_users, n_pois, data
        self.fwd_hidden, self.bwd_hidden = [], []  # w views each
        self._named: list[tuple[str, np.ndarray]] = []
        lo = 0
        for name, shape, _, _ in param_layout(hyper, n_users, n_pois):
            view = data[lo : lo + math.prod(shape)].reshape(shape)
            lo += view.size
            self._named.append((name, view))
            if name.endswith("]"):
                getattr(self, name[: name.index("[")]).append(view)
            else:
                setattr(self, name, view)

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return list(self._named)

    def copy(self) -> "ModelParams":
        return ModelParams(self.hyper, self.n_users, self.n_pois, self.data.copy())


def zero_params(hp: HyperParams, n_users: int, n_pois: int) -> ModelParams:
    """An all-zero arena: the model with uniform scores, or a gradient buffer."""
    return ModelParams(hp, n_users, n_pois, np.zeros(arena_size(hp, n_users, n_pois)))


def init_params(
    hp: HyperParams, n_users: int, n_pois: int, rng: np.random.Generator
) -> ModelParams:
    """Glorot-uniform initialization of every tensor, drawn in layout order,
    so one seed fixes the whole model."""
    params = zero_params(hp, n_users, n_pois)
    for (_, view), (_, shape, fan_in, fan_out) in zip(
            params.named_tensors(), param_layout(hp, n_users, n_pois)):
        view[...] = glorot_uniform(rng, fan_in, fan_out, shape)
    return params


@dataclass
class BatchTrace:
    """Every intermediate of one batched forward evaluation, kept for backprop.

    Row i belongs to sample i of `samples`. Branch fields are None when the
    variant gates them off. Spatial rows are the read-only arrays the cache
    (or `spatial_vector`) returned, one reference per sample, never stacked.
    The interval gates are not kept: forward and backward each compute them
    one sample's length-M row at a time, so no (B x M) gate array exists.
    """

    samples: SampleBatch
    variant: VariantConfig
    fwd_emb: np.ndarray | None  # (B, w, d)
    bwd_emb: np.ndarray | None
    user_vec: np.ndarray  # (B, d)
    h_fwd: np.ndarray | None  # (B, h)
    h_bwd: np.ndarray | None
    h_user: np.ndarray
    h_time: np.ndarray | None
    pref: np.ndarray  # (B, h) summed dynamic preference
    spat_before: list[np.ndarray] | None  # B normalized distance rows of p_{t-1}
    spat_after: list[np.ndarray] | None
    logits: np.ndarray  # (B, M)


@dataclass
class ForwardTrace:
    """One sample's forward evaluation: a one-row BatchTrace plus probabilities."""

    sample: Sample
    variant: VariantConfig
    batch: BatchTrace
    logits: np.ndarray  # (M,)
    probs: np.ndarray  # (M,)


def _check_batch(batch: SampleBatch, params: ModelParams, w: int) -> None:
    m, n = params.n_pois, params.n_users
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


def _context_branch(
    poi_emb: np.ndarray, hidden: list[np.ndarray], context: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings (B, w, d) of the context POIs and tanh(sum_k E_k W_k^T)."""
    emb = poi_emb[context]
    acc = emb[:, 0] @ hidden[0].T
    for k in range(1, len(hidden)):
        acc += emb[:, k] @ hidden[k].T
    return emb, np.tanh(acc)


def forward_batch(
    batch: SampleBatch,
    params: ModelParams,
    table: PoiTable,
    variant: VariantConfig = VARIANTS["bi-stddp"],
    cache: SpatialRowCache | None = None,
) -> BatchTrace:
    """Evaluate the model on a batch: logits are one (B x h) @ (h x M) GEMM.

    Dependence terms use only the immediate neighbors (t-1 / t+1) even for
    w > 1; wider context enters through the hidden branches.
    """
    _check_batch(batch, params, len(params.fwd_hidden))

    fwd_emb = bwd_emb = h_fwd = h_bwd = None
    user_vec = params.user_emb[batch.users]
    pref = np.zeros((len(batch), params.user_hidden.shape[0]))
    if variant.use_forward_branch:
        fwd_emb, h_fwd = _context_branch(params.poi_emb, params.fwd_hidden, batch.fwd)
        pref += h_fwd
    if variant.use_backward_branch:
        bwd_emb, h_bwd = _context_branch(params.poi_emb, params.bwd_hidden, batch.bwd)
        pref += h_bwd
    h_user = np.tanh(user_vec @ params.user_hidden.T)
    pref += h_user
    h_time = None
    if variant.use_time_pattern:
        h_time = np.tanh(batch.pattern @ params.time_hidden.T)
        pref += h_time

    logits = pref @ params.out_weights.T

    def dependence(pois: np.ndarray, interval: np.ndarray, weights: np.ndarray):
        # one row lookup per distinct POI, in order of first appearance
        distinct = {p: cache.row(p) if cache is not None else spatial_vector(p, table)
                    for p in dict.fromkeys(pois.tolist())}
        rows = [distinct[p] for p in pois.tolist()]
        # each sample's gate row tanh(interval * weights) in one length-M
        # buffer: no (B x M) gate array is built
        gate = np.empty_like(weights)
        for row, iv, out in zip(rows, interval, logits):
            np.tanh(np.multiply(iv, weights, out=gate), out=gate)
            gate *= row
            out += gate
        return rows

    spat_before = spat_after = None
    if variant.use_dependence:
        if variant.use_forward_branch:
            spat_before = dependence(
                batch.fwd[:, 0], batch.interval_before, params.interval_w_before)
        if variant.use_backward_branch:
            spat_after = dependence(
                batch.bwd[:, 0], batch.interval_after, params.interval_w_after)

    return BatchTrace(
        samples=batch,
        variant=variant,
        fwd_emb=fwd_emb,
        bwd_emb=bwd_emb,
        user_vec=user_vec,
        h_fwd=h_fwd,
        h_bwd=h_bwd,
        h_user=h_user,
        h_time=h_time,
        pref=pref,
        spat_before=spat_before,
        spat_after=spat_after,
        logits=logits,
    )


def forward(
    sample: Sample,
    params: ModelParams,
    table: PoiTable,
    variant: VariantConfig = VARIANTS["bi-stddp"],
    cache: SpatialRowCache | None = None,
) -> ForwardTrace:
    """Evaluate the model on one sample: `forward_batch` on a batch of one."""
    batch = forward_batch(SampleBatch.from_samples([sample]), params, table, variant, cache)
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


class NonFiniteScores(RuntimeError):
    """Ranking overflowed or gave a non-finite probability; the parameters are unusable."""


def target_ranks(
    batch: SampleBatch,
    params: ModelParams,
    table: PoiTable,
    variant: VariantConfig = VARIANTS["bi-stddp"],
    cache: SpatialRowCache | None = None,
) -> np.ndarray:
    """1-based rank of each sample's target among all M candidates.

    The rank is the target's position in `predict_topk`'s order, counted
    instead of sorted: 1 + #(p > p_target) + #(p == p_target at a lower
    index). Probabilities come from the same operations as `stable_softmax`,
    so ties (and underflows to 0.0) fall exactly as they do there. An
    overflow or invalid value in the forward pass, like a non-finite
    probability, raises NonFiniteScores.
    """
    ranks = np.empty(len(batch), dtype=np.int64)
    cols = np.arange(params.n_pois)
    for lo in range(0, len(batch), RANK_CHUNK):
        chunk = batch.take(slice(lo, lo + RANK_CHUNK))
        try:
            with np.errstate(over="raise", invalid="raise"):
                p = forward_batch(chunk, params, table, variant, cache).logits
        except FloatingPointError as exc:
            raise NonFiniteScores(f"non-finite value while ranking ({exc})") from exc
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        total = p.sum(axis=1, keepdims=True)
        # shifted exps lie in [0, 1] unless NaN, so a row's probabilities
        # are all finite exactly when its sum is
        if not np.isfinite(total).all():
            row = lo + int(np.argmin(np.isfinite(total[:, 0])))
            raise NonFiniteScores(f"non-finite probabilities for sample {row}")
        p /= total
        targets = chunk.targets[:, None]
        p_target = np.take_along_axis(p, targets, axis=1)
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


class BadCheckpoint(ValueError):
    """Checkpoint file is corrupt, carries the wrong magic or holds a non-finite value."""


def load_checkpoint(path) -> ModelParams:
    """The parameters saved at `path`; BadCheckpoint, naming the file, for a
    bad header, a payload of the wrong size or a NaN or infinite value."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise BadCheckpoint(f"{path}: bad magic {magic!r}")
        header = fh.read(20)
        if len(header) != 20:
            raise BadCheckpoint(f"{path}: truncated header")
        n, m, d, h, w = struct.unpack("<5I", header)
        dims = f"header (N={n}, M={m}, d={d}, h={h}, w={w})"
        if 0 in (n, m, d, h, w):
            raise BadCheckpoint(f"{path}: {dims} has a zero dimension")
        hp = HyperParams(d=d, h=h, w=w)
        # the arena's size, checked before any of it is allocated
        nbytes = 8 * arena_size(hp, n, m)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != nbytes:
            raise BadCheckpoint(f"{path}: {dims} implies {nbytes} bytes of tensors, "
                                f"the file holds {payload}")
        params = zero_params(hp, n, m)
        params.data[:] = np.frombuffer(fh.read(nbytes), dtype="<f8")
    for name, view in params.named_tensors():  # in arena order: the first bad value is named
        bad = np.flatnonzero(~np.isfinite(view))
        if len(bad):
            at = ", ".join(map(str, np.unravel_index(bad[0], view.shape)))
            raise BadCheckpoint(f"{path}: {name}[{at}] is {view.flat[bad[0]]}; "
                                "every value must be finite")
    return params


def expect_compatible(params: ModelParams, n_users: int, n_pois: int, w: int,
                      checkpoint, corpus) -> None:
    """Raise ShapeMismatch, naming both files, unless the checkpoint fits the corpus."""
    if (params.n_users, params.n_pois, params.hyper.w) != (n_users, n_pois, w):
        raise ShapeMismatch(
            f"checkpoint {checkpoint} (N={params.n_users}, M={params.n_pois}, w={params.hyper.w}) "
            f"does not match corpus {corpus} (N={n_users}, M={n_pois}, w={w})"
        )

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
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .geodata import PoiTable, SpatialRowCache, spatial_vector
from .ingest import Sample, SampleBatch
from .numerics import ShapeMismatch, glorot_uniform, log_softmax_at, stable_softmax

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


@dataclass
class ModelParams:
    """All learnable tensors. Field order is the checkpoint order."""

    poi_emb: np.ndarray  # (M, d)
    user_emb: np.ndarray  # (N, d)
    fwd_hidden: list[np.ndarray] = field(default_factory=list)  # w x (h, d)
    bwd_hidden: list[np.ndarray] = field(default_factory=list)  # w x (h, d)
    user_hidden: np.ndarray = None  # (h, d)
    time_hidden: np.ndarray = None  # (h, 7)
    interval_w_before: np.ndarray = None  # (M,)
    interval_w_after: np.ndarray = None  # (M,)
    out_weights: np.ndarray = None  # (M, h)

    @property
    def n_pois(self) -> int:
        return self.poi_emb.shape[0]

    @property
    def n_users(self) -> int:
        return self.user_emb.shape[0]

    @property
    def hyper(self) -> HyperParams:
        return HyperParams(
            d=self.poi_emb.shape[1],
            h=self.user_hidden.shape[0],
            w=len(self.fwd_hidden),
        )

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        out = [("poi_emb", self.poi_emb), ("user_emb", self.user_emb)]
        out += [(f"fwd_hidden[{k}]", t) for k, t in enumerate(self.fwd_hidden)]
        out += [(f"bwd_hidden[{k}]", t) for k, t in enumerate(self.bwd_hidden)]
        out += [
            ("user_hidden", self.user_hidden),
            ("time_hidden", self.time_hidden),
            ("interval_w_before", self.interval_w_before),
            ("interval_w_after", self.interval_w_after),
            ("out_weights", self.out_weights),
        ]
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(
            poi_emb=self.poi_emb.copy(),
            user_emb=self.user_emb.copy(),
            fwd_hidden=[t.copy() for t in self.fwd_hidden],
            bwd_hidden=[t.copy() for t in self.bwd_hidden],
            user_hidden=self.user_hidden.copy(),
            time_hidden=self.time_hidden.copy(),
            interval_w_before=self.interval_w_before.copy(),
            interval_w_after=self.interval_w_after.copy(),
            out_weights=self.out_weights.copy(),
        )


def init_params(
    hp: HyperParams, n_users: int, n_pois: int, rng: np.random.Generator
) -> ModelParams:
    """Glorot-uniform initialization of every tensor.

    Fans follow each tensor's role as a linear map; the length-M interval
    weight vectors count as M x 1 maps (fan_in 1, fan_out M). Tensors are
    drawn in checkpoint order, so one seed fixes the whole model.
    """
    d, h, w = hp.d, hp.h, hp.w
    return ModelParams(
        poi_emb=glorot_uniform(rng, n_pois, d, (n_pois, d)),
        user_emb=glorot_uniform(rng, n_users, d, (n_users, d)),
        fwd_hidden=[glorot_uniform(rng, d, h, (h, d)) for _ in range(w)],
        bwd_hidden=[glorot_uniform(rng, d, h, (h, d)) for _ in range(w)],
        user_hidden=glorot_uniform(rng, d, h, (h, d)),
        time_hidden=glorot_uniform(rng, 7, h, (h, 7)),
        interval_w_before=glorot_uniform(rng, 1, n_pois, (n_pois,)),
        interval_w_after=glorot_uniform(rng, 1, n_pois, (n_pois,)),
        out_weights=glorot_uniform(rng, h, n_pois, (n_pois, h)),
    )


def zero_params(hp: HyperParams, n_users: int, n_pois: int) -> ModelParams:
    d, h, w = hp.d, hp.h, hp.w
    z = np.zeros
    return ModelParams(
        poi_emb=z((n_pois, d)),
        user_emb=z((n_users, d)),
        fwd_hidden=[z((h, d)) for _ in range(w)],
        bwd_hidden=[z((h, d)) for _ in range(w)],
        user_hidden=z((h, d)),
        time_hidden=z((h, 7)),
        interval_w_before=z(n_pois),
        interval_w_after=z(n_pois),
        out_weights=z((n_pois, h)),
    )


@dataclass
class BatchTrace:
    """Every intermediate of one batched forward evaluation, kept for backprop.

    Row i belongs to sample i of `samples`. Branch fields are None when the
    variant gates them off. Spatial rows are the read-only arrays the cache
    (or `spatial_vector`) returned, one reference per sample, never stacked.
    The (B x M) interval gates are not kept: backward recomputes them, which
    costs less than the memory they would hold.
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
    """One sample's forward evaluation: a one-row BatchTrace plus probabilities.

    Any other BatchTrace field reads as its single row.
    """

    sample: Sample
    variant: VariantConfig
    batch: BatchTrace
    logits: np.ndarray  # (M,)
    probs: np.ndarray  # (M,)
    dep_before: np.ndarray | None  # (M,) spatial row * interval gate
    dep_after: np.ndarray | None

    def __getattr__(self, name: str):
        if name.startswith("_") or name == "batch":  # not yet set (copy, unpickle)
            raise AttributeError(name)
        value = getattr(self.batch, name)
        return None if value is None else value[0]


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


def interval_gate(weights: np.ndarray, interval: np.ndarray) -> np.ndarray:
    """(B, M) tanh(interval_w * interval), one row per sample's interval."""
    gate = np.multiply.outer(interval, weights)
    return np.tanh(gate, out=gate)


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
        for row, gate_row, out in zip(rows, interval_gate(weights, interval), logits):
            out += row * gate_row
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
    logits = batch.logits[0]

    def dependence(rows, weights, interval):
        return None if rows is None else rows[0] * interval_gate(weights, interval)[0]

    return ForwardTrace(
        sample, variant, batch, logits, stable_softmax(logits),
        dep_before=dependence(batch.spat_before, params.interval_w_before,
                              batch.samples.interval_before),
        dep_after=dependence(batch.spat_after, params.interval_w_after,
                             batch.samples.interval_after),
    )


def cross_entropy(trace: ForwardTrace, target: int) -> float:
    """-log p(target), fused log-sum-exp over the logits."""
    return -log_softmax_at(trace.logits, target)


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
    """The model gave a non-finite probability; its parameters are unusable."""


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
    so ties (and underflows to 0.0) fall exactly as they do there.
    """
    ranks = np.empty(len(batch), dtype=np.int64)
    cols = np.arange(params.n_pois)
    for lo in range(0, len(batch), RANK_CHUNK):
        chunk = batch.take(slice(lo, lo + RANK_CHUNK))
        p = forward_batch(chunk, params, table, variant, cache).logits
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
    """Binary checkpoint: magic, 5 uint32 LE dims (N, M, d, h, w), then all
    tensors as little-endian float64 in `named_tensors` order."""
    hp = params.hyper
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<5I", params.n_users, params.n_pois, hp.d, hp.h, hp.w))
        for _, tensor in params.named_tensors():
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


class BadCheckpoint(ValueError):
    """Checkpoint file is corrupt or carries the wrong magic."""


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise BadCheckpoint(f"{path}: bad magic {magic!r}")
        header = fh.read(20)
        if len(header) != 20:
            raise BadCheckpoint(f"{path}: truncated header")
        n, m, d, h, w = struct.unpack("<5I", header)
        # zero_params' tensors, counted before any of them is allocated
        values = (m + n + (2 * w + 1) * h) * d + 7 * h + (2 + h) * m
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != 8 * values:
            raise BadCheckpoint(f"{path}: header (N={n}, M={m}, d={d}, h={h}, w={w}) implies "
                                f"{8 * values} bytes of tensors, the file holds {payload}")
        params = zero_params(HyperParams(d=d, h=h, w=w), n, m)
        for _, tensor in params.named_tensors():
            tensor[...] = np.frombuffer(fh.read(tensor.size * 8), dtype="<f8").reshape(tensor.shape)
    return params


def expect_compatible(params: ModelParams, n_users: int, n_pois: int, w: int) -> None:
    """Raise ShapeMismatch unless the checkpoint fits the corpus."""
    hp = params.hyper
    if (params.n_users, params.n_pois, hp.w) != (n_users, n_pois, w):
        raise ShapeMismatch(
            f"checkpoint (N={params.n_users}, M={params.n_pois}, w={hp.w}) does not "
            f"match corpus (N={n_users}, M={n_pois}, w={w})"
        )

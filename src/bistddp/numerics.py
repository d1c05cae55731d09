"""Dense numeric kernels, deterministic randomness, and `freeze`.

All tensors in this package are row-major float64 numpy arrays. Randomness
comes from numpy's PCG64 generator, which produces identical streams for
identical seeds on every platform; independent sub-streams are derived
through SeedSequence spawning so parallel consumers never share state.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible."""


def freeze(value):
    """`value`, with the array it is, or each array it holds, marked read-only; no copy."""
    for held in [value] if isinstance(value, np.ndarray) else vars(value).values():
        if isinstance(held, np.ndarray):
            held.setflags(write=False)
    return value


class Frozen:
    """Base of a frozen dataclass whose constructor `freeze`s what it holds."""

    __post_init__ = freeze


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator, the single RNG family used by this repo."""
    return np.random.Generator(np.random.PCG64(seed))


def seeded_generators(seed: int, n: int) -> list[np.random.Generator]:
    """Derive `n` independent deterministic child generators from one seed."""
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(s)) for s in root.spawn(n)]


def stable_softmax(z) -> np.ndarray:
    """Softmax with max-subtraction; safe for arbitrarily large inputs."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def softmax_cross_entropy(z: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row-wise -log(softmax(z[i])[index[i]]) of the 2-D logits z, in place.

    Overwrites each row of z with its softmax and returns the losses in
    fused log-sum-exp form: never the log of a stored probability, so they
    stay finite when a distribution saturates.
    """
    z -= z.max(axis=1, keepdims=True)
    picked = z[np.arange(z.shape[0]), index]
    np.exp(z, out=z)
    total = z.sum(axis=1)
    z /= total[:, None]
    return np.log(total) - picked


def glorot_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int, out: np.ndarray
) -> np.ndarray:
    """Fill the C-contiguous float64 array `out` in place, uniform on [-L, L]
    with L = sqrt(6 / (fan_in + fan_out)), and return it. The draws have
    the bits of `rng.uniform(-L, L, out.shape)`, which computes -L + 2L * U
    from the same stream of U, without its temporary."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be positive, got {fan_in}, {fan_out}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    rng.random(out=out)
    out *= 2 * limit
    out -= limit
    return out

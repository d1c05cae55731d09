"""Dense numeric kernels, deterministic randomness, `freeze`, `behind`, and
the package's two failure types, `BadInput` and `Diverged`.

All tensors in this package are row-major float64 numpy arrays. Randomness
comes from numpy's PCG64 generator, which produces identical streams for
identical seeds on every platform; independent sub-streams are derived
through SeedSequence spawning so parallel consumers never share state.
`behind` runs one matrix product on a worker thread while the calling
thread does other work.
"""

from __future__ import annotations

import os
import queue
import threading

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible."""


class BadInput(ValueError):
    """A value from outside the program is unusable: a file, a config value or
    flag, or an argument to a public constructor. The CLI exits 2 on it."""


class Diverged(RuntimeError):
    """The model's parameters gave a non-finite loss or score, or overflowed in
    training or ranking; they are no longer usable. The CLI exits 1 on it."""


def freeze(value):
    """`value`, with the array it is, or each array it holds, marked read-only
    together with every ndarray it is a view of; no copy."""
    for held in [value] if isinstance(value, np.ndarray) else vars(value).values():
        while isinstance(held, np.ndarray):
            held.setflags(write=False)
            held = held.base
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


class _Worker:
    """A daemon thread that runs one callable at a time, handed over with the
    error state (`np.geterr`, `np.geterrcall`) of the thread that hands it
    over: before numpy 2.0 that state is per thread, since then a context
    variable that a new thread does not inherit."""

    def __init__(self):
        self.lock = threading.Lock()  # held while a callable is handed over and not yet joined
        self._todo, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        threading.Thread(target=self._serve, name="bistddp-behind", daemon=True).start()

    def _serve(self) -> None:
        while True:
            fn, call, err = self._todo.get()
            try:
                with np.errstate(call=call, **err):
                    outcome = fn(), None
            except BaseException as exc:  # the joining caller raises it
                outcome = None, exc
            self._done.put(outcome)
            del fn, outcome  # or they keep what the caller frees alive until the next call

    def start(self, fn) -> None:
        self._todo.put((fn, np.geterrcall(), np.geterr()))

    def join(self):
        """(result, None) or (None, the exception) of the callable last started."""
        return self._done.get()


_worker: _Worker | None = None
_worker_made = threading.Lock()


def _the_worker() -> _Worker:
    global _worker
    with _worker_made:
        if _worker is None:
            _worker = _Worker()
        return _worker


def _forget_worker() -> None:
    global _worker, _worker_made
    _worker, _worker_made = None, threading.Lock()  # a forked child has no worker thread


os.register_at_fork(after_in_child=_forget_worker)


class behind:
    """`with behind(background) as job:` calls `background()` on the
    package's one worker thread while the block runs on the calling thread,
    and sets `job.result` to what it returned once both have finished. The
    worker starts on first use. `__exit__` always joins it: an exception
    from the block propagates after `background` has returned, and one
    from `background` is raised from the `with` statement.

    Callers keep the two sides apart: `background` runs only a BLAS
    product, into memory the block neither reads nor writes, and the block
    calls no BLAS. The operations on every element are then the serial
    order's, so results do not depend on the thread. While the worker is
    taken (by another thread, or by an enclosing block) `background` runs
    first, inline, which gives the same bits.
    """

    def __init__(self, background):
        self.background = background
        self.result = None
        self._worker: _Worker | None = None

    def __enter__(self) -> "behind":
        worker = _the_worker()
        if worker.lock.acquire(blocking=False):
            worker.start(self.background)
            self._worker = worker
        else:
            self.result = self.background()
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if self._worker is None:
            return
        # an interrupt in join keeps the lock, so no later block reads this
        # callable's outcome as its own: they all run inline
        self.result, error = self._worker.join()
        self._worker.lock.release()
        if error is not None and exc is None:
            raise error

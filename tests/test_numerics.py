import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistddp import numerics
from bistddp.numerics import (
    behind,
    glorot_uniform,
    make_rng,
    seeded_generators,
    softmax_cross_entropy,
    stable_softmax,
)


def test_softmax_uniform_on_zeros():
    for m in (2, 7, 100):
        np.testing.assert_allclose(stable_softmax(np.zeros(m)), np.full(m, 1.0 / m), rtol=1e-15)


def test_softmax_no_overflow():
    out = stable_softmax(np.array([1000.0, 1000.0]))
    np.testing.assert_allclose(out, [0.5, 0.5], rtol=1e-15)


def test_softmax_closed_form():
    out = stable_softmax(np.array([0.0, math.log(3.0)]))
    np.testing.assert_allclose(out, [0.25, 0.75], rtol=1e-12)


# shifts by integers keep every z_i + c exactly representable, which is the
# regime where bitwise shift invariance is even meaningful
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=30),
       st.integers(min_value=-100, max_value=100))
@settings(max_examples=200)
def test_softmax_shift_invariant_bitwise(values, shift):
    z = np.array(values, dtype=np.float64)
    np.testing.assert_array_equal(stable_softmax(z), stable_softmax(z + float(shift)))


# rounding error of z + shift grows with ulp(shift), so keep shifts moderate
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
       st.floats(min_value=-1000, max_value=1000))
@settings(max_examples=200)
def test_softmax_shift_invariant_to_rounding(values, shift):
    z = np.array(values)
    np.testing.assert_allclose(stable_softmax(z), stable_softmax(z + shift), rtol=1e-12, atol=1e-15)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=20))
@settings(max_examples=200)
def test_softmax_sums_to_one_and_is_monotone(values):
    z = np.array(values)
    out = stable_softmax(z)
    assert abs(out.sum() - 1.0) < 1e-12
    for i in range(len(z)):
        for j in range(len(z)):
            if z[i] < z[j]:
                assert out[i] <= out[j]


def test_log_softmax_fused_matches_direct():
    z = np.array([[0.0, math.log(3.0)]])
    assert -softmax_cross_entropy(z, np.array([0]))[0] == pytest.approx(math.log(0.25), rel=1e-12)
    # saturated logits stay finite in fused form
    z = np.array([[0.0, 800.0]])
    assert math.isfinite(softmax_cross_entropy(z, np.array([0]))[0])


def test_glorot_limit_value():
    # fans 64 and 256: limit = sqrt(6/320)
    limit = math.sqrt(6.0 / 320.0)
    assert limit == pytest.approx(0.1369306393762915, rel=1e-12)
    sample = glorot_uniform(make_rng(2), 64, 256, np.empty((200, 40)))
    assert np.abs(sample).max() <= limit


def test_glorot_deterministic():
    a = glorot_uniform(make_rng(3), 8, 8, np.empty((5, 5)))
    b = glorot_uniform(make_rng(3), 8, 8, np.empty((5, 5)))
    np.testing.assert_array_equal(a, b)


def test_glorot_rejects_bad_fans():
    with pytest.raises(ValueError):
        glorot_uniform(make_rng(0), 0, 4, np.empty((2, 2)))


def test_tanh_odd_and_bounded():
    rng = make_rng(4)
    # past |x| ~ 19 float64 tanh rounds to exactly 1, so probe below that
    x = rng.uniform(-15, 15, 1000)
    np.testing.assert_allclose(np.tanh(-x), -np.tanh(x), atol=1e-15)
    assert np.all(np.abs(np.tanh(x)) < 1.0)


def test_seeded_generators_independent_and_reproducible():
    a1, b1 = seeded_generators(9, 2)
    a2, b2 = seeded_generators(9, 2)
    np.testing.assert_array_equal(a1.uniform(size=5), a2.uniform(size=5))
    np.testing.assert_array_equal(b1.uniform(size=5), b2.uniform(size=5))
    # the two child streams are distinct
    assert not np.array_equal(seeded_generators(9, 2)[0].uniform(size=5),
                              seeded_generators(9, 2)[1].uniform(size=5))


def test_behind_raises_a_background_overflow_as_the_callers_error_state_says():
    big = np.full((2, 2), 1e300)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            with behind(lambda: big @ big):
                pass
    with pytest.warns(RuntimeWarning, match="overflow"):  # numpy's default: warn, not raise
        with behind(lambda: big @ big) as job:
            pass
    assert np.isinf(job.result).all()


def test_an_exception_in_the_block_propagates_after_background_has_finished():
    out = np.zeros(3)

    def slow_write():
        time.sleep(0.2)
        out[:] = 1.0

    with pytest.raises(KeyError, match="block"):
        with behind(slow_write):
            raise KeyError("block")
    assert out.tolist() == [1.0, 1.0, 1.0]
    assert not numerics._the_worker().lock.locked()  # the worker is idle


def test_every_background_runs_on_one_worker_thread_unless_it_is_taken():
    caller, threads = threading.get_ident(), set()
    for _ in range(3):
        with behind(threading.get_ident) as outer:
            with behind(threading.get_ident) as inner:  # the worker is taken: inline
                pass
        threads.add(outer.result)
        assert inner.result == caller
    assert len(threads) == 1 and caller not in threads


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_starts_no_thread():
    assert run_python("import threading, bistddp; print(threading.active_count())") == "1\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_gets_a_worker_of_its_own():
    # the parent's worker thread does not survive the fork; a child that
    # handed its product to the parent's worker would wait for ever (the
    # alarm ends it)
    code = """if True:
        import os, signal, threading
        from bistddp.numerics import behind
        with behind(threading.get_ident) as job:
            pass
        pid = os.fork()
        if pid == 0:
            signal.alarm(20)
            with behind(threading.get_ident) as job:
                pass
            os._exit(0 if job.result != threading.get_ident() else 1)
        print(os.waitpid(pid, 0)[1])
    """
    assert run_python(code) == "0\n"

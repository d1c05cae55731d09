import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistddp.numerics import (
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

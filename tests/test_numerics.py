"""Dense kernels: matmul, stable softmax, the leaky-ReLU gate."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fsnet.numerics import DimensionError, leaky_gate, matmul, softmax


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(np.eye(2), a), a)


def test_matmul_hand_example():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0], [6.0]])
    assert np.array_equal(matmul(a, b), np.array([[17.0], [39.0]]))


def test_matmul_zero_annihilates():
    z = np.zeros((3, 4))
    b = np.arange(20.0).reshape(4, 5)
    assert np.array_equal(matmul(z, b), np.zeros((3, 5)))


def test_matmul_dimension_error_is_descriptive():
    with pytest.raises(DimensionError, match="3"):
        matmul(np.zeros((2, 3)), np.zeros((4, 5)))


def test_softmax_uniform_on_equal_inputs():
    assert np.allclose(softmax(np.zeros(3)), np.full(3, 1.0 / 3.0))


def test_softmax_stable_for_large_inputs():
    p = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(p))
    assert p[0] > 0.999999 and p[1] < 1e-6


def test_softmax_closed_form_on_log_inputs():
    p = softmax(np.log(np.array([1.0, 2.0, 3.0])))
    assert np.allclose(p, np.array([1.0, 2.0, 3.0]) / 6.0, atol=1e-15)


def test_softmax_rows_and_columns():
    x = np.arange(6.0).reshape(2, 3)
    assert np.allclose(softmax(x, axis=1).sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(softmax(x, axis=0).sum(axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("axis", [0, 1])
def test_softmax_in_place_gives_the_bytes_of_the_fresh_result(order, axis):
    x = np.asarray(np.random.default_rng(0).normal(size=(6, 3000)) * 5.0, order=order)
    fresh = softmax(x, axis=axis)
    p = softmax(x, axis=axis, out=x)
    assert p is x
    assert (p.strides, p.tobytes()) == (fresh.strides, fresh.tobytes())


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("axis", [0, 1])
def test_softmax_flushes_outputs_below_the_smallest_normal(order, axis):
    tiny = np.finfo(np.float64).tiny
    # rows spanning 800 > 745: the plain exp-and-divide gives subnormals
    # (inputs 708-745 below the max) and underflows to 0 further down
    x = np.linspace(0.0, -800.0, 3201)[None, :] + np.arange(4.0)[:, None]
    x = np.asarray(x if axis == 1 else x.T, order=order)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    plain = e / e.sum(axis=axis, keepdims=True)
    subnormal = (plain > 0.0) & (plain < tiny)
    assert subnormal.any()
    p = softmax(x, axis=axis)
    assert not ((p > 0.0) & (p < tiny)).any()
    assert np.array_equal(p[plain < tiny], np.zeros(int((plain < tiny).sum())))
    assert p[plain >= tiny].tobytes() == plain[plain >= tiny].tobytes()
    q = softmax(x, axis=axis, out=x)
    assert (q.strides, q.tobytes()) == (p.strides, p.tobytes())


def test_softmax_empty_errors():
    with pytest.raises(ValueError):
        softmax(np.array([]))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
def test_softmax_simplex_property(values):
    p = softmax(np.array(values))
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p > 0.0)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20), st.floats(-100, 100))
def test_softmax_shift_invariance(values, shift):
    v = np.array(values)
    assert np.allclose(softmax(v), softmax(v + shift), atol=1e-12)


_TINY_SUB = np.nextafter(0.0, 1.0)  # the smallest subnormal double


@pytest.mark.parametrize("slope", [0.01, 0.2])
def test_leaky_gate_cases(slope):
    z = np.array([0.0, -0.0, np.inf, -np.inf, _TINY_SUB, -_TINY_SUB, 1.0, -1.0])
    gate = leaky_gate(z, slope)
    assert gate.dtype == np.float64
    assert gate.tolist() == [1.0, 1.0, 1.0, slope, 1.0, slope, 1.0, slope]


@pytest.mark.parametrize("slope", [0.01, 0.2])
def test_leaky_gate_times_z_is_the_leaky_relu_to_the_byte(slope):
    # x * 1.0 is x, -0.0 included, and x * slope is slope * x
    z = np.array([[0.0, -0.0, np.inf, -np.inf], [_TINY_SUB, -_TINY_SUB, 1.0, -1.0]])
    leaky = z * leaky_gate(z, slope)
    assert leaky.tobytes() == np.where(z >= 0.0, z, slope * z).tobytes()
    assert np.signbit(leaky[0, 1])


def test_leaky_gate_is_a_fresh_array_shaped_like_z():
    z = np.array([[-2.0, 3.0], [0.0, -0.5]])
    gate = leaky_gate(z, 0.1)
    assert gate.shape == z.shape and not np.shares_memory(gate, z)
    assert np.array_equal(z * gate, np.array([[-0.2, 3.0], [0.0, -0.05]]))

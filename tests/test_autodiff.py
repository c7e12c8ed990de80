"""Reverse-mode tape: per-operation gradient checks against central finite
differences, plus graph bookkeeping contracts."""

import gc
import weakref

import numpy as np
import pytest

from fsnet import autodiff as ad
from fsnet.autodiff import Tape, grad
from fsnet.rng import RngState

from helpers import central_diff, max_rel_err

TOL = 1e-4


def _fresh(build, arrays):
    tape = Tape()
    return build(tape, [tape.leaf(a) for a in arrays])


def check_against_fd(build, arrays, step=1e-5, tol=TOL):
    """build(tape, leaves) -> scalar node; rebuilt per FD evaluation so in-place
    perturbations of `arrays` propagate."""
    tape = Tape()
    leaves = [tape.leaf(a) for a in arrays]
    loss = build(tape, leaves)
    grads = grad(tape, loss)
    fd = central_diff(lambda: float(_fresh(build, arrays).value), arrays, step)
    for leaf, g_fd in zip(leaves, fd):
        assert max_rel_err(grads[leaf], g_fd) < tol


def test_square_scalar_gradient():
    tape = Tape()
    x = tape.leaf(np.array(3.0))
    loss = ad.square(x)
    g = grad(tape, loss)
    assert np.allclose(g[x], 6.0)


def test_softmax_component_gradient_closed_form():
    # d softmax(v)[0] / dv at v = [0, 0] is [0.25, -0.25]
    tape = Tape()
    v = tape.leaf(np.array([[0.0, 0.0]]))
    p = ad.softmax(v, axis=1)
    loss = ad.sum_all(ad.mul(p, tape.leaf(np.array([[1.0, 0.0]]))))
    g = grad(tape, loss)
    assert np.allclose(g[v], np.array([[0.25, -0.25]]))


def test_matmul_gradients():
    rng = RngState(1)
    a, b = rng.normal((3, 4)), rng.normal((4, 2))
    check_against_fd(lambda t, ls: ad.sum_all(ad.square(ad.matmul(ls[0], ls[1]))), [a, b])


def test_transpose_add_sub_mul_scale_gradients():
    rng = RngState(2)
    a, b = rng.normal((3, 3)), rng.normal((3, 3))

    def build(t, ls):
        x = ad.add(ls[0], ad.transpose(ls[1]))
        y = ad.sub(x, ad.mul(ls[0], ls[1]))
        return ad.sum_all(ad.square(ad.scale(y, 1.7)))

    check_against_fd(build, [a, b])


def test_add_row_gradient():
    rng = RngState(3)
    a, row = rng.normal((5, 4)), rng.normal(4)
    check_against_fd(lambda t, ls: ad.sum_all(ad.square(ad.add_row(ls[0], ls[1]))), [a, row])


def test_leaky_tanh_log_clip_gradients():
    rng = RngState(4)
    a = rng.normal((4, 4))

    def build(t, ls):
        x = ad.leaky_relu(ls[0], 0.2)
        y = ad.tanh(x)
        z = ad.log(ad.clip_min(ad.square(y), 1e-3))
        return ad.sum_all(z)

    check_against_fd(build, [a])


@pytest.mark.parametrize("slope", [0.01, 0.2])
def test_leaky_relu_value_and_gradient_equal_the_where_expressions(slope):
    # the bytes of the expressions the tape op used before numerics.leaky_gate
    tiny = np.nextafter(0.0, 1.0)
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1.0, -1.0], RngState(9).normal(24)
    ]).reshape(4, 8)
    g = RngState(10).normal((4, 8))
    tape = Tape()
    leaf = tape.leaf(x)
    node = ad.leaky_relu(leaf, slope)
    assert node.value.tobytes() == np.where(x >= 0.0, x, slope * x).tobytes()
    assert node._backward(g)[0].tobytes() == (g * np.where(x >= 0.0, 1.0, slope)).tobytes()


def test_softmax_axis_gradients():
    rng = RngState(5)
    a = rng.normal((3, 5))
    w0 = rng.normal((3, 5))
    w1 = rng.normal((3, 5))
    check_against_fd(
        lambda t, ls: ad.sum_all(ad.mul(ad.softmax(ls[0], axis=0), t.leaf(w0))), [a]
    )
    check_against_fd(
        lambda t, ls: ad.sum_all(ad.mul(ad.softmax(ls[0], axis=1), t.leaf(w1))), [a]
    )


def test_pick_gradient_scatters_to_chosen_entries():
    rng = RngState(6)
    a = rng.normal((4, 3))
    idx = [2, 0, 1, 1]
    check_against_fd(lambda t, ls: ad.sum_all(ad.square(ad.pick(ls[0], idx))), [a])


def test_pick_out_of_range():
    tape = Tape()
    a = tape.leaf(np.zeros((2, 3)))
    with pytest.raises(IndexError):
        ad.pick(a, [0, 3])


def test_diamond_graph_accumulates_both_paths():
    # f(x) = sum(x*x + x*x): two paths into the same leaf must both contribute
    tape = Tape()
    x = tape.leaf(np.array([[2.0]]))
    y = ad.add(ad.mul(x, x), ad.mul(x, x))
    g = grad(tape, ad.sum_all(y))
    assert np.allclose(g[x], 8.0)


def test_unreached_leaf_gets_zero_gradient():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    unused = tape.leaf(np.ones(3))
    g = grad(tape, ad.sum_all(ad.square(x)))
    assert np.array_equal(g[unused], np.zeros(3))


def test_backward_requires_scalar_loss():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        grad(tape, ad.square(x))


def test_cross_tape_operands_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones((2, 2)))
    b = t2.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_graph_is_freed_without_the_cyclic_collector():
    # no reference cycle between a tape and its nodes, so a training epoch's
    # graph goes as soon as its last reference does
    gc.disable()
    try:
        tape = Tape()
        x = tape.leaf(np.ones((3, 2)))
        h = ad.matmul(x, ad.transpose(x))
        g = grad(tape, ad.sum_all(ad.square(h)))
        tape_ref, value_ref = weakref.ref(tape), weakref.ref(h.value)
        del tape, x, h, g
        assert tape_ref() is None
        assert value_ref() is None
    finally:
        gc.enable()


def test_operand_of_a_freed_tape_rejected():
    x = Tape().leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.square(x)


def test_mul_shape_mismatch_rejected():
    tape = Tape()
    a = tape.leaf(np.ones((2, 2)))
    b = tape.leaf(np.ones((2, 3)))
    with pytest.raises(Exception):
        ad.mul(a, b)


def test_composite_graph_matches_fd():
    # a miniature of the real network: matmul -> leaky -> matmul -> softmax -> pick -> log
    rng = RngState(7)
    x = rng.normal((6, 5))
    w1, w2 = rng.normal((4, 5)), rng.normal((3, 4))
    y = [0, 1, 2, 0, 1, 2]

    def build(t, ls):
        h = ad.leaky_relu(ad.matmul(t.leaf(x), ad.transpose(ls[0])), 0.2)
        p = ad.softmax(ad.matmul(h, ad.transpose(ls[1])), axis=1)
        return ad.scale(ad.sum_all(ad.log(ad.clip_min(ad.pick(p, y), 1e-12))), -1.0)

    check_against_fd(build, [w1, w2])

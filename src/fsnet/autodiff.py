"""Reverse-mode differentiation over an explicitly recorded operation tape.

Nodes are appended in evaluation order, which is already a topological order
of the graph, so the backward pass is a single reverse sweep that visits each
node exactly once. Only the operations needed by the selection / encoder /
classifier / decoder / reconstruction graph are provided; this is not a
general-purpose autodiff system.

Training does not run on the tape: trainer.LossPass writes the same forward
and backward out by hand. The tape stays as its reference. Tests and the
benchmark's traced replay of the training loop differentiate
trainer.build_loss_graph with it and require the loss, the gradients and
the trained model to equal LossPass's byte for byte.

A tape owns its nodes, but a node refers back to its tape only weakly, so a
graph holds no reference cycle: it is freed as soon as the last reference to
its tape and nodes goes, without waiting for the cyclic garbage collector.

A leaf keeps the float dtype of its value (other values become float64), and
every op computes in its operands' dtype.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np

from . import numerics


class Node:
    """One recorded value: forward result plus the closure that maps the
    incoming gradient to per-parent gradient contributions."""

    __slots__ = ("value", "_parents", "_backward", "_tape_ref")

    def __init__(self, value, parents, backward, tape_ref):
        self.value: np.ndarray = value
        self._parents: tuple["Node", ...] = parents
        self._backward: Callable | None = backward
        self._tape_ref: weakref.ref = tape_ref

    @property
    def _tape(self) -> "Tape":
        tape = self._tape_ref()
        if tape is None:
            raise ValueError("the tape this node was recorded on no longer exists")
        return tape

    @property
    def is_leaf(self) -> bool:
        return self._backward is None

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "op"
        return f"Node({kind}, shape={self.value.shape})"


class Tape:
    """Recorded primitive operations with forward values and backward closures."""

    def __init__(self):
        self._nodes: list[Node] = []
        self._ref = weakref.ref(self)

    def leaf(self, value) -> Node:
        node = Node(numerics.as_float(value), (), None, self._ref)
        self._nodes.append(node)
        return node

    def _record(self, value, parents: tuple[Node, ...], backward: Callable) -> Node:
        for p in parents:
            if p._tape_ref is not self._ref:
                raise ValueError("operand was recorded on a different tape")
        node = Node(np.asarray(value), parents, backward, self._ref)
        self._nodes.append(node)
        return node


def grad(tape: Tape, loss: Node) -> dict[Node, np.ndarray]:
    """Gradients of a recorded scalar with respect to every leaf on the tape.

    One reverse sweep over the tape: each node reached from `loss` passes
    its gradient to its backward closure, and the contributions to a parent
    are summed in sweep order. Leaves that do not influence the loss get
    zero gradients.
    """
    if loss._tape_ref is not tape._ref:
        raise ValueError("loss node was not recorded on this tape")
    if loss.value.size != 1:
        raise ValueError(f"backward target must be scalar, got shape {loss.value.shape}")
    grads = {loss: np.ones_like(loss.value)}
    for node in reversed(tape._nodes):
        g = grads.get(node)
        if g is None or node._backward is None:
            continue
        for parent, contrib in zip(node._parents, node._backward(g)):
            if contrib is None:
                continue
            prev = grads.get(parent)
            grads[parent] = contrib if prev is None else prev + contrib
    return {
        node: grads[node] if node in grads else np.zeros_like(node.value)
        for node in tape._nodes
        if node.is_leaf
    }


def _same_shape(a: Node, b: Node, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise numerics.DimensionError(
            f"{op} needs matching shapes, got {a.value.shape} and {b.value.shape}"
        )


def matmul(a: Node, b: Node) -> Node:
    out = numerics.matmul(a.value, b.value)
    av, bv = a.value, b.value
    return a._tape._record(out, (a, b), lambda g: (g @ bv.T, av.T @ g))


def transpose(a: Node) -> Node:
    return a._tape._record(a.value.T, (a,), lambda g: (g.T,))


def add(a: Node, b: Node) -> Node:
    _same_shape(a, b, "add")
    return a._tape._record(a.value + b.value, (a, b), lambda g: (g, g))


def sub(a: Node, b: Node) -> Node:
    _same_shape(a, b, "sub")
    return a._tape._record(a.value - b.value, (a, b), lambda g: (g, -g))


def mul(a: Node, b: Node) -> Node:
    _same_shape(a, b, "mul")
    av, bv = a.value, b.value
    return a._tape._record(av * bv, (a, b), lambda g: (g * bv, g * av))


def scale(a: Node, c: float) -> Node:
    c = float(c)
    return a._tape._record(a.value * c, (a,), lambda g: (g * c,))


def add_row(a: Node, row: Node) -> Node:
    """Broadcast-add a length-m row vector to every row of an n-by-m matrix."""
    if a.value.ndim != 2 or row.value.shape != (a.value.shape[1],):
        raise numerics.DimensionError(
            f"add_row needs (n, m) and (m,), got {a.value.shape} and {row.value.shape}"
        )
    return a._tape._record(a.value + row.value, (a, row), lambda g: (g, g.sum(axis=0)))


def leaky_relu(a: Node, slope: float) -> Node:
    """a * gate, backward g * gate, for gate = numerics.leaky_gate(a, slope)."""
    gate = numerics.leaky_gate(a.value, slope)
    return a._tape._record(a.value * gate, (a,), lambda g: (g * gate,))


def tanh(a: Node) -> Node:
    t = np.tanh(a.value)
    return a._tape._record(t, (a,), lambda g: (g * (1.0 - t * t),))


def log(a: Node) -> Node:
    av = a.value
    return a._tape._record(np.log(av), (a,), lambda g: (g / av,))


def clip_min(a: Node, floor: float) -> Node:
    """max(a, floor); gradient passes only where a exceeds the floor."""
    gate = a.value > floor
    return a._tape._record(np.maximum(a.value, floor), (a,), lambda g: (g * gate,))


def square(a: Node) -> Node:
    av = a.value
    return a._tape._record(av * av, (a,), lambda g: (2.0 * g * av,))


def softmax(a: Node, axis: int) -> Node:
    p = numerics.softmax(a.value, axis=axis)

    def backward(g):
        return (p * (g - np.sum(g * p, axis=axis, keepdims=True)),)

    return a._tape._record(p, (a,), backward)


def pick(a: Node, indices: Sequence[int]) -> Node:
    """Select a[i, indices[i]] for each row i of a 2-D node."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.value.ndim != 2 or idx.shape != (a.value.shape[0],):
        raise numerics.DimensionError(
            f"pick needs (n, m) values and n indices, got {a.value.shape} and {idx.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[1]):
        raise IndexError(f"pick index out of range for {a.value.shape[1]} columns")
    rows = np.arange(a.value.shape[0])
    shape, dtype = a.value.shape, a.value.dtype

    def backward(g):
        out = np.zeros(shape, dtype=dtype)
        out[rows, idx] = g
        return (out,)

    return a._tape._record(a.value[rows, idx], (a,), backward)


def sum_all(a: Node) -> Node:
    shape = a.value.shape
    return a._tape._record(np.sum(a.value), (a,), lambda g: (np.broadcast_to(g, shape),))

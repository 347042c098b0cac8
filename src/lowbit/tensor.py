"""Dense numpy-backed tensors with reverse-mode automatic differentiation.

The graph is built eagerly: every operation that sees at least one
gradient-requiring input gives its output a :class:`Node`, holding the
operands' nodes and a vector-Jacobian callback; an operation on
constants records nothing. The graph holds nodes, not values: each
callback closes over only the arrays it reads (a product its other
operand, a mean or a reshape only shapes), so an intermediate array dies
when the code that made it drops its Tensor, unless a VJP reads it.
``backward`` orders the reachable nodes topologically
(:func:`build_tape`) and replays them in reverse, so each node is
visited only after all of its consumers. It returns the gradients of
the tensors asked for and consumes the graph as it goes, so the arrays
a VJP reads are freed once it has run.

Tensors are treated as immutable once constructed; optimizers build
fresh leaves each step instead of mutating ``data`` in place. All data
is 64-bit float, which the numeric tolerances elsewhere in the toolkit
assume.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)

import numpy as np

from .errors import ContractError, ShapeError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Node:
    """One op's place in the graph: its operands' nodes, None for an
    operand that requires no gradient, and the VJP mapping the upstream
    gradient to one gradient per operand. A leaf has no operands and no
    VJP. A node holds no values: each VJP closes over the arrays it
    reads and nothing else, so an op's output lives only as long as the
    code that made it holds its Tensor, unless a VJP reads it."""

    __slots__ = ("parents", "vjp")

    def __init__(self, parents: tuple, vjp):
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """A dense array plus, when it requires a gradient, its graph node."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = Node((), None) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, node) -> Tensor:
    """An op's output; ``node`` is None when no operand requires a
    gradient. Every op yields float64, so only a reduction to a scalar
    needs converting, and a no-grad output (eval, targets, fp prefixes)
    costs no more than its data."""
    t = Tensor.__new__(Tensor)
    t.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    t._node = node
    return t


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _binary(out, a: Tensor, b: Tensor, da, db) -> Tensor:
    """The output of a two-operand op. ``da(g)`` and ``db(g)`` map the
    upstream gradient to each operand's, closing over only what they
    read; the node keeps neither for an operand that requires no
    gradient (weights in a probe, masks, epsilons), so that operand's
    gradient is None and the arrays only its function reads are not
    held. An op neither of whose operands requires one gets no node.
    """
    na, nb = a._node, b._node
    if na is None and nb is None:
        return _make(out, None)
    da = None if na is None else da
    db = None if nb is None else db
    sa, sb = a.shape, b.shape

    def vjp(g):
        return (None if da is None else _unbroadcast(da(g), sa),
                None if db is None else _unbroadcast(db(g), sb))

    return _make(out, Node((na, nb), vjp))


def custom(out, parents: tuple, vjp) -> Tensor:
    """An op with a hand-written VJP: ``vjp(g)`` returns one gradient
    per parent, shaped like the parent or broadcast to it. A parent that
    requires no gradient gets None, whatever ``vjp`` gives it. Only
    ``vjp`` and the parents' shapes are kept.
    """
    nodes = tuple(p._node for p in parents)
    if all(n is None for n in nodes):
        return _make(out, None)
    shapes = [None if n is None else p.shape for n, p in zip(nodes, parents)]

    def node_vjp(g):
        return tuple(None if s is None else _unbroadcast(pg, s)
                     for s, pg in zip(shapes, vjp(g)))

    return _make(out, Node(nodes, node_vjp))


def _unary(out, a: Tensor, vjp) -> Tensor:
    """The output of a one-operand op; no node when the operand needs
    no gradient."""
    return _make(out, None if a._node is None else Node((a._node,), vjp))


def _same(g):
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _binary(a.data + b.data, a, b, _same, _same)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    x, y = a.data, b.data
    return _binary(x * y, a, b, lambda g: g * y, lambda g: g * x)


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for a constant exponent."""
    a = _lift(a)
    x = a.data
    out = x ** p

    def vjp(g):
        return (g * p * x ** (p - 1.0),)

    return _unary(out, a, vjp)


# ---------------------------------------------------------------------------
# nonlinearities


@functools.cache
def _erf():
    """scipy's erf ufunc, loaded from the extension module that defines
    it. Importing the ``scipy.special`` package costs 0.2-0.3 s more,
    nearly all of it cloning numpy's namespace for its array-API layer,
    and numpy has no bit-equal erf. The module loads under its real
    name, so a later ``import scipy.special`` reuses it and exports this
    same ufunc; scipy releases without the module go through the
    package."""
    name = "scipy.special._special_ufuncs"
    module = sys.modules.get(name)
    if module is None:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        finder = FileFinder(os.path.join(root, "special"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU. With a gradient to pass, the forward also
    takes the slope ``cdf + x * pdf``, the one array the VJP reads."""
    a = _lift(a)
    x = a.data
    cdf = 0.5 * (1.0 + _erf()(x * _INV_SQRT2))
    out = x * cdf
    if not a.requires_grad:
        return _make(out, None)
    # cdf + x * (_INV_SQRT2PI * exp(-0.5 * x * x)), in place, with the
    # same ufuncs in the same order
    slope = np.multiply(-0.5, x)
    slope *= x
    np.exp(slope, out=slope)
    slope *= _INV_SQRT2PI
    slope *= x
    slope += cdf
    return _unary(out, a, lambda g: (g * slope,))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    a = _lift(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _unary(y, a, vjp)


# ---------------------------------------------------------------------------
# reductions


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    """Mean over ``axis``, or over all of ``a``; backward copies the
    upstream gradient, divided by the count, back over the reduced axis."""
    a = _lift(a)
    shape = a.shape
    count = a.data.size if axis is None else shape[axis]

    def vjp(g):
        g = g / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).astype(np.float64, copy=True),)

    return _unary(a.data.mean(axis=axis, keepdims=keepdims), a, vjp)


# ---------------------------------------------------------------------------
# shape and indexing


def reshape(a: Tensor, shape) -> Tensor:
    a = _lift(a)
    back = a.shape
    out = a.data.reshape(tuple(shape))

    def vjp(g):
        return (g.reshape(back),)

    return _unary(out, a, vjp)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; backward zero-pads."""
    a = _lift(a)
    if not 0 <= start <= start + length <= a.shape[axis]:
        raise ShapeError(
            f"narrow [{start}, {start + length}) outside axis of size {a.shape[axis]}")
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    shape = a.shape

    def vjp(g):
        grad = np.zeros(shape)
        grad[sl] = g
        return (grad,)

    return _unary(a.data[sl], a, vjp)


def transpose(a: Tensor, axes) -> Tensor:
    a = _lift(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inv),)

    return _unary(a.data.transpose(axes), a, vjp)


def take(a: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows along axis 0; ``indices`` may have any shape.

    Output shape is ``indices.shape + a.shape[1:]``. Backward
    scatter-adds, so repeated indices accumulate. This one primitive
    serves both embedding lookup and per-group scale expansion.
    """
    a = _lift(a)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError("take expects integer indices")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(
            f"take index out of range [0, {a.shape[0]}): "
            f"min={idx.min()} max={idx.max()}")
    out = a.data[idx]
    shape = a.shape

    def vjp(g):
        grad = np.zeros(shape)
        np.add.at(grad, idx.reshape(-1), g.reshape(idx.size, *shape[1:]))
        return (grad,)

    return _unary(out, a, vjp)


# ---------------------------------------------------------------------------
# matmul and loss


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    x, y = a.data, b.data
    shape = b.shape
    return _binary(x @ y, a, b, lambda g: g @ np.swapaxes(y, -1, -2),
                   lambda g: _matmul_db(g, x, shape))


def _matmul_db(g, x, shape):
    """The gradient of the right operand, of ``shape``, of ``x @ b``."""
    if len(shape) == 2 and x.ndim > 2:
        # a weight under batched activations: add each slice's (in, out)
        # product into one array, in the order _unbroadcast's sum over
        # the leading axes adds them (C order, from zero), instead of
        # building the (batch, in, out) stack first
        acc = np.zeros(shape)
        prod = np.empty(shape)
        for xi, gi in zip(x.reshape(-1, *x.shape[-2:]),
                          g.reshape(-1, *g.shape[-2:])):
            acc += np.matmul(xi.T, gi, out=prod)
        return acc
    return np.swapaxes(x, -1, -2) @ g


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets.

    logits: (N, V). targets: (N,) ints in [0, V). Uses a log-sum-exp
    stabilized forward; backward is (softmax - onehot) / N.
    """
    logits = _lift(logits)
    t = np.asarray(targets)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-d logits, got {logits.shape}")
    n, v = logits.shape
    if t.shape != (n,):
        raise ShapeError(f"targets shape {t.shape} does not match logits {logits.shape}")
    if t.size and (t.min() < 0 or t.max() >= v):
        raise IndexError(f"target id out of range [0, {v})")
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=-1, keepdims=True)
    logp = x - m - np.log(z)
    out = -logp[np.arange(n), t].mean()

    def vjp(g):
        p = e / z
        p[np.arange(n), t] -= 1.0
        return (g * p / n,)

    return _unary(out, logits, vjp)


# ---------------------------------------------------------------------------
# backward machinery


def build_tape(root: Node) -> list:
    """Every node under ``root``, parents before consumers.

    Iterating the list in reverse visits each node after all of its
    consumers have deposited their contributions. Reaching a node that
    an earlier ``backward`` consumed raises ContractError.
    """
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node is None or node in visited:
            continue
        if node.parents is None:
            raise ContractError("graph already consumed by backward")
        visited.add(node)
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def _accumulate(grads: dict, parents: tuple, parent_grads) -> None:
    for parent, pg in zip(parents, parent_grads):
        if pg is not None:
            acc = grads.get(parent)
            grads[parent] = pg if acc is None else acc + pg


def backward(loss: Tensor, wrt) -> dict:
    """The gradients of ``loss`` with respect to the tensors in ``wrt``.

    Returns exactly those gradients, keyed by tensor, zeros for one the
    loss does not reach, and consumes the graph: each node leaves the
    tape as its VJP runs, its gradient is dropped unless it is a node of
    ``wrt``, and it is unlinked from its parents and its VJP. So a
    node's gradient lives only until its parents have theirs, and the
    arrays its VJP reads only until that VJP has run. A second
    ``backward`` over the consumed graph raises ContractError.

    Every tape node holds a gradient by the time the reverse loop reaches
    it: the root starts with one, and each of its consumers, visited
    earlier, gives an array to every parent that requires a gradient
    (``_binary`` and ``custom`` give None only for a constant operand,
    and a unary op gets a node only when its operand requires a
    gradient).
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    root = loss._node
    if root is None:
        raise ContractError("loss does not depend on any gradient-requiring tensor")
    tape = build_tape(root)
    wrt = list(wrt)
    keep = {t._node for t in wrt}
    grads = {root: np.ones_like(loss.data)}
    while tape:
        node = tape.pop()
        g = grads[node] if node in keep else grads.pop(node)
        if node.vjp is not None:
            _accumulate(grads, node.parents, node.vjp(g))
            node.parents = node.vjp = None
        del node, g  # hold nothing into the next node's VJP
    return {t: grads[t._node] if t._node in grads else np.zeros_like(t.data)
            for t in wrt}

"""Dense numpy-backed tensors with reverse-mode automatic differentiation.

The graph is built eagerly: every operation that sees at least one
gradient-requiring input records its parents and a vector-Jacobian
callback on the output node; an operation on constants records nothing.
``backward`` orders the reachable nodes topologically
(:func:`build_tape`) and replays them in reverse, so each node is
visited only after all of its consumers. It returns the gradients of
the tensors asked for and consumes the graph as it goes, so the arrays
of a node are freed once no node upstream of it needs them.

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


class Tensor:
    """A dense array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

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


def _make(data, parents, vjp) -> Tensor:
    """An op's output node; ``vjp`` is None when no operand requires a
    gradient. Every op yields float64, so only a reduction to a scalar
    needs converting, and a no-grad node (eval, targets, fp prefixes)
    costs no more than its data."""
    t = Tensor.__new__(Tensor)
    t.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    t.requires_grad = vjp is not None
    t._parents = parents if vjp is not None else ()
    t._vjp = vjp
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


def _binary(a: Tensor, b: Tensor, out, da, db) -> Tensor:
    """The node of a two-operand op. ``da(g, a, b)`` and ``db(g, a, b)``
    map the upstream gradient to each operand's; an operand that
    requires no gradient (weights in a probe, masks, epsilons) gets None,
    and a node neither of whose operands requires one gets no VJP.
    """
    if not (a.requires_grad or b.requires_grad):
        return _make(out, (a, b), None)

    def vjp(g):
        return (_unbroadcast(da(g, a, b), a.shape) if a.requires_grad else None,
                _unbroadcast(db(g, a, b), b.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def custom(out, parents: tuple, vjp) -> Tensor:
    """A node with a hand-written VJP: ``vjp(g)`` returns one gradient
    per parent, shaped like the parent or broadcast to it. A parent that
    requires no gradient gets None, whatever ``vjp`` gives it.
    """
    if not any(p.requires_grad for p in parents):
        return _make(out, parents, None)

    def node_vjp(g):
        return tuple(_unbroadcast(pg, p.shape) if p.requires_grad else None
                     for p, pg in zip(parents, vjp(g)))

    return _make(out, parents, node_vjp)


def _unary(out, a: Tensor, vjp) -> Tensor:
    """The node of a one-operand op; no VJP for an operand that needs none."""
    return _make(out, (a,), vjp if a.requires_grad else None)


def _upstream(g, a, b):
    return g


def _times_b(g, a, b):
    return g * b.data


def _times_a(g, a, b):
    return g * a.data


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _binary(a, b, a.data + b.data, _upstream, _upstream)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _binary(a, b, a.data * b.data, _times_b, _times_a)


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for a constant exponent."""
    a = _lift(a)
    out = a.data ** p

    def vjp(g):
        return (g * p * a.data ** (p - 1.0),)

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
    """Exact (erf-based) GELU."""
    a = _lift(a)
    x = a.data
    cdf = 0.5 * (1.0 + _erf()(x * _INV_SQRT2))
    out = x * cdf

    def vjp(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        return (g * (cdf + x * pdf),)

    return _unary(out, a, vjp)


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


def _spread(g, a: Tensor, axis, keepdims) -> tuple:
    """VJP of a reduction of ``a`` over ``axis``: the upstream gradient
    copied back over the reduced axis (or over all of ``a``)."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=True),)


def sum_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    a = _lift(a)
    return _unary(a.data.sum(axis=axis, keepdims=keepdims), a,
                  lambda g: _spread(g, a, axis, keepdims))


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    a = _lift(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return _unary(a.data.mean(axis=axis, keepdims=keepdims), a,
                  lambda g: _spread(g / count, a, axis, keepdims))


# ---------------------------------------------------------------------------
# shape and indexing


def reshape(a: Tensor, shape) -> Tensor:
    a = _lift(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

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

    def vjp(g):
        grad = np.zeros_like(a.data)
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

    def vjp(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, idx.reshape(-1), g.reshape(idx.size, *a.shape[1:]))
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
    return _binary(a, b, a.data @ b.data, _matmul_da, _matmul_db)


def _matmul_da(g, a, b):
    return g @ np.swapaxes(b.data, -1, -2)


def _matmul_db(g, a, b):
    if b.ndim == 2 and a.ndim > 2:
        # a weight under batched activations: add each slice's (in, out)
        # product into one array, in the order _unbroadcast's sum over
        # the leading axes adds them (C order, from zero), instead of
        # building the (batch, in, out) stack first
        acc = np.zeros(b.shape)
        prod = np.empty(b.shape)
        for ai, gi in zip(a.data.reshape(-1, *a.shape[-2:]),
                          g.reshape(-1, *g.shape[-2:])):
            acc += np.matmul(ai.T, gi, out=prod)
        return acc
    return np.swapaxes(a.data, -1, -2) @ g


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


def build_tape(root: Tensor) -> list:
    """Every gradient-relevant node under ``root``, parents before consumers.

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
        if node in visited or not node.requires_grad:
            continue
        if node._parents is None:
            raise ContractError("graph already consumed by backward")
        visited.add(node)
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def _accumulate(grads: dict, parents: tuple, parent_grads) -> None:
    for parent, pg in zip(parents, parent_grads):
        if pg is not None:
            acc = grads.get(parent)
            grads[parent] = pg if acc is None else acc + pg


def backward(loss: Tensor, wrt) -> dict:
    """The gradients of ``loss`` with respect to the tensors in ``wrt``.

    Returns exactly those gradients, zeros for one the loss does not
    reach, and consumes the graph: each node leaves the tape as its VJP
    runs, its gradient is dropped unless it is in ``wrt``, and it is
    unlinked from its parents and its VJP. So a node's gradient lives
    only until its parents have theirs, and its forward arrays only
    until nothing upstream reads them. A second ``backward`` over the
    consumed graph raises ContractError.

    Every tape node holds a gradient by the time the reverse loop reaches
    it: the root starts with one, and each of its consumers, visited
    earlier, gives an array to every parent that requires a gradient
    (``_binary`` and ``custom`` give None only for a constant operand,
    and a unary op enters the graph only when its operand requires a
    gradient).
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not depend on any gradient-requiring tensor")
    tape = build_tape(loss)
    keep = set(wrt)
    grads = {loss: np.ones_like(loss.data)}
    while tape:
        node = tape.pop()
        g = grads[node] if node in keep else grads.pop(node)
        if node._vjp is not None:
            _accumulate(grads, node._parents, node._vjp(g))
            node._parents = node._vjp = None
        del node, g  # hold nothing into the next node's VJP
    for t in wrt:
        if t not in grads:
            grads[t] = np.zeros_like(t.data)
    return grads

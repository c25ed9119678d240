"""Dense float64 tensors with reverse-mode gradient accumulation.

Every public op records its gradient rule on the implicit computation
graph; calling ``backward`` on a scalar result accumulates into the
``grad`` buffer of every reachable Param. Inside ``no_grad()`` ops record
nothing: each result is a bare Tensor with no parents and no gradient rule,
so a forward-only pass keeps no inputs alive and builds no reference cycles.
The mode is kept per thread: ``no_grad`` in one thread leaves graph building
on in every other.
"""

from __future__ import annotations

import contextlib
from threading import get_ident

import numpy as np

# the threads inside ``no_grad``, by ident: while it is empty, as in training,
# an op reads the mode as one global, and otherwise it also reads its thread's ident
_no_grad_threads = set()


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block in this thread; nests, and restores the
    mode on exit."""
    ident = get_ident()
    if ident in _no_grad_threads:
        yield
        return
    _no_grad_threads.add(ident)
    try:
        yield
    finally:
        _no_grad_threads.discard(ident)


def grad_enabled():
    return get_ident() not in _no_grad_threads


class ShapeError(ValueError):
    pass


class Tensor:
    """A node in the computation graph wrapping a float64 ndarray."""

    __slots__ = ("data", "_parents", "_backward")

    def __init__(self, data, _parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        # the one read of the grad mode per op: its rule is kept only with parents
        self._parents = (() if _no_grad_threads and get_ident() in _no_grad_threads
                         else _parents)
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Param(Tensor):
    """Trainable tensor with a persistent gradient accumulator."""

    __slots__ = ("grad", "name")

    def __init__(self, data, name=""):
        super().__init__(data)
        self.grad = np.zeros_like(self.data)
        self.name = name

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.shape})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _record(out, backward):
    """Give an op's result its gradient rule; under ``no_grad`` the result has no
    parents and keeps none.

    Ops make their result before its rule. That order decides where the cyclic
    collector runs during training, which perfbench's host-speed probes pick up.
    """
    if out._parents:
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data, (a, b))

    def _bw(g, acc):
        acc(a, _unbroadcast(g, a.shape))
        acc(b, _unbroadcast(g, b.shape))

    return _record(out, _bw)


def mul(a, b):
    """Elementwise (Hadamard) product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data, (a, b))

    def _bw(g, acc):
        acc(a, _unbroadcast(g * b.data, a.shape))
        acc(b, _unbroadcast(g * a.data, b.shape))

    return _record(out, _bw)


def scale(a, c):
    a = _as_tensor(a)
    c = float(c)
    out = Tensor(a.data * c, (a,))
    return _record(out, lambda g, acc: acc(a, g * c))


def matmul(a, b):
    """Batched matrix product of operands with at least two axes each."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs operands of 2 or more axes: {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    out = Tensor(np.matmul(a.data, b.data), (a, b))

    def _bw(g, acc):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        acc(a, _unbroadcast(ga, a.shape))
        acc(b, _unbroadcast(gb, b.shape))

    return _record(out, _bw)


def _elementwise(a, fn, dfn):
    a = _as_tensor(a)
    out = Tensor(fn(a.data), (a,))
    # the rule reads ``out``, so each such node is a reference cycle
    return _record(out, lambda g, acc: acc(a, g * dfn(a.data, out.data)))


def sigmoid(a):
    return _elementwise(
        a,
        lambda x: 0.5 * (1.0 + np.tanh(0.5 * x)),
        lambda x, y: y * (1.0 - y),
    )


def tanh(a):
    return _elementwise(a, np.tanh, lambda x, y: 1.0 - y * y)


def relu(a):
    return _elementwise(a, lambda x: np.maximum(x, 0.0),
                        lambda x, y: (x > 0.0).astype(np.float64))


def leaky_relu(a):
    """Slope 0.1 below zero, as ``crossing.cross_block`` hard-codes."""
    return _elementwise(
        a,
        lambda x: np.where(x > 0.0, x, 0.1 * x),
        lambda x, y: np.where(x > 0.0, 1.0, 0.1),
    )


def absolute(a):
    # subgradient 0 at exactly-zero entries (lasso convention)
    return _elementwise(a, np.abs, lambda x, y: np.sign(x))


def power(a, p):
    p = float(p)
    return _elementwise(a, lambda x: x ** p, lambda x, y: p * x ** (p - 1.0))


def clip(a, lo, hi):
    # gradient passes through inside the range, zero where clamped
    return _elementwise(
        a,
        lambda x: np.clip(x, lo, hi),
        lambda x, y: ((x >= lo) & (x <= hi)).astype(np.float64),
    )


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def _bw(g, acc):
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        acc(a, np.broadcast_to(g, a.shape))     # a read-only view; acc never writes to it

    return _record(out, _bw)


def tmean(a):
    """Mean over every entry, as a scalar."""
    a = _as_tensor(a)
    return scale(tsum(a), 1.0 / a.data.size)


def softmax(a, axis=-1):
    """Numerically stable softmax (max-subtraction) along ``axis``."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, (a,))

    def _bw(g, acc):
        dot = (g * y).sum(axis=axis, keepdims=True)
        acc(a, y * (g - dot))

    return _record(out, _bw)


def reshape(a, shape):
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape), (a,))
    return _record(out, lambda g, acc: acc(a, g.reshape(a.shape)))


def transpose(a, axes):
    a = _as_tensor(a)
    out = Tensor(a.data.transpose(axes), (a,))
    inv = np.argsort(axes)
    return _record(out, lambda g, acc: acc(a, g.transpose(inv)))


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def _bw(g, acc):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            acc(t, piece)

    return _record(out, _bw)


def stack(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.stack([t.data for t in tensors], axis=axis), tuple(tensors))

    def _bw(g, acc):
        for i, t in enumerate(tensors):
            acc(t, np.take(g, i, axis=axis))

    return _record(out, _bw)


def slice_axis(a, axis, start, stop):
    a = _as_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Tensor(a.data[idx], (a,))

    return _record(out, lambda g, acc: acc(a, g, idx))


def pad_axis(a, axis, before, after):
    """Zero-pad along one axis."""
    a = _as_tensor(a)
    widths = [(0, 0)] * a.ndim
    widths[axis] = (before, after)
    out = Tensor(np.pad(a.data, widths), (a,))
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(before, before + a.shape[axis])
    idx = tuple(idx)
    return _record(out, lambda g, acc: acc(a, g[idx]))


# ---------------------------------------------------------------------------
# backward pass and optimization
# ---------------------------------------------------------------------------

def backward(loss):
    """Accumulate d(loss)/d(param) into every reachable Param's grad.

    ``loss`` must be a scalar. Intermediate gradients live only for the
    duration of this call; Param grads persist and add up across calls.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss._parents:
        raise ValueError("backward needs a loss built from a graph; this one has no "
                         "parents (a constant, a bare Param, or built under no_grad)")

    topo = []
    visited = set()
    stack_ = [(loss, False)]
    while stack_:
        node, processed = stack_.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack_.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack_.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}
    owned = set()    # ids whose buffer acc allocated, so it may add into it in place

    def acc(t, g, idx=None):
        """Add ``g`` to t's gradient, or to its ``idx`` region when given.

        A first contribution is kept as passed, since it may be an upstream
        array or a read-only view; the second makes a buffer of acc's own, and
        later ones add into it in place. Contributions are summed in arrival
        order, so the sums are those of allocating a new array for each.
        """
        if isinstance(t, Param):
            if idx is None:
                t.grad += g
            else:
                t.grad[idx] += g
        elif t._parents:
            key = id(t)
            if key not in grads:
                if idx is None:
                    grads[key] = g
                    return
                buf = np.zeros(t.shape)
                buf[idx] = g
            elif key in owned:
                if idx is None:
                    grads[key] += g
                else:
                    grads[key][idx] += g
                return
            elif idx is None:
                buf = grads[key] + g
            else:
                buf = grads[key].copy()
                buf[idx] += g
            grads[key] = buf
            owned.add(key)

    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None or node._backward is None:
            continue
        node._backward(g, acc)


def zero_grads(params):
    for p in params:
        p.grad[...] = 0.0


def sgd_step(params, lr):
    """Plain SGD: value -= lr * grad on every param."""
    for p in params:
        p.data -= lr * p.grad


def grad_check(f, params, step=1e-4, tol=1e-3):
    """Compare tape gradients of ``f()`` against central finite differences.

    ``f`` is a zero-argument callable returning a scalar Tensor built from
    the given params. Returns a dict with the max relative error over all
    parameter entries and pass/fail against ``tol``.
    """
    zero_grads(params)
    backward(f())
    analytic = [p.grad.copy() for p in params]

    max_rel = 0.0
    worst = None
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(f().data)
            flat[i] = orig - step
            lo = float(f().data)
            flat[i] = orig
            num = (hi - lo) / (2.0 * step)
            denom = max(abs(an_flat[i]), abs(num), 1e-8)
            rel = abs(an_flat[i] - num) / denom
            if rel > max_rel:
                max_rel = rel
                worst = (p.name, i, an_flat[i], num)
    zero_grads(params)
    return {"max_rel_err": max_rel, "tol": tol, "ok": max_rel <= tol, "worst": worst}

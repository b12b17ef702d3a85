"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole reproduction: the
paper's models were written in PyTorch, which is unavailable here, so we
implement the same mathematics — a define-by-run compute graph with
vectorized, broadcasting-aware backpropagation — on top of numpy.

The public entry point is :class:`Tensor`.  Operations build a graph;
``Tensor.backward()`` runs reverse-mode differentiation through it.

Example
-------
>>> x = Tensor([[1.0, 2.0]], requires_grad=True)
>>> y = (x * x).sum()
>>> y.backward()
>>> x.grad.tolist()
[[2.0, 4.0]]
"""

from __future__ import annotations

import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import backend as _backend
from .. import sanitize as _sanitize
from ..obs import prof as _prof

ArrayLike = Union[float, int, list, tuple, np.ndarray, "Tensor"]

_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction (like torch.no_grad)."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for backprop."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=_backend.active.compute_dtype)


class Tensor:
    """A numpy array plus an optional gradient and backward graph node.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array in the active backend's
        compute dtype (float64 on the paper-exact default backend,
        float32 under ``repro.backend`` ``"fast"``).
    requires_grad:
        If True, gradients are accumulated into ``self.grad`` on backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward_fns", "_parents",
                 "_stamp", "__weakref__")
    __array_priority__ = 100  # make numpy defer to our __radd__ etc.

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = np.asarray(_as_array(data),
                               dtype=_backend.active.compute_dtype)
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.grad: Optional[np.ndarray] = None
        # list of (parent, fn) where fn maps d(out) -> d(parent)
        self._backward_fns: List[Tuple["Tensor", Callable[[np.ndarray], np.ndarray]]] = []
        self._parents: Tuple["Tensor", ...] = ()
        # sanitizer version stamp of self.data, taken when this tensor
        # first feeds a tracked op; verified and cleared by backward()
        self._stamp = None
        mem = _prof._MEM
        if mem is not None:
            mem.track(self)

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new Tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None
        self._stamp = None

    # ------------------------------------------------------------------ #
    # graph building
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence[Tuple["Tensor", Callable[[np.ndarray], np.ndarray]]],
    ) -> "Tensor":
        """Create a graph node from op output + per-parent backward fns."""
        hooks = _prof._AUTOGRAD
        if hooks is not None:
            # sandwich timing: charge the wall time since the previous
            # attribution point to the op (caller) that built this node
            hooks.on_node(sys._getframe(1).f_code)
        track = _grad_enabled and any(p.requires_grad for p, _ in parents)
        out = Tensor(data, requires_grad=track)
        if track:
            out._backward_fns = [(p, fn) for p, fn in parents if p.requires_grad]
            out._parents = tuple(p for p, _ in out._backward_fns)
            if _sanitize._enabled:
                for p in out._parents:
                    if p._stamp is None:
                        p._stamp = _sanitize.buffer_stamp(p.data)
        return out

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (scalar outputs are the common case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = _as_array(grad).reshape(self.data.shape)

        topo: List[Tensor] = []
        visited = set()

        def build(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            seen_on_stack = {id(node)}
            while stack:
                current, it = stack[-1]
                advanced = False
                for parent in it:
                    if id(parent) not in visited and id(parent) not in seen_on_stack:
                        stack.append((parent, iter(parent._parents)))
                        seen_on_stack.add(id(parent))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    seen_on_stack.discard(id(current))
                    if id(current) not in visited:
                        visited.add(id(current))
                        topo.append(current)

        build(self)

        if _sanitize._enabled:
            for node in topo:
                if node._stamp is not None and \
                        node._stamp != _sanitize.buffer_stamp(node.data):
                    raise _sanitize.SanitizeViolation(
                        f"Tensor buffer (shape {node.data.shape}) was mutated "
                        f"in place between forward and backward; copy before "
                        f"mutating, or mutate under no_grad before the graph "
                        f"is built")
        for node in topo:
            node._stamp = None

        hooks = _prof._AUTOGRAD
        if hooks is not None:
            bwd_start = time.perf_counter()
            hooks.acc = 0.0

        # node id -> its gradient contributions in visit order, summed
        # once when the node is reached (see _sum_grads)
        grads = {id(self): [grad]}
        for node in reversed(topo):
            contribs = grads.pop(id(node), None)
            if contribs is None:
                continue
            if len(contribs) == 1 and type(contribs[0]) is not _RowGrad:
                node_grad, built = contribs[0], False
            elif hooks is not None and \
                    any(type(c) is _RowGrad for c in contribs):
                t0 = time.perf_counter()
                node_grad, built = _sum_grads(node.data, contribs)
                # the deferred scatters are gather_rows' backward work
                hooks.on_backward(Tensor.gather_rows,
                                  time.perf_counter() - t0)
            else:
                node_grad, built = _sum_grads(node.data, contribs)
            if not node._backward_fns:
                # leaf: accumulate (a sum built above is owned by nobody
                # else, so it needs no defensive copy)
                if node.grad is None:
                    node.grad = node_grad if built else node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            for parent, fn in node._backward_fns:
                if hooks is not None:
                    t0 = time.perf_counter()
                    contrib = fn(node_grad)
                    hooks.on_backward(fn, time.perf_counter() - t0)
                else:
                    contrib = fn(node_grad)
                pending = grads.get(id(parent))
                if pending is None:
                    grads[id(parent)] = [contrib]
                else:
                    pending.append(contrib)

        if hooks is not None:
            # topo sort + gradient accumulation: everything in this
            # backward() that the per-fn timings above did not cover
            hooks.prof._record_kernel(
                "bwd.graph_overhead",
                (time.perf_counter() - bwd_start) - hooks.acc)
            hooks.mark = time.perf_counter()

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def _coerce(self, other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data
        return Tensor._make(
            data,
            [
                (self, lambda g: _unbroadcast(g, self.shape)),
                (other, lambda g: _unbroadcast(g, other.shape)),
            ],
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, [(self, lambda g: -g)])

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data
        a, b = self, other
        return Tensor._make(
            data,
            [
                (a, lambda g: _unbroadcast(g * b.data, a.shape)),
                (b, lambda g: _unbroadcast(g * a.data, b.shape)),
            ],
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data
        a, b = self, other
        return Tensor._make(
            data,
            [
                (a, lambda g: _unbroadcast(g / b.data, a.shape)),
                (b, lambda g: _unbroadcast(-g * a.data / (b.data ** 2), b.shape)),
            ],
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent
        a = self
        return Tensor._make(
            data,
            [(a, lambda g: g * exponent * a.data ** (exponent - 1))],
        )

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        data = a.data @ b.data

        def grad_a(g: np.ndarray) -> np.ndarray:
            if a.data.ndim == 1 and b.data.ndim == 1:
                return g * b.data  # scalar g
            if b.data.ndim == 1:  # (..., m, k) @ (k,) -> (..., m)
                ga = np.multiply.outer(g, b.data) if g.ndim == 0 else g[..., None] * b.data
            elif a.data.ndim == 1:  # (k,) @ (..., k, n) -> (..., n)
                ga = (b.data @ g[..., None])[..., 0]
            else:
                ga = g @ b.data.swapaxes(-1, -2)
            return _unbroadcast(ga, a.shape)

        def grad_b(g: np.ndarray) -> np.ndarray:
            if a.data.ndim == 1 and b.data.ndim == 1:
                return g * a.data
            if a.data.ndim == 1:  # (k,) @ (..., k, n) -> (..., n)
                gb = a.data[..., None] * g[..., None, :]
            elif b.data.ndim == 1:  # (..., m, k) @ (k,) -> (..., m)
                gb = a.data.swapaxes(-1, -2) @ g[..., None]
                gb = gb[..., 0]
            else:
                gb = a.data.swapaxes(-1, -2) @ g
            return _unbroadcast(gb, b.shape)

        return Tensor._make(data, [(a, grad_a), (b, grad_b)])

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) @ self

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        return Tensor._make(data, [(self, lambda g: g * data)])

    def log(self) -> "Tensor":
        a = self
        return Tensor._make(np.log(self.data), [(a, lambda g: g / a.data)])

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        return Tensor._make(data, [(self, lambda g: g * (1.0 - data ** 2))])

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._make(data, [(self, lambda g: g * data * (1.0 - data))])

    def relu(self) -> "Tensor":
        a = self
        data = np.maximum(self.data, 0.0)
        return Tensor._make(data, [(a, lambda g: g * (a.data > 0))])

    def abs(self) -> "Tensor":
        a = self
        return Tensor._make(np.abs(self.data), [(a, lambda g: g * np.sign(a.data))])

    def clip(self, low: float, high: float) -> "Tensor":
        a = self
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)
        return Tensor._make(data, [(a, lambda g: g * mask)])

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axis is None:
                return np.broadcast_to(g, a.shape).copy() if np.ndim(g) == 0 else np.full(a.shape, g)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g_expanded, a.shape).copy()

        return Tensor._make(data, [(a, grad_fn)])

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        data = self.data.max(axis=axis, keepdims=keepdims)

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axis is None:
                mask = (a.data == data).astype(a.data.dtype)
                mask /= mask.sum()
                return mask * g
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            data_expanded = data if keepdims else np.expand_dims(data, axis)
            mask = (a.data == data_expanded).astype(a.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            return mask * g_expanded

        return Tensor._make(data, [(a, grad_fn)])

    def norm(self, axis=None, keepdims: bool = False, eps: float = 1e-12) -> "Tensor":
        """L2 norm, numerically safe at zero via ``eps``."""
        return ((self * self).sum(axis=axis, keepdims=keepdims) + eps) ** 0.5

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        data = self.data.reshape(shape)
        return Tensor._make(data, [(a, lambda g: g.reshape(a.shape))])

    def transpose(self, *axes) -> "Tensor":
        a = self
        if not axes:
            axes_tuple: Optional[Tuple[int, ...]] = None
            data = self.data.T
        else:
            if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
                axes = tuple(axes[0])
            axes_tuple = tuple(axes)
            data = self.data.transpose(axes_tuple)

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axes_tuple is None:
                return g.T
            inverse = np.argsort(axes_tuple)
            return g.transpose(inverse)

        return Tensor._make(data, [(a, grad_fn)])

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        a = self
        data = self.data.swapaxes(ax1, ax2)
        return Tensor._make(data, [(a, lambda g: g.swapaxes(ax1, ax2))])

    def expand_dims(self, axis: int) -> "Tensor":
        a = self
        data = np.expand_dims(self.data, axis)
        return Tensor._make(data, [(a, lambda g: np.squeeze(g, axis=axis))])

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        a = self
        data = np.squeeze(self.data, axis=axis)
        return Tensor._make(data, [(a, lambda g: g.reshape(a.shape))])

    def __getitem__(self, index) -> "Tensor":
        a = self
        data = self.data[index]

        def grad_fn(g: np.ndarray) -> np.ndarray:
            out = np.zeros_like(a.data)
            np.add.at(out, index, g)
            return out

        return Tensor._make(data, [(a, grad_fn)])

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Row lookup (embedding-style): ``out[i] = self[indices[i]]``.

        Gradients are scatter-added back, so repeated indices accumulate.
        """
        indices = np.asarray(indices, dtype=np.int64)
        a = self
        data = self.data[indices]

        def grad_fn(g: np.ndarray) -> _RowGrad:
            return _RowGrad(
                indices.reshape(-1),
                g.reshape(-1, *a.data.shape[1:]) if indices.ndim > 1 else g)

        return Tensor._make(data, [(a, grad_fn)])


class _RowGrad:
    """A :meth:`Tensor.gather_rows` gradient left as its lookup:
    ``table[indices] += updates``, not yet scattered into a table.

    ``backward()`` sums a node's contributions once, when it reaches the
    node (:func:`_sum_grads`), so a table looked up several times in one
    graph gets one table-sized gradient instead of one per lookup.
    """

    __slots__ = ("indices", "updates")

    def __init__(self, indices: np.ndarray, updates: np.ndarray):
        self.indices = indices
        self.updates = updates

    def table(self, data: np.ndarray) -> np.ndarray:
        """The dense gradient: the lookup scattered into zeros."""
        out = np.zeros_like(data)
        _backend.active.scatter_add(out, self.indices, self.updates)
        return out


def _sum_grads(data: np.ndarray, contribs: list) -> Tuple[np.ndarray, bool]:
    """Sum one node's gradient contributions left to right, in visit
    order; returns ``(grad, built)`` where ``built`` says this function
    allocated ``grad`` (so nothing else refers to it).

    Bit for bit this is the left-to-right sum of dense contributions in
    which every lookup is its own ``zeros`` + scatter table:

    * the first lookup scatters into one zeroed table, as before;
    * while the sum started from such a table, each later lookup adds its
      per-row segment sum (:meth:`~repro.backend.Backend.segment_sum`) to
      the rows it touched only.  The old per-lookup table held +0.0 in
      every other row, and ``x + 0.0 == x`` for every ``x`` but -0.0.
      Under round-to-nearest a sum is -0.0 only when both terms are, so a
      sum that started from +0.0 zeros never holds -0.0 and skipping
      those rows changes nothing.  A segment sum accumulates each row's
      updates in the order the per-lookup scatter did, with the same
      ``np.add.at``;
    * otherwise (a dense contribution came first, which may hold -0.0)
      a lookup is added as its full table, exactly as before.

    One scatter of all lookups concatenated is *not* equivalent: it would
    re-associate the sum of a row looked up by several lookups.
    """
    total = contribs[0]
    built = clean = False
    if type(total) is _RowGrad:
        total = total.table(data)
        built = clean = True
    for contrib in contribs[1:]:
        if type(contrib) is _RowGrad:
            if clean:
                # `data` stands in for the per-lookup table: same row
                # shape and dtype
                rows, sums = _backend.active.segment_sum(
                    data, contrib.indices, contrib.updates)
                total[rows] += sums
                continue
            total = total + contrib.table(data)
            built = clean = True
        else:
            total = total + contrib
            built = True
    return total, built


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    parents = []
    offset = 0
    for t in tensors:
        width = t.data.shape[axis]
        lo, hi = offset, offset + width

        def make_fn(lo=lo, hi=hi):
            def grad_fn(g: np.ndarray) -> np.ndarray:
                slicer = [slice(None)] * g.ndim
                slicer[axis] = slice(lo, hi)
                return g[tuple(slicer)]

            return grad_fn

        parents.append((t, make_fn()))
        offset = hi
    return Tensor._make(data, parents)


def pad_rows(packed: Tensor, lengths: Sequence[int],
             n_max: Optional[int] = None) -> Tensor:
    """Re-slice a packed ``(sum(lengths), ...)`` tensor into a
    zero-padded ``(B, n_max, ...)`` batch.

    Each packed row lands at exactly one padded slot, so the backward
    is pure slicing — no scatter, and no gradient accumulates anywhere
    (padded slots hold exact zeros forward and drop their gradient,
    matching a gather of an appended zero row bit for bit).
    """
    lengths = [int(n) for n in lengths]
    if sum(lengths) != packed.data.shape[0]:
        raise ValueError(
            f"pad_rows: lengths sum to {sum(lengths)} but packed has "
            f"{packed.data.shape[0]} rows")
    if n_max is None:
        n_max = max(lengths)
    a = packed
    data = np.zeros((len(lengths), n_max) + a.data.shape[1:],
                    dtype=a.data.dtype)
    offset = 0
    for b, n in enumerate(lengths):
        # slice assignment copies the packed rows; no alias survives
        data[b, :n] = a.data[offset:offset + n]
        offset += n

    def grad_fn(g: np.ndarray) -> np.ndarray:
        return np.concatenate([g[b, :n] for b, n in enumerate(lengths)],
                              axis=0)

    return Tensor._make(data, [(a, grad_fn)])


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    parents = []
    for idx, t in enumerate(tensors):
        def make_fn(idx=idx):
            def grad_fn(g: np.ndarray) -> np.ndarray:
                return np.take(g, idx, axis=axis)

            return grad_fn

        parents.append((t, make_fn()))
    return Tensor._make(data, parents)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select with gradient support; ``condition`` is constant."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)
    return Tensor._make(
        data,
        [
            (a, lambda g: _unbroadcast(np.where(condition, g, 0.0), a.shape)),
            (b, lambda g: _unbroadcast(np.where(condition, 0.0, g), b.shape)),
        ],
    )

"""Optimizers: SGD, Adam (Kingma & Ba, 2015 — the paper's choice), and a
sparse-row Adam for embedding tables.

Dense Adam pays O(rows * d) moment updates per step even when a step's
gradient touches a handful of embedding rows — which is exactly the
per-user training regime of this paper (one user's history, targets and
sampled negatives per step).  :class:`SparseAdam` updates only the rows
the step actually touched, catching each row's first/second moments up
with a closed-form decay for the steps it sat out.  See
``docs/PERFORMANCE.md`` for the (documented, tested) deviation from
dense Adam semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..obs import prof as _prof
from ..obs import trace as obs
from .module import Parameter


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params: Iterable[Parameter]):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self._param_ids = {id(p) for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def add_param(self, param: Parameter) -> None:
        """Register a parameter created mid-training (IMSR interest expansion)."""
        self.params.append(param)
        self._param_ids.add(id(param))

    def has_param(self, param: Parameter) -> bool:
        """O(1) identity membership test.

        ``param in self.params`` would fall back to ``Tensor.__eq__``
        resolution and scan the whole list — O(params) per call, and
        fragile should ``Tensor`` ever grow elementwise equality.  The
        training loop asks this once per user step, so it must be cheap.
        """
        return id(param) in self._param_ids


class SGD(Optimizer):
    """Vanilla (optionally momentum) stochastic gradient descent."""

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def add_param(self, param: Parameter) -> None:
        super().add_param(param)
        self._velocity.append(np.zeros_like(param.data))

    def step(self) -> None:
        with _prof.op("optim.step"):
            for p, v in zip(self.params, self._velocity):
                if p.grad is None:
                    continue
                grad = p.grad
                if self.weight_decay:
                    grad = grad + self.weight_decay * p.data
                if self.momentum:
                    v *= self.momentum
                    v += grad
                    grad = v
                p.data -= self.lr * grad
        _prof.on_step()


class Adam(Optimizer):
    """Adam with bias correction; per-parameter state survives add_param."""

    def __init__(self, params: Iterable[Parameter], lr: float = 0.001,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._steps = [0 for _ in self.params]
        #: (shape, dtype) -> two work buffers for :meth:`_dense_update`,
        #: shared by every parameter of that shape
        self._scratch: Dict[tuple, tuple] = {}

    def add_param(self, param: Parameter) -> None:
        super().add_param(param)
        self._m.append(np.zeros_like(param.data))
        self._v.append(np.zeros_like(param.data))
        self._steps.append(0)

    def step(self) -> None:
        with _prof.op("optim.step"):
            for i, p in enumerate(self.params):
                if p.grad is None:
                    continue
                self._sync_grown_rows(i, p)
                self._dense_update(i, p)
        _prof.on_step()

    def _sync_grown_rows(self, i: int, p: Parameter) -> None:
        """Zero-pad moment state when a row-sparse parameter gained rows.

        Mid-stream cold start grows embedding tables in place
        (:meth:`repro.nn.layers.Embedding.grow`); the new rows start with
        zero first/second moments — exactly the state a freshly
        constructed optimizer would hold for them — while the moments of
        every pre-existing row are left byte-identical.
        """
        m = self._m[i]
        if m.shape == p.data.shape:
            return
        if not (getattr(p, "row_sparse", False)
                and m.ndim == p.data.ndim and p.data.ndim >= 1
                and m.shape[1:] == p.data.shape[1:]
                and m.shape[0] < p.data.shape[0]):
            raise ValueError(
                f"optimizer state shape {m.shape} does not match parameter "
                f"shape {p.data.shape} and the parameter is not a row-grown "
                f"embedding table")
        pad = np.zeros((p.data.shape[0] - m.shape[0],) + m.shape[1:],
                       dtype=m.dtype)
        self._m[i] = np.concatenate([m, pad], axis=0)
        self._v[i] = np.concatenate([self._v[i], np.zeros_like(pad)], axis=0)
        # the grown table no longer uses work buffers of its old shape
        self._scratch.pop((m.shape, m.dtype), None)

    def _dense_update(self, i: int, p: Parameter) -> None:
        """One Adam step, written in place into ``m``, ``v``, ``p.data``
        and two reused work buffers.

        The IEEE operations and their order are exactly those of
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
        ``p -= lr*m_hat / (sqrt(v_hat) + eps)``, so the result is bit
        for bit what that out-of-place formula gives, without the dozen
        parameter-sized temporaries it allocates per step.
        """
        m, v = self._m[i], self._v[i]
        key = (m.shape, m.dtype)
        work = self._scratch.get(key)
        if work is None:
            work = self._scratch[key] = (np.empty_like(m), np.empty_like(m))
        tmp, step = work
        grad = p.grad
        if self.weight_decay:
            # g + wd*p, held in `step` until the moments are updated
            grad = np.add(grad, np.multiply(p.data, self.weight_decay,
                                            out=step), out=step)
        self._steps[i] += 1
        t = self._steps[i]
        np.multiply(m, self.beta1, out=m)
        m += np.multiply(grad, 1 - self.beta1, out=tmp)
        np.multiply(v, self.beta2, out=v)
        np.multiply(grad, 1 - self.beta2, out=tmp)
        v += np.multiply(tmp, grad, out=tmp)
        np.divide(v, 1 - self.beta2 ** t, out=tmp)           # v_hat
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, 1 - self.beta1 ** t, out=step)          # m_hat
        np.multiply(step, self.lr, out=step)
        p.data -= np.divide(step, tmp, out=step)


class SparseAdam(Adam):
    """Adam with lazy row-wise updates for row-sparse parameters.

    A parameter qualifies for the sparse path when it advertises the rows
    its gradient lives in (``param.touched_rows()`` — :class:`Embedding`
    weights record every forward lookup).  For those parameters a step

    1. decays the touched rows' stale first/second moments in closed form
       — ``m *= beta1**k``, ``v *= beta2**k`` for the ``k`` steps the row
       sat out (dense Adam applies that decay one step at a time);
    2. applies the ordinary Adam update to the touched rows only, with
       bias correction from the parameter's global step count.

    Deviation from dense Adam (documented in ``docs/PERFORMANCE.md``):
    dense Adam also *moves* an untouched row while its stale momentum
    decays toward zero ("momentum tail"); the lazy path skips that drift
    and leaves untouched rows frozen.  The two coincide exactly when
    every row is touched on every step, and agree within tolerance on
    real training runs (``tests/test_sparse_adam.py``).

    Parameters without row information fall back to the dense update,
    so a mixed parameter list (embedding table + dense transform + user
    attention weights) needs no special casing.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 0.001,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr=lr, betas=betas, eps=eps,
                         weight_decay=weight_decay)
        #: param index -> (rows,) step number at which each row was last
        #: updated; lazily created on the first sparse step
        self._last_step: Dict[int, np.ndarray] = {}
        for p in self.params:
            enable_row_tracking(p)

    def add_param(self, param: Parameter) -> None:
        super().add_param(param)
        enable_row_tracking(param)

    def step(self) -> None:
        with _prof.op("optim.step"):
            for i, p in enumerate(self.params):
                if p.grad is None:
                    continue
                self._sync_grown_rows(i, p)
                rows = touched_rows(p)
                if rows is None or p.data.ndim < 1:
                    self._dense_update(i, p)
                    continue
                self._sparse_update(i, p, rows)
                p._touched_rows = []  # consumed: next step starts fresh
        _prof.on_step()

    def _sync_grown_rows(self, i: int, p: Parameter) -> None:
        super()._sync_grown_rows(i, p)
        last = self._last_step.get(i)
        if last is not None and last.shape[0] < p.data.shape[0]:
            # new rows read as "last updated at step 0": their closed-form
            # catch-up decays zero moments, i.e. a no-op, matching dense
            pad = np.zeros(p.data.shape[0] - last.shape[0], dtype=np.int64)
            self._last_step[i] = np.concatenate([last, pad])

    def _sparse_update(self, i: int, p: Parameter, rows: np.ndarray) -> None:
        self._steps[i] += 1
        t = self._steps[i]
        obs.observe("sparse_adam.rows_touched", rows.size)
        if rows.size == 0:
            return
        last = self._last_step.get(i)
        if last is None:
            last = np.zeros(p.data.shape[0], dtype=np.int64)
            self._last_step[i] = last

        grad = p.grad[rows]
        if self.weight_decay:
            grad = grad + self.weight_decay * p.data[rows]

        # closed-form catch-up for the steps each row sat out
        stale = (t - 1) - last[rows]
        if stale.any():
            shape = (-1,) + (1,) * (p.data.ndim - 1)
            self._m[i][rows] *= (self.beta1 ** stale).reshape(shape)
            self._v[i][rows] *= (self.beta2 ** stale).reshape(shape)

        m = self.beta1 * self._m[i][rows] + (1 - self.beta1) * grad
        v = self.beta2 * self._v[i][rows] + (1 - self.beta2) * grad * grad
        self._m[i][rows] = m
        self._v[i][rows] = v
        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        p.data[rows] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        last[rows] = t


def enable_row_tracking(param: Parameter) -> None:
    """Arm row-recording on a row-sparse parameter.

    Only parameters that advertise ``row_sparse = True`` (embedding
    tables — see :class:`repro.nn.layers.Embedding`) are armed; tracking
    is opt-in so the recordings cannot accumulate unbounded under
    optimizers that never consume them.
    """
    if getattr(param, "row_sparse", False) and \
            getattr(param, "_touched_rows", None) is None:
        param._touched_rows = []


def touched_rows(param: Parameter) -> Optional[np.ndarray]:
    """Sorted unique row indices ``param``'s gradient lives in, or None.

    Row-sparse parameters (embedding tables) record every row their
    forward pass gathers while tracking is armed (see
    :func:`enable_row_tracking`); anything else returns None and takes
    the dense path.  An empty recording alongside a nonzero gradient
    also returns None — the gradient then came from an untracked op, and
    a sparse update would silently drop it.
    """
    recorder = getattr(param, "_touched_rows", None)
    if recorder is None:
        return None
    if not recorder:
        if param.grad is not None and param.grad.any():
            return None
        return np.empty(0, np.int64)
    return np.unique(np.concatenate([np.asarray(r).reshape(-1) for r in recorder]))


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Global-norm gradient clipping; returns the pre-clip norm.

    Row-sparse parameters (see :func:`touched_rows`) contribute only
    their touched rows to the norm — the remaining rows hold exact
    zeros, so the result is identical while skipping the O(rows * d)
    scan and scale of the full table.  Profiled as the ``optim.clip``
    kernel.
    """
    with _prof.op("optim.clip"):
        params = [p for p in params if p.grad is not None]
        total_sq = 0.0
        sparse: List[tuple] = []
        for p in params:
            rows = touched_rows(p)
            if rows is not None and p.data.ndim >= 1:
                sub = p.grad[rows]
                total_sq += float((sub ** 2).sum())
                sparse.append((p, rows))
            else:
                total_sq += float((p.grad ** 2).sum())
                sparse.append((p, None))
        total = float(np.sqrt(total_sq))
        if total > max_norm and total > 0:
            scale = max_norm / total
            for p, rows in sparse:
                if rows is None:
                    p.grad = p.grad * scale
                else:
                    p.grad[rows] *= scale
    return total

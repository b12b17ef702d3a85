"""Finite-difference gradient checking for the autograd engine.

Every backward rule in :mod:`repro.autograd.tensor` is validated in the test
suite against the central-difference approximation computed here.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    wrt: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(*inputs)`` w.r.t. one input.

    Parameters
    ----------
    fn:
        A function of Tensors returning a scalar Tensor.
    inputs:
        The tensors to call ``fn`` with.
    wrt:
        Index into ``inputs`` of the tensor to differentiate against.
    """
    base = inputs[wrt].data
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    grad_flat = grad.reshape(-1)
    # perturbing the live buffer is the whole point of central differences;
    # every write is restored before the next probe
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn(*inputs).data)
        flat[i] = original - eps
        minus = float(fn(*inputs).data)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def check_gradients(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    atol: float = 1e-5,
    rtol: float = 1e-4,
    eps: float = 1e-6,
) -> None:
    """Assert analytic gradients of ``fn`` match finite differences.

    Raises ``AssertionError`` with a diagnostic message on mismatch.
    """
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    out.backward()
    for idx, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        numeric = numerical_gradient(fn, inputs, idx, eps=eps)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradient mismatch for input {idx}: max abs err {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )

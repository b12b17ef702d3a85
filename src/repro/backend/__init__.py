"""`repro.backend` — pluggable compute backends for the autograd core.

Every hot path in the reproduction bottoms out in the hand-rolled
:mod:`repro.autograd` engine and the model kernels in
:mod:`repro.backend.fused` (routing, attention, sampled softmax).  A
backend fixes the compute dtype they run in and owns the embedding
backward's scatter:

* :class:`NumpyBackend` (``"default"``) — the paper-exact float64 path;
* :class:`FastBackend` (``"fast"``) — opt-in float32 compute, the same
  kernels.

Selection (names are case-insensitive)::

    repro.backend.set_backend("fast")        # process-wide
    with repro.backend.use_backend("fast"):  # scoped (tests)
        ...
    REPRO_BACKEND=fast python -m repro run … # from the environment

Select a backend *before* building models: the compute dtype is baked
into every Tensor at construction.  The active backend is re-read on
every Tensor creation, so scoped switches take effect immediately for
new graphs.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Type, Union

from .base import Backend, FastBackend, NumpyBackend
from .instrument import InstrumentedBackend

__all__ = [
    "Backend",
    "NumpyBackend",
    "FastBackend",
    "InstrumentedBackend",
    "active_backend_name",
    "set_backend",
    "use_backend",
]

#: registry name -> backend class
_BACKENDS: Dict[str, Type[Backend]] = {
    "default": NumpyBackend,
    "fast": FastBackend,
}

#: the live backend every Tensor creation and scatter reads
active: Backend = NumpyBackend()


def _resolve(backend: Union[str, Backend]) -> Backend:
    if isinstance(backend, Backend):
        return backend
    key = str(backend).strip().lower()
    cls = _BACKENDS.get(key)
    if cls is None:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            f"{sorted(_BACKENDS)} or a Backend instance")
    return cls()


def active_backend_name() -> str:
    """Registry name of the active backend (for traces and reports)."""
    return active.name


def set_backend(backend: Union[str, Backend]) -> Backend:
    """Install a backend process-wide; returns the *previous* one.

    Accepts a registry name (``"default"`` or ``"fast"``, in any case)
    or a :class:`Backend` instance (tests inject instrumented subclasses
    this way).
    """
    global active
    previous = active
    active = _resolve(backend)
    return previous


@contextmanager
def use_backend(backend: Union[str, Backend]) -> Iterator[Backend]:
    """Scoped backend switch: ``with use_backend("fast"): ...``."""
    previous = set_backend(backend)
    try:
        yield active
    finally:
        set_backend(previous)


_env = os.environ.get("REPRO_BACKEND", "").strip()
if _env:
    set_backend(_env)  # raises ValueError on typos: fail loud, not slow

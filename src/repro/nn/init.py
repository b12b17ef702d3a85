"""Weight initializers.

All initializers take an explicit ``rng`` (``numpy.random.Generator``) so
every experiment in the reproduction is fully seeded and repeatable.
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(shape, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform — the PyTorch default for attention weights."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def normal(shape, rng: np.random.Generator, std: float = 0.1) -> np.ndarray:
    """Gaussian init; the paper initializes interest vectors as N(0, I)."""
    return rng.normal(0.0, std, size=shape)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape)


def _fans(shape) -> tuple:
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = shape[0]
    return fan_in, fan_out

"""RA901 silent: the same scatter routed through the active backend."""

import numpy as np

from repro import backend as _backend


def accumulate(table, idx, rows):
    _backend.active.scatter_add(table.grad, idx, rows)


def scratch_counts(idx, size):
    counts = np.zeros(size)
    np.add.at(counts, idx, 1.0)  # a plain local array, not a Tensor buffer
    return counts

"""RA601 silent: mutate detached copies, read through views freely."""

import numpy as np


def inspect(tensor, idx):
    row = tensor.data[0].copy()  # the copy breaks the alias
    row[:] = 0.0
    top = tensor.data[0]         # a view is fine as long as it is read-only
    return row, float(top.sum())


def sharpen(item_embs: np.ndarray) -> np.ndarray:
    item_embs = item_embs * 1.5  # a new array; the caller's is untouched
    return item_embs

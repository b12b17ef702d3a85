"""RA601 firing: in-place writes through aliases of autograd buffers and
into the caller's array from inside a function that takes it."""

import numpy as np


def corrupt(tensor, idx):
    view = tensor.data[0]        # row view aliases the live buffer
    view[:] = 0.0                # mutates tensor.data through the alias
    flat = tensor.grad.reshape(-1)
    flat[idx] += 1.0             # same story via a reshape view


def sharpen(item_embs: np.ndarray) -> np.ndarray:
    item_embs *= 1.5             # rescales the caller's array too
    return item_embs

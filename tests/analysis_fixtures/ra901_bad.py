"""RA901 firing: a raw scatter into a Tensor buffer bypasses the backend."""

import numpy as np


def accumulate(table, idx, rows):
    np.add.at(table.grad, idx, rows)                   # raw buffer scatter

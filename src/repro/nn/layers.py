"""Core layers: Linear and Embedding.

The embedding table is the largest parameter in every MSR model (|I| x d item
embeddings), so ``Embedding`` uses sparse scatter-add gradients via
``Tensor.gather_rows`` rather than a dense one-hot matmul.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor, is_grad_enabled
from . import init
from .module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x W^T + b`` with Xavier-uniform init."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table of ``num_embeddings`` rows of dimension ``dim``.

    ``padding_idx`` (if given) is a row held at zero — used for padding
    variable-length interaction sequences into batches.
    """

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator,
                 padding_idx: Optional[int] = None, std: float = 0.1):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.padding_idx = padding_idx
        self.std = std
        table = init.normal((num_embeddings, dim), rng, std=std)
        if padding_idx is not None:
            table[padding_idx] = 0.0
        self.weight = Parameter(table)
        # Row-sparse hint: every gradient into this table is a scatter-add
        # over looked-up rows, so SparseAdam can arm per-row tracking
        # (repro.nn.optim.enable_row_tracking) and update only those rows.
        self.weight.row_sparse = True
        self.weight._touched_rows = None

    def forward(self, indices: np.ndarray) -> Tensor:
        idx = np.asarray(indices, dtype=np.int64)
        if self.weight._touched_rows is not None and is_grad_enabled():
            self.weight._touched_rows.append(idx.reshape(-1))
        return self.weight.gather_rows(idx)

    def zero_padding_row(self) -> None:
        """Re-zero the padding row (call after an optimizer step)."""
        if self.padding_idx is not None:
            self.weight.data[self.padding_idx] = 0.0

    def grow(self, num_new: int, rng: Optional[np.random.Generator] = None) -> None:
        """Append ``num_new`` rows to the table (mid-stream cold start).

        With ``rng`` the new rows are drawn exactly as at construction time
        (``N(0, std^2)``), so a resumed run that replays the same growth with
        the same generator state reproduces the same table. Without ``rng``
        the rows are zero-filled — the checkpoint-restore path, where real
        values are loaded immediately afterwards.
        """
        if num_new <= 0:
            return
        if rng is not None:
            new_rows = init.normal((num_new, self.dim), rng, std=self.std)
        else:
            new_rows = init.zeros((num_new, self.dim))
        new_rows = new_rows.astype(self.weight.data.dtype, copy=False)
        self.weight.data = np.concatenate([self.weight.data, new_rows], axis=0)
        self.num_embeddings += num_new

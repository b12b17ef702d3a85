"""Minimal module system mirroring ``torch.nn.Module`` semantics.

Modules own :class:`Parameter` tensors, can be nested, and expose
``parameters()`` / ``state_dict()`` / ``load_state_dict()`` so incremental
strategies can snapshot, clone, and restore models across time spans —
the central operation in this paper (FT inherits, FR reinitializes, SML
transfers, IMSR fine-tunes with retention).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Tuple

import numpy as np

from ..autograd import Tensor


class Parameter(Tensor):
    """A Tensor flagged as a trainable leaf of a Module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration is automatic via ``__setattr__``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter's data, keyed by dotted path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter data in place.

        With ``strict=False``, missing or extra keys are tolerated and
        shape-mismatched entries are skipped — needed when IMSR expands the
        number of interests between spans.
        """
        params = dict(self.named_parameters())
        if strict:
            missing = set(params) - set(state)
            extra = set(state) - set(params)
            if missing or extra:
                raise KeyError(f"state dict mismatch; missing={missing}, extra={extra}")
        for name, value in state.items():
            param = params.get(name)
            if param is None:
                continue
            if param.data.shape != value.shape:
                if strict:
                    raise ValueError(
                        f"shape mismatch for {name}: {param.data.shape} vs {value.shape}"
                    )
                continue
            param.data[...] = value

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

"""Shape/dtype contracts for the numpy substrate.

Numpy broadcasting silently turns shape mistakes into plausible-but-wrong
numbers.  This package gives every geometry-critical function a compact,
machine-checked contract::

    from repro.contracts import shape_contract

    @shape_contract("(N, D) f, (K, D) f -> (N, K) f")
    def affinity(items, interests):
        return items @ interests.T

One declarative spec feeds one enforcement layer: :func:`enforce` /
``REPRO_CHECK_SHAPES=1`` checks it against concrete shapes at call
boundaries.  The spec is parsed when the decorator runs, so a malformed
spec or an arity mismatch fails at import time even with checking off.

``repro contracts list`` prints the registry.
"""

from .runtime import (
    CONTRACT_REGISTRY,
    ContractDefinitionError,
    ContractEntry,
    ContractViolation,
    checking_enabled,
    contract_for,
    enforce,
    enforced,
    load_annotated,
    registry_rows,
    shape_contract,
)
from .spec import (
    Contract,
    ContractParseError,
    parse_contract,
)

__all__ = [
    "CONTRACT_REGISTRY",
    "Contract",
    "ContractDefinitionError",
    "ContractEntry",
    "ContractParseError",
    "ContractViolation",
    "checking_enabled",
    "contract_for",
    "enforce",
    "enforced",
    "load_annotated",
    "parse_contract",
    "registry_rows",
    "shape_contract",
]

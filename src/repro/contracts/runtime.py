"""Runtime enforcement of shape contracts at call boundaries.

``@shape_contract("(B, T, D) f -> (B, K, D) f")`` registers the parsed
contract (so ``repro contracts list`` and the coverage metrics see the
same declarative source the checker enforces) and wraps the function
with a checker that is a single boolean test when enforcement is off —
near-zero overhead on hot paths.

Enforcement is off by default; turn it on with::

    repro.contracts.enforce(True)          # process-wide
    with repro.contracts.enforced():       # scoped
        ...
    REPRO_CHECK_SHAPES=1 python -m pytest  # from the environment

Violations raise :class:`ContractViolation` naming the function, the
offending argument/output, the declared spec, the concrete shape, and
the symbol binding accumulated from the other arguments.
"""

from __future__ import annotations

import functools
import inspect
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .spec import (
    Binding,
    Contract,
    ContractParseError,
    SkipSpec,
    TensorSpec,
    dtype_class_of,
    dtype_compatible,
    match_shape,
    parse_contract,
)


class ContractViolation(ValueError):
    """A concrete call broke its declared shape/dtype contract.

    A :class:`ValueError` subclass because that is what numpy itself
    raises for incompatible shapes — callers guarding with
    ``except ValueError`` keep working when enforcement is on.
    """


class ContractDefinitionError(ValueError):
    """The decorator itself is misused (bad spec, arity mismatch)."""


_TRUTHY = ("1", "true", "yes", "on")
_enabled = os.environ.get("REPRO_CHECK_SHAPES", "").strip().lower() in _TRUTHY


def enforce(on: bool = True) -> bool:
    """Set process-wide enforcement; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(on)
    return previous


def checking_enabled() -> bool:
    """Is runtime contract checking currently on?"""
    return _enabled


@contextmanager
def enforced(on: bool = True):
    """Scoped enforcement: ``with enforced(): ...``."""
    previous = enforce(on)
    try:
        yield
    finally:
        enforce(previous)


@dataclass
class ContractEntry:
    """One registered contract: where it lives and what it declares."""

    key: str            # "module.qualname"
    module: str
    qualname: str
    spec: str
    contract: Contract
    arg_names: Tuple[str, ...]

    def as_row(self) -> Tuple[str, str, str]:
        return (self.module, self.qualname, self.spec)


#: "module.qualname" -> entry, in registration (import) order
CONTRACT_REGISTRY: Dict[str, ContractEntry] = {}

def _describe_value(value) -> Tuple[Optional[Tuple[int, ...]], Optional[str]]:
    """(shape, dtype-class) of a runtime value, or (None, None) to skip.

    Tensors and ndarrays are checked as-is; python/numpy scalars check as
    scalars; anything else (None, strings, dicts, Sequence[int] handles)
    is skipped — the contract's job is tensor geometry, not general typing.
    """
    data = getattr(value, "data", None)
    if isinstance(data, np.ndarray):          # repro Tensor / Parameter
        return data.shape, dtype_class_of(data.dtype)
    if isinstance(value, np.ndarray):
        return value.shape, dtype_class_of(value.dtype)
    if isinstance(value, (bool, np.bool_)):
        return (), "b"
    if isinstance(value, (int, np.integer)):
        return (), "i"
    if isinstance(value, (float, np.floating)):
        return (), "f"
    return None, None


def _check_value(entry_key: str, where: str, spec: TensorSpec, value,
                 binding: Binding) -> None:
    if value is None:
        return
    shape, dtype_cls = _describe_value(value)
    if shape is None:
        return
    error = match_shape(spec, shape, binding)
    if error is not None:
        raise ContractViolation(
            f"{entry_key}: {where} violates {spec}: {error}")
    if dtype_cls is not None and not dtype_compatible(spec.dtype, dtype_cls):
        raise ContractViolation(
            f"{entry_key}: {where} violates {spec}: dtype class "
            f"'{dtype_cls}' does not satisfy declared '{spec.dtype}'")


def _contract_arg_names(fn: Callable, contract: Contract,
                        spec: str) -> Tuple[str, ...]:
    """Parameter names the contract's input specs bind to (self excluded)."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        raise ContractDefinitionError(
            f"cannot inspect signature of {fn!r} for contract {spec!r}")
    params = [p for p in sig.parameters.values()
              if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
    if params and params[0].name in ("self", "cls"):
        params = params[1:]
    if len(contract.inputs) > len(params):
        raise ContractDefinitionError(
            f"contract {spec!r} declares {len(contract.inputs)} argument "
            f"spec(s) but {fn.__qualname__} only has {len(params)} "
            f"checkable parameter(s)")
    return tuple(p.name for p in params[:len(contract.inputs)])


def shape_contract(spec: str) -> Callable[[Callable], Callable]:
    """Attach a shape/dtype contract to a function or method.

    The spec grammar lives in :mod:`repro.contracts.spec`.  Contract
    input specs bind to the function's leading parameters (``self`` is
    skipped); use ``_`` for parameters that should not be checked.
    """
    try:
        contract = parse_contract(spec)
    except ContractParseError as exc:
        raise ContractDefinitionError(str(exc)) from exc

    def decorate(fn: Callable) -> Callable:
        arg_names = _contract_arg_names(fn, contract, spec)
        # exec'd snippets (tests, REPLs) may have no __module__
        module = fn.__module__ or "<dynamic>"
        key = f"{module}.{fn.__qualname__}"
        entry = ContractEntry(
            key=key,
            module=module,
            qualname=fn.__qualname__,
            spec=contract.spec,
            contract=contract,
            arg_names=arg_names,
        )
        CONTRACT_REGISTRY[key] = entry
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            binding = Binding()
            try:
                bound = sig.bind(*args, **kwargs)
            except TypeError:
                # let the call itself raise the natural signature error
                return fn(*args, **kwargs)
            for name, arg_spec in zip(arg_names, contract.inputs):
                if isinstance(arg_spec, SkipSpec) or name not in bound.arguments:
                    continue
                _check_value(key, f"argument '{name}'", arg_spec,
                             bound.arguments[name], binding)
            result = fn(*args, **kwargs)
            outputs = contract.outputs
            values = result if isinstance(result, tuple) else (result,)
            if len(outputs) == len(values):
                for i, (out_spec, value) in enumerate(zip(outputs, values)):
                    if isinstance(out_spec, SkipSpec):
                        continue
                    where = ("return value" if len(outputs) == 1
                             else f"return value [{i}]")
                    _check_value(key, where, out_spec, value, binding)
            elif len(outputs) > 1:
                raise ContractViolation(
                    f"{key}: contract declares {len(outputs)} outputs but the "
                    f"call returned "
                    f"{len(values) if isinstance(result, tuple) else 1}")
            return result

        wrapper.__contract__ = entry  # type: ignore[attr-defined]
        return wrapper

    return decorate


def contract_for(fn: Callable) -> Optional[ContractEntry]:
    """The entry attached to a decorated function, if any."""
    return getattr(fn, "__contract__", None)


def load_annotated() -> int:
    """Import every module that carries contracts; returns registry size.

    ``repro contracts list`` and tooling call this so the registry is
    fully populated without requiring a full experiment import.
    """
    import importlib

    for module in (
        "repro.autograd.ops",
        "repro.nn.layers",
        "repro.models.routing",
        "repro.models.aggregator",
        "repro.models.sampled_softmax",
        "repro.incremental.imsr.nid",
        "repro.incremental.imsr.pit",
        "repro.incremental.imsr.eir",
        "repro.eval.metrics",
        "repro.faults",
    ):
        importlib.import_module(module)
    return len(CONTRACT_REGISTRY)


def registry_rows() -> List[Tuple[str, str, str]]:
    """(module, qualname, spec) rows sorted by module then name."""
    return sorted(e.as_row() for e in CONTRACT_REGISTRY.values())

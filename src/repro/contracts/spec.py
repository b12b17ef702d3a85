"""The shape/dtype contract DSL.

A contract is a compact spec string::

    "(B, T, D) f, (K, D) f -> (B, K, D) f"

attached to a function with :func:`repro.contracts.shape_contract`.  The
parsed :class:`Contract` drives the runtime checker
(:mod:`repro.contracts.runtime`), which binds the symbols against
concrete ``ndarray``/``Tensor`` shapes at call boundaries when
enforcement is on.

Grammar (argument specs separated by top-level commas, ``->`` between
inputs and outputs)::

    contract := specs '->' specs
    specs    := spec (',' spec)*
    spec     := '_'                      -- argument not checked
              | '(' dims ')' [dtype]
    dims     := ε | dim (',' dim)*
    dim      := NAME                     -- symbolic dimension variable
              | INT                      -- fixed size
              | '*'                      -- any single dimension
              | '...' [NAME]             -- any run of dimensions
                                           (named runs must match)
    dtype    := 'f32' | 'f64' | 'f' | 'i32' | 'i64' | 'i' | 'b' | 'any'

``()`` is a scalar (python numbers and 0-d arrays match it).  A dimension
NAME is bound on first use and must agree everywhere it reappears within
one call — that cross-argument/cross-output agreement is the whole point.
At most one ellipsis is allowed per shape.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union


class ContractParseError(ValueError):
    """Raised for a malformed spec string."""


#: dtype classes the DSL knows about.  ``f``/``i`` accept any float/int
#: width; ``any`` (the default) accepts everything.
DTYPE_TOKENS = ("f32", "f64", "f", "i32", "i64", "i", "b", "any")

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_INT_RE = re.compile(r"^\d+$")


@dataclass(frozen=True)
class SymDim:
    """A named symbolic dimension variable (``B``, ``K``, ``dK``...)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FixedDim:
    """A concrete integer dimension."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class AnyDim:
    """``*`` — one dimension of any size, never constrained."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class EllipsisDim:
    """``...`` / ``...NAME`` — a (possibly empty) run of dimensions."""

    name: Optional[str] = None

    def __str__(self) -> str:
        return "..." + (self.name or "")


Dim = Union[SymDim, FixedDim, AnyDim, EllipsisDim]


@dataclass(frozen=True)
class TensorSpec:
    """One argument/output position: a shape pattern plus a dtype class."""

    dims: Tuple[Dim, ...]
    dtype: str = "any"

    @property
    def ellipsis_index(self) -> Optional[int]:
        for i, d in enumerate(self.dims):
            if isinstance(d, EllipsisDim):
                return i
        return None

    @property
    def min_ndim(self) -> int:
        return len(self.dims) - (1 if self.ellipsis_index is not None else 0)

    def __str__(self) -> str:
        inner = ", ".join(str(d) for d in self.dims)
        out = f"({inner})"
        if self.dtype != "any":
            out += f" {self.dtype}"
        return out


@dataclass(frozen=True)
class SkipSpec:
    """``_`` — the argument is deliberately unchecked."""

    def __str__(self) -> str:
        return "_"


ArgSpec = Union[TensorSpec, SkipSpec]


@dataclass(frozen=True)
class Contract:
    """A parsed contract: input specs, output specs, the original text."""

    inputs: Tuple[ArgSpec, ...]
    outputs: Tuple[ArgSpec, ...]
    spec: str = ""

    def __str__(self) -> str:
        return self.spec or "{} -> {}".format(
            ", ".join(str(s) for s in self.inputs),
            ", ".join(str(s) for s in self.outputs),
        )


def _split_top_level(text: str) -> List[str]:
    """Split on commas not nested inside parentheses."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ContractParseError(f"unbalanced ')' in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ContractParseError(f"unbalanced '(' in {text!r}")
    parts.append("".join(current))
    return parts


def _parse_dim(token: str, spec_text: str) -> Dim:
    token = token.strip()
    if token.startswith("..."):
        name = token[3:].strip()
        if name and not _NAME_RE.match(name):
            raise ContractParseError(
                f"bad ellipsis name {name!r} in {spec_text!r}")
        return EllipsisDim(name or None)
    if token == "*" or token == "_":
        return AnyDim()
    if _INT_RE.match(token):
        return FixedDim(int(token))
    if _NAME_RE.match(token):
        return SymDim(token)
    raise ContractParseError(f"bad dimension token {token!r} in {spec_text!r}")


def _parse_spec(text: str) -> ArgSpec:
    text = text.strip()
    if not text:
        raise ContractParseError("empty argument spec (stray comma?)")
    if text == "_":
        return SkipSpec()
    if not text.startswith("("):
        raise ContractParseError(
            f"argument spec must be '_' or start with '(': {text!r}")
    close = text.rfind(")")
    if close < 0:
        raise ContractParseError(f"missing ')' in {text!r}")
    inner = text[1:close]
    trailer = text[close + 1:].strip()
    dtype = "any"
    if trailer:
        if trailer not in DTYPE_TOKENS:
            raise ContractParseError(
                f"unknown dtype {trailer!r} in {text!r} "
                f"(expected one of {', '.join(DTYPE_TOKENS)})")
        dtype = trailer
    dims: List[Dim] = []
    if inner.strip():
        for token in inner.split(","):
            if not token.strip():
                raise ContractParseError(f"empty dimension in {text!r}")
            dims.append(_parse_dim(token, text))
    if sum(isinstance(d, EllipsisDim) for d in dims) > 1:
        raise ContractParseError(f"more than one '...' in {text!r}")
    return TensorSpec(dims=tuple(dims), dtype=dtype)


def parse_contract(spec: str) -> Contract:
    """Parse a spec string; raises :class:`ContractParseError` on errors."""
    if not isinstance(spec, str):
        raise ContractParseError(f"spec must be a string, got {type(spec)!r}")
    if spec.count("->") != 1:
        raise ContractParseError(
            f"spec needs exactly one '->' separating inputs from outputs: "
            f"{spec!r}")
    left, right = spec.split("->")
    if not left.strip() or not right.strip():
        raise ContractParseError(f"empty input or output side in {spec!r}")
    inputs = tuple(_parse_spec(p) for p in _split_top_level(left))
    outputs = tuple(_parse_spec(p) for p in _split_top_level(right))
    return Contract(inputs=inputs, outputs=outputs, spec=spec.strip())


# --------------------------------------------------------------------- #
# concrete (runtime) matching
# --------------------------------------------------------------------- #

#: dtype-class compatibility: spec token -> predicate over numpy kind/size
def dtype_class_of(dtype) -> str:
    """Classify a numpy dtype into the DSL's dtype tokens."""
    import numpy as np

    dt = np.dtype(dtype)
    if dt.kind == "f":
        return {4: "f32", 8: "f64"}.get(dt.itemsize, "f")
    if dt.kind in "iu":
        return {4: "i32", 8: "i64"}.get(dt.itemsize, "i")
    if dt.kind == "b":
        return "b"
    return "any"


def dtype_compatible(declared: str, actual_class: str) -> bool:
    """Does a concrete dtype class satisfy a declared dtype token?"""
    if declared == "any" or actual_class == "any":
        return True
    if declared == actual_class:
        return True
    if declared == "f":
        return actual_class in ("f32", "f64", "f")
    if declared == "i":
        return actual_class in ("i32", "i64", "i")
    return False


class Binding(dict):
    """Concrete symbol environment for one call: name -> int,
    '...name' -> tuple of ints."""


def match_shape(spec: TensorSpec, shape: Sequence[int],
                binding: Binding) -> Optional[str]:
    """Unify a concrete ``shape`` against ``spec`` updating ``binding``.

    Returns an error message, or None on success.
    """
    shape = tuple(int(s) for s in shape)
    ell = spec.ellipsis_index
    if ell is None:
        if len(shape) != len(spec.dims):
            return (f"expected {len(spec.dims)} dim(s) {spec}, "
                    f"got shape {shape}")
        head, tail = spec.dims, ()
        mid: Tuple[int, ...] = ()
        head_shape, tail_shape = shape, ()
    else:
        if len(shape) < spec.min_ndim:
            return (f"expected at least {spec.min_ndim} dim(s) {spec}, "
                    f"got shape {shape}")
        head = spec.dims[:ell]
        tail = spec.dims[ell + 1:]
        head_shape = shape[:len(head)]
        tail_shape = shape[len(shape) - len(tail):] if tail else ()
        mid = shape[len(head):len(shape) - len(tail)]
        ell_dim = spec.dims[ell]
        assert isinstance(ell_dim, EllipsisDim)
        if ell_dim.name:
            key = "..." + ell_dim.name
            if key in binding and binding[key] != mid:
                return (f"'...{ell_dim.name}' already bound to "
                        f"{binding[key]}, got {mid}")
            binding[key] = mid
    for dim, size in zip((*head, *tail), (*head_shape, *tail_shape)):
        if isinstance(dim, AnyDim):
            continue
        if isinstance(dim, FixedDim):
            if size != dim.value:
                return f"dim {dim} expected, got {size} (shape {shape})"
        elif isinstance(dim, SymDim):
            bound = binding.get(dim.name)
            if bound is None:
                binding[dim.name] = size
            elif bound != size:
                return (f"dim '{dim.name}' bound to {bound} elsewhere, "
                        f"got {size} (shape {shape})")
    return None

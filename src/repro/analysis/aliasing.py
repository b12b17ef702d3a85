"""RA6xx: aliasing rules — mutation through views of Tensor buffers.

The RA101 family flags in-place writes *directly* into ``<x>.data`` /
``<x>.grad``.  This pass extends the check through local dataflow: it
tracks which local names *may alias* a Tensor buffer —

* ``v = t.data`` and ``g = t.grad`` (the buffer itself),
* slicing/indexing (``t.data[rows]``, gather outputs — conservatively
  treated as aliases even where numpy fancy indexing copies),
* ``.T`` and the view-producing methods (``reshape``, ``ravel``,
  ``squeeze``, ``swapaxes``, ``transpose``, ``diagonal``),
* the np-level equivalents (``np.asarray``, ``np.ravel``, …),
* inside a ``@shape_contract`` function, every argument except ``out``
  (each is the caller's array, so a write to it leaks back out),

— and flags three sinks: in-place mutation of an alias (RA601),
mutating library calls on an alias (RA602: ``.fill``/``.sort``/
``np.add(..., out=)``/``ufunc.at``/``np.copyto``), and storing an
uncopied alias into longer-lived state (RA603).  ``.copy()`` /
``np.array`` / ``.astype`` break the alias chain, so the idiomatic fix
clears the finding.

The walk is flow-sensitive within a function (straight-line; branch
bodies are threaded sequentially) and intentionally may-alias: mutating
something that *might* share memory with an autograd-tracked buffer or
a captured snapshot is the bug class, even when one branch allocated
fresh memory.  RA601/RA602 apply everywhere including the substrate —
the optimizer is allowed to step ``p.data`` in place (RA101 exempts
it), but mutating an unrecognized *view* is a bug there too.  RA603 is
skipped in the substrate, where ``persistence`` legitimately collects
raw buffer references for hashing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from .core import SEVERITY_ERROR, Finding, ModuleContext, Rule, register
from .rules import dotted_name, is_buffer_access, terminal_name

#: ndarray methods that return a view of the receiver
_VIEW_METHODS = frozenset({
    "reshape", "ravel", "squeeze", "swapaxes", "transpose", "diagonal",
    "view",
})
#: np-level functions that may return a view of their first argument
_NP_VIEW_FUNCS = frozenset({
    "asarray", "ravel", "reshape", "transpose", "squeeze", "swapaxes",
    "atleast_1d", "atleast_2d", "atleast_3d", "broadcast_to",
})
#: ndarray methods that mutate the receiver in place
_MUTATING_METHODS = frozenset({"fill", "sort", "partition", "put", "itemset"})
_NP_MODULE_NAMES = ("np", "numpy")

Sink = Tuple[str, ast.AST, str]


def _buffer_origin(node: ast.AST) -> str:
    """A readable description of the buffer an expression reaches into."""
    name = dotted_name(node)
    return f"'{name}'" if name else "a Tensor buffer"


class _AliasTracker:
    """Flow-sensitive may-alias walk over one statement block."""

    def __init__(self, sink: List[Sink], substrate: bool):
        self.sink = sink
        self.substrate = substrate
        self.env: Dict[str, Optional[str]] = {}

    # ---------------------------------------------------------------- #
    # expression evaluation: origin string when the value may alias a
    # Tensor buffer, None otherwise
    # ---------------------------------------------------------------- #
    def alias_of(self, node: Optional[ast.AST]) -> Optional[str]:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr in ("data", "grad"):
                return _buffer_origin(node)
            if node.attr == "T":
                return self.alias_of(node.value)
            if is_buffer_access(node):
                return _buffer_origin(node)
            return None
        if isinstance(node, ast.Subscript):
            return self.alias_of(node.value)
        if isinstance(node, ast.IfExp):
            return self.alias_of(node.body) or self.alias_of(node.orelse)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if isinstance(func.value, ast.Name) and \
                        func.value.id in _NP_MODULE_NAMES:
                    if func.attr in _NP_VIEW_FUNCS and node.args:
                        return self.alias_of(node.args[0])
                    return None
                if func.attr in _VIEW_METHODS:
                    return self.alias_of(func.value)
            return None
        return None

    def _root_name(self, node: ast.AST) -> Optional[str]:
        """The base Name of a Subscript/Attribute chain, else None."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    # ---------------------------------------------------------------- #
    # statement walk
    # ---------------------------------------------------------------- #
    def run(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            self.env[stmt.name] = None  # bodies get their own pass
            return
        for expr in self._exprs(stmt):
            self._scan_calls(expr)
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign([stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._mutation_target(stmt.target, augmented=True)
        elif isinstance(stmt, ast.For):
            self._bind(stmt.target, self.alias_of(stmt.iter))
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, None)
            self.run(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                if handler.name:
                    self.env[handler.name] = None
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)

    def _exprs(self, stmt: ast.stmt) -> Iterator[ast.AST]:
        """Top-level expressions of a statement (no nested statements)."""
        if isinstance(stmt, ast.Expr):
            yield stmt.value
        elif isinstance(stmt, ast.Assign):
            yield stmt.value
            yield from stmt.targets
        elif isinstance(stmt, ast.AugAssign):
            yield stmt.value
            yield stmt.target
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            yield stmt.value
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            yield stmt.value
        elif isinstance(stmt, (ast.If, ast.While)):
            yield stmt.test
        elif isinstance(stmt, ast.For):
            yield stmt.iter
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                yield item.context_expr
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                yield stmt.exc
        elif isinstance(stmt, ast.Assert):
            yield stmt.test
            if stmt.msg is not None:
                yield stmt.msg

    # ---------------------------------------------------------------- #
    # sinks
    # ---------------------------------------------------------------- #
    def _assign(self, targets: List[ast.AST], value: ast.AST) -> None:
        value_alias = self.alias_of(value)
        for target in targets:
            if isinstance(target, ast.Name):
                self.env[target.id] = value_alias
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    self._bind(elt, None)
            elif isinstance(target, ast.Subscript):
                self._mutation_target(target, augmented=False)
                if value_alias and not self.substrate:
                    self.sink.append(("RA603", target,
                                      self._store_message(value_alias)))
            elif isinstance(target, ast.Attribute):
                if value_alias and not self.substrate:
                    self.sink.append(("RA603", target,
                                      self._store_message(value_alias)))

    def _store_message(self, origin: str) -> str:
        return (f"stores a value that may alias {origin} into longer-lived "
                f"state; snapshot with an explicit .copy() so later buffer "
                f"updates cannot leak through the alias")

    def _mutation_target(self, target: ast.AST, augmented: bool) -> None:
        if is_buffer_access(target):
            return  # direct buffer mutation is RA101's finding
        if isinstance(target, ast.Name):
            origin = self.env.get(target.id)
            name = target.id
        else:
            name = self._root_name(target)
            origin = self.env.get(name) if name else None
        if origin:
            op = "augmented assignment to" if augmented else "slice-assign into"
            self.sink.append((
                "RA601", target,
                f"in-place {op} '{name}', which may alias {origin}; "
                f"take an explicit .copy() before mutating"))

    def _scan_calls(self, expr: ast.AST) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver = func.value
                if func.attr in _MUTATING_METHODS:
                    origin = self.alias_of(receiver)
                    if origin:
                        self.sink.append((
                            "RA602", node,
                            f".{func.attr}() mutates its receiver, which may "
                            f"alias {origin}; operate on an explicit .copy()"))
                elif func.attr == "at":
                    # ufunc scatter: np.add.at(dst, idx, val)
                    if node.args and not is_buffer_access(node.args[0]):
                        origin = self.alias_of(node.args[0])
                        if origin:
                            self.sink.append((
                                "RA602", node,
                                f"ufunc .at() scatters into a value that may "
                                f"alias {origin}; scatter into an explicit "
                                f".copy()"))
                elif dotted_name(func) in ("np.copyto", "numpy.copyto"):
                    if node.args:
                        origin = self.alias_of(node.args[0])
                        if origin:
                            self.sink.append((
                                "RA602", node,
                                f"np.copyto() writes into a value that may "
                                f"alias {origin}; copy into fresh memory"))
            for kw in node.keywords:
                if kw.arg == "out" and not is_buffer_access(kw.value):
                    origin = self.alias_of(kw.value)
                    if origin:
                        self.sink.append((
                            "RA602", node,
                            f"out= writes into a value that may alias "
                            f"{origin}; write into an explicit .copy()"))

    def _bind(self, target: ast.AST, value: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, None)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, None)


def _contract_arguments(fn: ast.AST) -> List[str]:
    """Input parameters of a ``@shape_contract`` function (else none).

    ``out`` is left out: by numpy convention it is the caller's output
    buffer, which the function exists to write into.
    """
    if not any(isinstance(dec, ast.Call)
               and terminal_name(dec.func) == "shape_contract"
               for dec in fn.decorator_list):
        return []
    params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    return [a.arg for a in params if a.arg not in ("self", "cls", "out")]


def alias_findings(ctx: ModuleContext) -> List[Sink]:
    """All RA6xx findings for one module (rule id, node, message)."""
    sink: List[Sink] = []
    substrate = ctx.is_substrate
    # module top level (nested defs are walked separately below)
    _AliasTracker(sink, substrate).run(ctx.tree.body)
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            tracker = _AliasTracker(sink, substrate)
            # a contract declares inputs -> outputs: its arguments are the
            # caller's arrays, so an in-place write to one leaks back out
            for name in _contract_arguments(node):
                tracker.env[name] = (f"the caller's '{name}' (a "
                                     f"@shape_contract argument)")
            tracker.run(node.body)
    return sink


class _AliasRule(Rule):
    """Shared machinery: run the alias tracker, keep this rule's findings."""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for rule_id, node, message in alias_findings(ctx):
            if rule_id == self.id:
                yield self.finding(ctx, node, message)


@register
class AliasedBufferMutation(_AliasRule):
    """RA601: += / slice-assign through a local view of a Tensor buffer."""

    id = "RA601"
    name = "aliased-buffer-mutation"
    severity = SEVERITY_ERROR
    summary = ("in-place mutation (+=, [...] =) of a local value that may "
               "alias Tensor.data/.grad or a @shape_contract argument; take "
               "a .copy() before mutating")


@register
class MutatingCallOnAlias(_AliasRule):
    """RA602: .fill/.sort/out=/ufunc.at aimed at a Tensor-buffer alias."""

    id = "RA602"
    name = "mutating-call-on-buffer-alias"
    severity = SEVERITY_ERROR
    summary = ("mutating library call (.fill, .sort, np.add(..., out=), "
               "ufunc.at, np.copyto) on a value that may alias a Tensor "
               "buffer")


@register
class UncopiedBufferStore(_AliasRule):
    """RA603: storing an uncopied buffer view into longer-lived state."""

    id = "RA603"
    name = "uncopied-buffer-store"
    severity = SEVERITY_ERROR
    summary = ("storing a Tensor-buffer view into object/container state "
               "without .copy(); snapshots must own their memory")

"""The repository's rule set (RA1xx graph safety, RA2xx randomness,
RA3xx numerics, RA4xx general hygiene).

Every rule is documented with a bad/good pair in ``docs/ANALYSIS.md``;
each also has a firing and a non-firing fixture under
``tests/analysis_fixtures/``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from .core import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    ModuleContext,
    Rule,
    register,
)

# --------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------- #

#: functions treated as loss code for the numerics / detach rules
LOSS_NAME_RE = re.compile(
    r"(loss|distill|retention|penalt|regulari[sz]|entropy|divergence"
    r"|likelihood|nll|(^|_)kd\d)",
    re.IGNORECASE,
)

#: functions treated as inference/evaluation entry points
EVAL_NAME_RE = re.compile(r"(evaluate|predict|snapshot|refresh|infer)",
                          re.IGNORECASE)

#: calls that build autograd graph nodes when invoked on a model
GRAPH_BUILDING_CALLS = frozenset(
    {"compute_interests", "embed_items", "loss_single", "loss_targets",
     "forward"}
)

#: ``np.random.<name>`` calls that are allowed (Generator construction)
_NP_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator",
     "PCG64", "Philox", "MT19937", "SFC64"}
)

#: stdlib ``random`` module functions that draw from (or reseed) its
#: hidden global state; a ``random.Random(seed)`` instance is fine
_PY_RANDOM_DRAWS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "sample", "shuffle", "gauss", "normalvariate", "betavariate",
    "expovariate", "lognormvariate", "paretovariate", "triangular",
    "vonmisesvariate", "weibullvariate", "getrandbits", "randbytes", "seed",
})

_GUARD_CALLS_LOG = frozenset({"clip", "maximum", "minimum", "log1p", "where"})
_GUARD_CALLS_EXP = frozenset({"clip", "maximum", "minimum", "abs", "log1p",
                              "tanh", "sigmoid"})
_REDUCTION_NAMES = frozenset({"sum", "mean", "norm", "std", "var", "prod"})
_EPS_NAME_RE = re.compile(r"eps", re.IGNORECASE)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``np.random.rand`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(func: ast.AST) -> Optional[str]:
    """The called name regardless of receiver: ``m.forward`` -> ``forward``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def is_buffer_access(node: ast.AST) -> bool:
    """True when the expression reaches into ``<x>.data`` / ``<x>.grad``
    through any chain of attribute/subscript accesses (no calls)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr in ("data", "grad"):
            return True
        node = node.value
    return False


def functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_small_const(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and 0 < abs(node.value) <= 0.1)


def _is_eps_name(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return bool(_EPS_NAME_RE.search(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_EPS_NAME_RE.search(node.attr))
    return False


def _collect_assignments(fn: ast.FunctionDef) -> Dict[str, List[Tuple[int, ast.expr]]]:
    """name -> [(lineno, value expr)] for simple single-target assigns."""
    out: Dict[str, List[Tuple[int, ast.expr]]] = {}
    for node in ast.walk(fn):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            out.setdefault(node.targets[0].id, []).append((node.lineno, node.value))
    return out


class _GuardScan:
    """Guard detection with one function's local dataflow.

    Resolves plain names through the function's simple assignments (the
    latest one textually above the use site) so idioms like::

        pred = pred.clip(eps, 1 - eps)
        return -pred.log().mean()

    count as guarded.
    """

    def __init__(self, fn: ast.FunctionDef):
        self._assignments = _collect_assignments(fn)

    def _resolve(self, name: str, before_line: int) -> Optional[ast.expr]:
        candidates = [(ln, expr) for ln, expr in self._assignments.get(name, [])
                      if ln < before_line]
        if not candidates:
            return None
        return max(candidates, key=lambda item: item[0])[1]

    def _scan(self, expr: ast.AST, use_line: int, predicate, seen: frozenset,
              depth: int) -> bool:
        for node in ast.walk(expr):
            if predicate(node):
                return True
            if (depth < 4 and isinstance(node, ast.Name)
                    and node.id not in seen):
                resolved = self._resolve(node.id, use_line)
                if resolved is not None and self._scan(
                        resolved, use_line, predicate, seen | {node.id},
                        depth + 1):
                    return True
        return False

    def has_log_guard(self, expr: ast.AST, use_line: int) -> bool:
        def predicate(node: ast.AST) -> bool:
            if isinstance(node, ast.Call):
                name = terminal_name(node.func)
                return name in _GUARD_CALLS_LOG or name == "log_softmax"
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                return any(_is_small_const(side) or _is_eps_name(side)
                           for side in (node.left, node.right))
            return False

        return self._scan(expr, use_line, predicate, frozenset(), 0)

    def has_exp_guard(self, expr: ast.AST, use_line: int) -> bool:
        def predicate(node: ast.AST) -> bool:
            if isinstance(node, ast.Call):
                return terminal_name(node.func) in _GUARD_CALLS_EXP
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                return True
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                return True
            return False

        return self._scan(expr, use_line, predicate, frozenset(), 0)

    def is_unguarded_reduction(self, expr: ast.AST, use_line: int) -> bool:
        """Denominator that is a bare sum/mean/norm reduction (no + eps)."""
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            return False  # reduction + eps: the idiomatic guard
        if isinstance(expr, ast.Call):
            return terminal_name(expr.func) in _REDUCTION_NAMES
        if isinstance(expr, ast.Name):
            resolved = self._resolve(expr.id, use_line)
            if resolved is not None:
                return self.is_unguarded_reduction(resolved, use_line)
        return False


def _loss_functions(ctx: ModuleContext) -> Iterator[ast.FunctionDef]:
    for fn in functions(ctx.tree):
        if LOSS_NAME_RE.search(fn.name):
            yield fn


# --------------------------------------------------------------------- #
# RA1xx — autograd graph safety
# --------------------------------------------------------------------- #


@register
class InPlaceTensorMutation(Rule):
    """RA101: only the substrate may mutate Tensor buffers in place."""

    id = "RA101"
    name = "tensor-inplace-mutation"
    severity = SEVERITY_ERROR
    summary = ("in-place mutation of Tensor.data/.grad (+=, slice assign, "
               "out=, ufunc.at) outside the autograd/nn substrate")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.is_substrate:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AugAssign) and is_buffer_access(node.target):
                yield self.finding(
                    ctx, node,
                    "in-place update of a Tensor buffer bypasses the autograd "
                    "tape; rebuild the value out-of-place or move this into "
                    "the substrate (repro.autograd / repro.nn)")
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Subscript)
                            and is_buffer_access(target)):
                        yield self.finding(
                            ctx, target,
                            "slice-assignment into a Tensor buffer mutates "
                            "tracked memory outside the tape")
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "out" and is_buffer_access(kw.value):
                        yield self.finding(
                            ctx, node,
                            "numpy out= aliasing a Tensor buffer mutates "
                            "tracked memory outside the tape")
                func = node.func
                if (isinstance(func, ast.Attribute) and func.attr == "at"
                        and node.args and is_buffer_access(node.args[0])):
                    yield self.finding(
                        ctx, node,
                        "ufunc.at scatters into a Tensor buffer outside "
                        "the tape")


@register
class DetachedDataArithmetic(Rule):
    """RA102: arithmetic on ``.data`` inside loss code detaches gradients."""

    id = "RA102"
    name = "detached-data-arithmetic"
    severity = SEVERITY_ERROR
    summary = ("arithmetic on Tensor.data inside loss code silently detaches "
               "the term from the gradient tape")

    def _wrapped_in_tensor(self, ctx: ModuleContext, node: ast.AST) -> bool:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.Call):
                name = terminal_name(ancestor.func)
                if name in ("Tensor", "detach"):
                    return True
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in _loss_functions(ctx):
            for node in ast.walk(fn):
                if not isinstance(node, ast.BinOp):
                    continue
                for side in (node.left, node.right):
                    if is_buffer_access(side) and not self._wrapped_in_tensor(ctx, side):
                        yield self.finding(
                            ctx, side,
                            f"'.data' arithmetic in loss function "
                            f"'{fn.name}' detaches this term from the "
                            f"gradient tape; wrap an intentional constant "
                            f"in Tensor(...) or suppress with "
                            f"'# repro: noqa[RA102]' plus a justification")


@register
class MissingNoGrad(Rule):
    """RA103: inference entry points must not build autograd graphs."""

    id = "RA103"
    name = "missing-no-grad"
    severity = SEVERITY_ERROR
    summary = ("evaluation/snapshot entry points calling graph-building "
               "model methods without a no_grad() context")

    def _has_no_grad(self, fn: ast.FunctionDef) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        expr = expr.func
                    if terminal_name(expr) == "no_grad":
                        return True
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in functions(ctx.tree):
            if not EVAL_NAME_RE.search(fn.name):
                continue
            if self._has_no_grad(fn):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and terminal_name(node.func) in GRAPH_BUILDING_CALLS):
                    yield self.finding(
                        ctx, node,
                        f"'{fn.name}' looks like an inference entry point "
                        f"but calls graph-building "
                        f"'{terminal_name(node.func)}' outside a no_grad() "
                        f"context, recording a throwaway backward graph")
                    break  # one finding per function is enough


# --------------------------------------------------------------------- #
# RA2xx — randomness discipline
# --------------------------------------------------------------------- #


@register
class GlobalNumpyRandom(Rule):
    """RA201: draws must come from a threaded, seeded Generator."""

    id = "RA201"
    name = "global-np-random"
    severity = SEVERITY_ERROR
    summary = ("call into the legacy global np.random state or the stdlib "
               "random module instead of a seeded generator")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # names the stdlib ``random`` module is bound to (``import
        # random [as r]``)
        stdlib_random = {alias.asname or alias.name
                         for node in ast.walk(ctx.tree)
                         if isinstance(node, ast.Import)
                         for alias in node.names if alias.name == "random"}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if (len(parts) == 3 and parts[0] in ("np", "numpy")
                    and parts[1] == "random"
                    and parts[2] not in _NP_RANDOM_OK):
                yield self.finding(
                    ctx, node,
                    f"'{name}' draws from the global numpy RNG, breaking "
                    f"run-to-run reproducibility; thread a seeded "
                    f"np.random.Generator instead")
            elif (len(parts) == 2 and parts[0] in stdlib_random
                    and parts[1] in _PY_RANDOM_DRAWS):
                yield self.finding(
                    ctx, node,
                    f"'{name}' draws from the stdlib random module's global "
                    f"state, breaking run-to-run reproducibility; thread a "
                    f"seeded np.random.Generator (or random.Random(seed))")


@register
class UnseededDefaultRng(Rule):
    """RA202: ``default_rng()`` without a seed is entropy-seeded."""

    id = "RA202"
    name = "unseeded-default-rng"
    severity = SEVERITY_ERROR
    summary = "np.random.default_rng() constructed without an explicit seed"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in ("np.random.default_rng", "numpy.random.default_rng",
                        "default_rng"):
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        "default_rng() with no seed draws OS entropy; every "
                        "run of an experiment would differ — pass a seed "
                        "derived from the experiment config")


# --------------------------------------------------------------------- #
# RA3xx — loss-code numerics
# --------------------------------------------------------------------- #


@register
class UnguardedLog(Rule):
    """RA301: ``log`` in loss code needs an epsilon/clip guard."""

    id = "RA301"
    name = "unguarded-log"
    severity = SEVERITY_ERROR
    summary = "np.log()/.log() in loss code without an epsilon or clip guard"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in _loss_functions(ctx):
            scan = _GuardScan(fn)
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                arg: Optional[ast.AST] = None
                if name in ("np.log", "numpy.log") and node.args:
                    arg = node.args[0]
                elif (isinstance(node.func, ast.Attribute)
                      and node.func.attr == "log"
                      and dotted_name(node.func.value) not in ("np", "numpy",
                                                               "math")):
                    arg = node.func.value
                if arg is None:
                    continue
                if not scan.has_log_guard(arg, node.lineno):
                    yield self.finding(
                        ctx, node,
                        f"log of a possibly-zero quantity in loss function "
                        f"'{fn.name}'; clip the argument or add an epsilon "
                        f"(e.g. (x + 1e-9).log())")


@register
class UnguardedExp(Rule):
    """RA302: ``exp`` of unbounded logits in loss code overflows."""

    id = "RA302"
    name = "unguarded-exp"
    severity = SEVERITY_WARNING
    summary = ("np.exp()/.exp() of unshifted logits in loss code (overflow "
               "risk; subtract the max or clip first)")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in _loss_functions(ctx):
            scan = _GuardScan(fn)
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                arg: Optional[ast.AST] = None
                if name in ("np.exp", "numpy.exp") and node.args:
                    arg = node.args[0]
                elif (isinstance(node.func, ast.Attribute)
                      and node.func.attr == "exp"
                      and dotted_name(node.func.value) not in ("np", "numpy",
                                                               "math")):
                    arg = node.func.value
                if arg is None:
                    continue
                if not scan.has_exp_guard(arg, node.lineno):
                    yield self.finding(
                        ctx, node,
                        f"exp of unshifted logits in loss function "
                        f"'{fn.name}' can overflow to inf; subtract the "
                        f"row max (stable-softmax idiom) or clip")


@register
class UnguardedDivision(Rule):
    """RA303: dividing by a bare reduction in loss code risks 0/0."""

    id = "RA303"
    name = "unguarded-division"
    severity = SEVERITY_WARNING
    summary = ("division by a bare sum()/norm()/mean() reduction in loss "
               "code without '+ eps'")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in _loss_functions(ctx):
            scan = _GuardScan(fn)
            for node in ast.walk(fn):
                if not (isinstance(node, ast.BinOp)
                        and isinstance(node.op, ast.Div)):
                    continue
                if scan.is_unguarded_reduction(node.right, node.lineno):
                    yield self.finding(
                        ctx, node,
                        f"division by a bare reduction in loss function "
                        f"'{fn.name}' — a zero denominator yields nan/inf "
                        f"and poisons the whole parameter update; add "
                        f"'+ eps'")


# --------------------------------------------------------------------- #
# RA4xx — general hygiene
# --------------------------------------------------------------------- #


@register
class MutableDefaultArgument(Rule):
    """RA401: list/dict/set default arguments are shared across calls."""

    id = "RA401"
    name = "mutable-default-arg"
    severity = SEVERITY_ERROR
    summary = "mutable default argument (shared across calls)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in functions(ctx.tree):
            defaults = list(fn.args.defaults) + [
                d for d in fn.args.kw_defaults if d is not None
            ]
            for default in defaults:
                bad = isinstance(default, (ast.List, ast.Dict, ast.Set))
                if (isinstance(default, ast.Call)
                        and terminal_name(default.func) in ("list", "dict",
                                                            "set")):
                    bad = True
                if bad:
                    yield self.finding(
                        ctx, default,
                        f"mutable default in '{fn.name}' is evaluated once "
                        f"and shared across every call; default to None and "
                        f"construct inside the body")


@register
class OverbroadExcept(Rule):
    """RA402: bare/overbroad excepts hide substrate bugs."""

    id = "RA402"
    name = "overbroad-except"
    severity = SEVERITY_ERROR
    summary = "bare 'except:' or silently-swallowing 'except Exception'"

    def _swallows(self, handler: ast.ExceptHandler) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis)
            for stmt in handler.body
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt "
                    "and masks substrate bugs; name the exceptions")
            elif (isinstance(node.type, ast.Name)
                  and node.type.id in ("Exception", "BaseException")
                  and self._swallows(node)):
                yield self.finding(
                    ctx, node,
                    f"'except {node.type.id}: pass' silently swallows every "
                    f"failure; narrow the exception or handle it")


# --------------------------------------------------------------------- #
# RA9xx — compute-backend discipline
# --------------------------------------------------------------------- #

#: raw numpy GEMM-family entry points that bypass ``repro.backend``
_RAW_GEMM_CALLS = frozenset(
    {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}
)

#: ufuncs whose ``.at`` form scatters in place
_SCATTER_UFUNCS = frozenset(
    {"add", "subtract", "multiply", "divide", "maximum", "minimum"}
)

#: modules that *implement* the backend (or the substrate's own gather /
#: scatter internals) and therefore get to call BLAS directly
_BACKEND_IMPL_PREFIXES = ("repro.backend",)
_BACKEND_IMPL_MODULES = frozenset({"repro.autograd.tensor"})


@register
class RawBlasBypassesBackend(Rule):
    """RA901: GEMM/scatter must route through ``repro.backend.active``."""

    id = "RA901"
    name = "raw-blas-bypasses-backend"
    severity = SEVERITY_ERROR
    summary = ("direct np.dot/np.matmul/np.einsum/np.<ufunc>.at call "
               "bypasses the pluggable compute backend")

    def _exempt(self, ctx: ModuleContext) -> bool:
        return (ctx.module.startswith(_BACKEND_IMPL_PREFIXES)
                or ctx.module in _BACKEND_IMPL_MODULES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if self._exempt(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) == 2 and parts[0] in ("np", "numpy"):
                if parts[1] in _RAW_GEMM_CALLS:
                    yield self.finding(
                        ctx, node,
                        f"'{name}' calls BLAS directly, so the backend and "
                        f"its profiler instrumentation cannot see it; use "
                        f"repro.backend.active.einsum or the Tensor @ "
                        f"operator")
            elif (len(parts) == 3 and parts[0] in ("np", "numpy")
                    and parts[1] in _SCATTER_UFUNCS and parts[2] == "at"
                    and node.args and is_buffer_access(node.args[0])):
                # scatter into a Tensor buffer; scratch arrays are fine
                yield self.finding(
                    ctx, node,
                    f"'{name}' scatters into a Tensor buffer behind the "
                    f"backend's back; use repro.backend.active.scatter_add")

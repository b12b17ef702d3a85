"""The repository's rule set: RA201, no draws from global RNG state.

The rule has a firing and a non-firing fixture under
``tests/analysis_fixtures/`` and is documented in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from .core import SEVERITY_ERROR, Finding, ModuleContext, Rule, register

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

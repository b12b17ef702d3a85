"""Property tests for runtime contract enforcement.

For a seeded generator of random shape assignments:

* every *consistent* assignment must be accepted at runtime on the real
  annotated functions;
* every *mutant* assignment (one symbolic dim perturbed) must be rejected
  at runtime;
* a function body whose mutation is a code transposition rather than a
  data perturbation must fail under enforcement.
"""

import numpy as np
import pytest

from repro.contracts import ContractViolation, enforced
from repro.eval.metrics import rank_of_target
from repro.incremental.imsr.eir import sigmoid_distillation_loss
from repro.incremental.imsr.nid import kl_from_uniform, puzzlement
from repro.incremental.imsr.pit import orthogonal_residual, projection_matrix
from repro.models.aggregator import attention_scores, score_items
from repro.autograd import Tensor
from repro.autograd.ops import dot_rows

RNG = np.random.default_rng(20230806)
TRIALS = 20


def dims(*names):
    return {name: int(RNG.integers(1, 9)) for name in names}


# (function, builder) — builder maps a symbol assignment to call args.
# Every entry is one annotated function exercised with random dims.
CASES = [
    ("kl_from_uniform", lambda s: (
        kl_from_uniform, (RNG.normal(size=(s["N"], s["D"])),
                          RNG.normal(size=(s["K"], s["D"]))))),
    ("puzzlement", lambda s: (
        puzzlement, (RNG.normal(size=(s["N"], s["D"])),
                     RNG.normal(size=(s["K"], s["D"]))))),
    ("orthogonal_residual", lambda s: (
        orthogonal_residual, (RNG.normal(size=(s["N"], s["D"])),
                              RNG.normal(size=(s["K"], s["D"]))))),
    ("projection_matrix", lambda s: (
        projection_matrix, (RNG.normal(size=(s["K"], s["D"])),))),
    ("score_items", lambda s: (
        score_items, (RNG.normal(size=(s["K"], s["D"])),
                      RNG.normal(size=(s["N"], s["D"]))))),
    ("attention_scores", lambda s: (
        attention_scores, (RNG.normal(size=(s["K"], s["D"])),
                           RNG.normal(size=s["D"])))),
    ("dot_rows", lambda s: (
        dot_rows, (Tensor(RNG.normal(size=(s["N"], s["D"]))),
                   Tensor(RNG.normal(size=(s["N"], s["D"])))))),
    ("sigmoid_distillation_loss", lambda s: (
        sigmoid_distillation_loss,
        (Tensor(RNG.normal(size=(s["K"] + 1, s["D"]))),
         RNG.normal(size=(s["K"], s["D"])),
         Tensor(RNG.normal(size=(s["N"], s["D"])))))),
]


@pytest.mark.parametrize("name,builder", CASES, ids=[c[0] for c in CASES])
def test_consistent_random_shapes_accepted(name, builder):
    with enforced(True):
        for _ in range(TRIALS):
            fn, args = builder(dims("N", "K", "D"))
            fn(*args)  # must not raise


MUTANTS = [
    ("kl_from_uniform", lambda s: (
        kl_from_uniform, (RNG.normal(size=(s["N"], s["D"])),
                          RNG.normal(size=(s["K"], s["D"] + 1))))),
    ("puzzlement_1d_items", lambda s: (
        puzzlement, (RNG.normal(size=s["D"]),
                     RNG.normal(size=(s["K"], s["D"]))))),
    ("orthogonal_residual", lambda s: (
        orthogonal_residual, (RNG.normal(size=(s["N"], s["D"])),
                              RNG.normal(size=(s["K"], s["D"] + 1))))),
    ("score_items_wrong_item_dim", lambda s: (
        score_items, (RNG.normal(size=(s["K"], s["D"])),
                      RNG.normal(size=(s["N"], s["D"] + 1))))),
    ("attention_scores_matrix_query", lambda s: (
        attention_scores, (RNG.normal(size=(s["K"], s["D"])),
                           RNG.normal(size=(s["D"], 1))))),
    ("dot_rows_row_mismatch", lambda s: (
        dot_rows, (Tensor(RNG.normal(size=(s["N"], s["D"]))),
                   Tensor(RNG.normal(size=(s["N"] + 1, s["D"])))))),
    ("rank_of_target_2d_scores", lambda s: (
        rank_of_target, (RNG.normal(size=(s["N"], 1)), 0))),
]


@pytest.mark.parametrize("name,builder", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_shapes_rejected(name, builder):
    with enforced(True):
        for _ in range(TRIALS):
            fn, args = builder(dims("N", "K", "D"))
            with pytest.raises(ContractViolation):
                fn(*args)


# ---- a transposition mutant in the body ------------------------------ #

SNIPPET = '''
from repro.contracts import shape_contract

@shape_contract("(N, D) f, (K, D) f -> (N, K) f")
def affinity(items, interests):
    return items @ interests{transpose}
'''


@pytest.mark.parametrize("transpose,expect_bad", [(".T", False), ("", True)])
def test_transposition_verdict_at_runtime(transpose, expect_bad):
    source = SNIPPET.format(transpose=transpose)
    namespace = {}
    exec(compile(source, "agreement.py", "exec"), namespace)
    fn = namespace["affinity"]
    with enforced(True):
        for _ in range(TRIALS):
            s = dims("N", "K", "D")
            if expect_bad and s["K"] == s["D"]:
                # with K == D the transposition is shape-invisible (to
                # numpy AND to any shape checker) — not a fair mutant
                s["K"] += 1
            items = RNG.normal(size=(s["N"], s["D"]))
            interests = RNG.normal(size=(s["K"], s["D"]))
            if expect_bad:
                # the un-transposed body trips numpy's own matmul check
                with pytest.raises(ValueError):
                    fn(items, interests)
            else:
                assert fn(items, interests).shape == (s["N"], s["K"])

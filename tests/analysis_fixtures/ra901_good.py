"""RA901 silent: the same math routed through the active backend."""

from repro import backend as _backend


def extract(e_hat, capsules, coupling):
    ein = _backend.active.einsum
    logits = ein("nd,kd->nk", e_hat, capsules)
    pooled = ein("nk,nd->kd", coupling, e_hat)
    score = float(pooled[0] @ capsules[0])  # the @ operator is fine
    return logits, pooled, score


def accumulate(table, idx, rows):
    _backend.active.scatter_add(table.grad, idx, rows)

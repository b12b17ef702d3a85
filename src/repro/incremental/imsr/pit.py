"""PIT — Projection-based Interests Trimmer (paper Section IV-D, Alg. 1).

After NID allocates ``δK`` fresh interest vectors, PIT keeps only what is
genuinely *new*:

1. **Projection** (Eq. 16): each new interest vector is projected onto the
   span of the existing interest vectors, and only the orthogonal residual
   is kept — a new vector lying in the existing interests' plane is just a
   recombination of old interests.  The paper's formula
   ``M Mᵀ (M Mᵀ)⁻¹`` is rank-deficient for K < d; we use the standard
   orthogonal projector ``P = M (MᵀM)⁻¹ Mᵀ`` (via pseudo-inverse), which
   is what the prose describes (see DESIGN.md).
2. **Trimming** (Eq. 17): new vectors whose L2 norm falls below ``c2``
   carry no real semantics (capsule norms encode interest existence) and
   are removed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ...autograd import Tensor, concat


def projection_matrix(existing: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the row-span of ``existing`` ((K, d)).

    Returns a (d, d) matrix ``P`` with ``P @ v`` the component of ``v``
    inside the existing interests' plane.
    """
    if existing.size == 0:
        return np.zeros((0, 0))
    # build from an orthonormal row basis (SVD) rather than the normal
    # equations M (M^T M)^+ M^T, which square the condition number and
    # lose idempotency on nearly-collinear interests
    _, s, vt = np.linalg.svd(existing, full_matrices=False)
    cutoff = np.finfo(s.dtype).eps * max(existing.shape) * (s[0] if s.size else 0.0)
    basis = vt[s > cutoff]  # (rank, d), orthonormal rows
    return basis.T @ basis


def project_new_interests(interests: Tensor, n_existing: int) -> Tensor:
    """In-graph PIT projection of the rows ``[n_existing:]``.

    The projector is built from the *detached* existing rows, so gradients
    flow through the new interests' residuals but the basis is treated as
    a constant — matching Algorithm 1, where projection is an action on
    the extracted vectors rather than a learned map.
    """
    k_total = interests.shape[0]
    if n_existing <= 0 or n_existing >= k_total:
        return interests
    existing = interests[:n_existing]
    new = interests[n_existing:]
    proj = projection_matrix(existing.data)  # constant (d, d)
    residual = new - new @ Tensor(proj.T)
    return concat([existing, residual], axis=0)


def trim_mask(interests: np.ndarray, n_existing: int, c2: float,
              created_this_span: np.ndarray) -> np.ndarray:
    """Eq. 17: boolean keep-mask over interest rows.

    Only rows created in the current span may be trimmed; existing
    interests are always kept (they are EIR's responsibility).
    """
    k_total = interests.shape[0]
    keep = np.ones(k_total, dtype=bool)
    norms = np.linalg.norm(interests, axis=1)
    for idx in range(n_existing, k_total):
        if created_this_span[idx] and norms[idx] < c2:
            keep[idx] = False
    return keep


def redundancy_report(
    interests: np.ndarray,
    n_existing: int,
    item_embs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Diagnostics behind the paper's Figure 3.

    For every (existing, new) interest pair, the Pearson correlation of
    their dot-product profiles over the user's items (high correlation =
    the new interest is redundant), plus the L2 norm of each new interest
    (low norm = the interest learned nothing).

    Returns ``(corr, norms)`` with ``corr`` of shape
    ``(K_new, K_existing)`` and ``norms`` of shape ``(K_new,)``.
    """
    profiles = item_embs @ interests.T  # (n, K)
    existing_profiles = profiles[:, :n_existing]
    new_profiles = profiles[:, n_existing:]
    k_new = new_profiles.shape[1]
    k_old = existing_profiles.shape[1]
    corr = np.zeros((k_new, k_old))
    for i in range(k_new):
        for j in range(k_old):
            a = new_profiles[:, i]
            b = existing_profiles[:, j]
            denom = a.std() * b.std()
            corr[i, j] = ((a - a.mean()) * (b - b.mean())).mean() / denom if denom > 1e-12 else 0.0
    norms = np.linalg.norm(interests[n_existing:], axis=1)
    return corr, norms

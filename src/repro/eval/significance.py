"""Paired significance testing (the paper's two-tailed pairwise t-test)."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Two-tailed paired t-test; returns ``(t_statistic, p_value)``.

    Inputs are per-case metric values (e.g. per-user hits) from two
    methods on the same cases.  ``scipy.stats`` is imported on the first
    call: it is the only scipy user, and importing it costs about half a
    second and 65 MB that runs without a Table III test never need.
    """
    from scipy import stats

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("paired test requires equal-length samples")
    if a.size < 2:
        return 0.0, 1.0
    if np.allclose(a, b):
        return 0.0, 1.0
    t_stat, p_value = stats.ttest_rel(a, b)
    return float(t_stat), float(p_value)

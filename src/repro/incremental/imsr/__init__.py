"""IMSR: existing-interests retainer, new-interests detector, trimmer."""

from .eir import euclidean_retention_loss, sigmoid_distillation_loss
from .nid import kl_from_uniform, mean_puzzlement, puzzlement
from .pit import (
    project_new_interests,
    projection_matrix,
    redundancy_report,
    trim_mask,
)
from .variants import RETAINERS, get_retainer
from .framework import IMSR

__all__ = [
    "IMSR",
    "sigmoid_distillation_loss",
    "euclidean_retention_loss",
    "puzzlement",
    "kl_from_uniform",
    "mean_puzzlement",
    "projection_matrix",
    "project_new_interests",
    "trim_mask",
    "redundancy_report",
    "RETAINERS",
    "get_retainer",
]

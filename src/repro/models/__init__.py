"""Base multi-interest sequential recommendation models."""

from .base import MSRModel, UserState
from .aggregator import attention_scores, score_items, score_items_batch
from .routing import b2i_routing
from .sampled_softmax import batch_sampled_softmax_loss
from .mind import MIND
from .comirec_dr import ComiRecDR
from .comirec_sa import ComiRecSA
from .batched_train import (
    batched_compute_interests,
    batched_loss_targets,
    batched_snapshot_interests,
    supports_batched_training,
)

MODEL_REGISTRY = {
    "MIND": MIND,
    "ComiRec-DR": ComiRecDR,
    "ComiRec-SA": ComiRecSA,
}


def make_model(name: str, num_items: int, **kwargs) -> MSRModel:
    """Instantiate a base model by its paper name."""
    if name not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; options: {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[name](num_items, **kwargs)


__all__ = [
    "MSRModel",
    "UserState",
    "MIND",
    "ComiRecDR",
    "ComiRecSA",
    "MODEL_REGISTRY",
    "make_model",
    "attention_scores",
    "score_items",
    "score_items_batch",
    "b2i_routing",
    "batch_sampled_softmax_loss",
    "batched_compute_interests",
    "batched_loss_targets",
    "batched_snapshot_interests",
    "supports_batched_training",
]

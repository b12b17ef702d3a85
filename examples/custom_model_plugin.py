#!/usr/bin/env python3
"""Extending the library: plug a custom MSR model into IMSR.

The incremental strategies only depend on the :class:`repro.models.MSRModel`
interface — ``compute_interests`` plus the user-state hooks.  This example
implements a *mean-pooling multi-interest* model (each interest attends a
soft window of the sequence) from scratch on the autograd substrate and
runs the full IMSR framework on top of it, unchanged.

Run:  python examples/custom_model_plugin.py
"""

from typing import Sequence

import numpy as np

from repro.autograd import Tensor
from repro.autograd.ops import softmax
from repro.data import load_dataset
from repro.eval import average_results, evaluate_span
from repro.experiments import default_config
from repro.incremental import IMSR, FineTune
from repro.models import MSRModel, UserState
from repro.nn import Parameter, init

class WindowedMeanMSR(MSRModel):
    """Each interest k pools the sequence with a learned position profile.

    Simpler than dynamic routing or self-attention, but still produces a
    (K, d) interest matrix, so EIR/NID/PIT apply without modification.
    """

    family = "dr"
    MAX_LEN = 256

    def __init__(self, num_items: int, dim: int = 32, num_interests: int = 4,
                 seed: int = 0):
        super().__init__(num_items, dim=dim, num_interests=num_interests,
                         seed=seed)
        # positional logits per interest slot (shared across users)
        self.position_logits = Parameter(
            init.normal((16, self.MAX_LEN), self.rng, std=0.5))

    def compute_interests(self, state: UserState, item_seq: Sequence[int]) -> Tensor:
        if len(item_seq) == 0:
            raise ValueError("empty sequence")
        n = min(len(item_seq), self.MAX_LEN)
        embs = self.embed_items(list(item_seq)[-n:])            # (n, d)
        k = state.num_interests
        logits = self.position_logits[:k, :n]                    # (K, n)
        # warm-start: bias the pooling toward items near stored interests
        warm = Tensor(state.interests[:k] @ embs.data.T)         # (K, n)
        weights = softmax(logits + warm, axis=1)                 # (K, n)
        return weights @ embs                                    # (K, d)

def main() -> None:
    world, split = load_dataset("electronics", scale=0.5)
    config = default_config(epochs_pretrain=8, epochs_incremental=3, seed=0)

    def build(strategy_cls, **kwargs):
        model = WindowedMeanMSR(split.num_items, dim=32, num_interests=4,
                                seed=0)
        return strategy_cls(model, split, config, **kwargs)

    for label, strategy in (
        ("FT  + custom model", build(FineTune)),
        ("IMSR + custom model", build(IMSR)),
    ):
        strategy.pretrain()
        results = []
        for t in range(1, split.T):
            strategy.train_span(t)
            results.append(evaluate_span(strategy.score_users, split.spans[t],
                                         targets="all"))
        avg = average_results(results)
        mean_k = np.mean([s.num_interests for s in strategy.states.values()])
        print(f"{label}: HR@20={avg.hr:.3f}  NDCG@20={avg.ndcg:.3f}  "
              f"mean interests={mean_k:.2f}")

if __name__ == "__main__":
    main()

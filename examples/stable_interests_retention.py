#!/usr/bin/env python3
"""Scenario: a books platform with stable user interests.

The paper's ablation (Fig. 5) finds that on Books — where interests are
stable — the existing-interests retainer (EIR) matters most: removing it
makes IMSR *worse than plain fine-tuning*, because new-interest capsules
interfere with old interests that were doing all the work.

This example reproduces that contrast on the `books` preset:

* IMSR (full)        — EIR + NID + PIT;
* IMSR w/o EIR       — expansion but no retention;
* IMSR(DIR)          — Euclidean anchoring instead of distillation;
* FT                 — no retention, no expansion.

It also prints how far each user's existing interests drifted from their
pre-span positions, the quantity EIR controls.

Run:  python examples/stable_interests_retention.py
"""

import numpy as np

from repro.data import load_dataset
from repro.eval import average_results, evaluate_span
from repro.experiments import default_config, make_strategy

VARIANTS = [
    ("IMSR (full)", "IMSR", {}),
    ("IMSR w/o EIR", "IMSR", {"kd_weight": 0.0}),
    ("IMSR (DIR)", "IMSR", {"retainer": "DIR"}),
    ("FT", "FT", {}),
]

def interest_drift(strategy) -> float:
    """Mean L2 drift of existing interests from their span-start snapshot."""
    drifts = []
    for state in strategy.states.values():
        k = min(state.n_existing, state.num_interests,
                state.prev_interests.shape[0])
        if k == 0:
            continue
        drifts.append(float(np.linalg.norm(
            state.interests[:k] - state.prev_interests[:k], axis=1).mean()))
    return float(np.mean(drifts)) if drifts else 0.0

def main() -> None:
    world, split = load_dataset("books", scale=0.6)
    config = default_config(epochs_pretrain=8, epochs_incremental=3, seed=3)

    print(f"{'variant':<14} {'avg HR@20':>9} {'avg drift':>9}")
    for label, strategy_name, kwargs in VARIANTS:
        strategy = make_strategy(strategy_name, "ComiRec-DR", split, config,
                                 strategy_kwargs=kwargs)
        strategy.pretrain()
        results, drifts = [], []
        for t in range(1, split.T):
            strategy.train_span(t)
            results.append(evaluate_span(strategy.score_users, split.spans[t],
                                         targets="all"))
            drifts.append(interest_drift(strategy))
        avg = average_results(results)
        print(f"{label:<14} {avg.hr:>9.3f} {np.mean(drifts):>9.3f}")

if __name__ == "__main__":
    main()

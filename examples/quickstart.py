#!/usr/bin/env python3
"""Quickstart: incremental multi-interest recommendation in ~40 lines.

Generates a small synthetic interaction stream, pretrains a ComiRec-DR
base model, then updates it span by span with IMSR — watching interest
counts grow as users develop new interests — and compares against plain
fine-tuning.

Run:  python examples/quickstart.py
"""

from repro.data import load_dataset
from repro.eval import evaluate_span
from repro.experiments import default_config, make_strategy

def main() -> None:
    # 1. Data: a Taobao-like preset — many items, fast interest change.
    #    The paper's protocol: a pretraining window plus T=6 spans.
    world, split = load_dataset("taobao", scale=0.5)
    print(f"users={split.num_users}  items={split.num_items}  spans={split.T}")

    config = default_config(epochs_pretrain=8, epochs_incremental=3, seed=0)

    for name in ("FT", "IMSR"):
        # 2. Strategy = base model (ComiRec-DR) + incremental learning rule.
        strategy = make_strategy(name, "ComiRec-DR", split, config)
        strategy.pretrain()

        # 3. Per span: train on the new interactions only, then test on the
        #    *next* span's interactions (all unseen at that point).
        print(f"\n[{name}]")
        for t in range(1, split.T):
            strategy.train_span(t)
            result = evaluate_span(strategy.score_users, split.spans[t],
                                   targets="all")
            counts = strategy.interest_counts()
            mean_k = sum(counts.values()) / len(counts)
            print(f"  span {t}: HR@20={result.hr:.3f}  "
                  f"NDCG@20={result.ndcg:.3f}  mean interests={mean_k:.2f}")

if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Scenario: an e-commerce platform with a fast-growing catalog.

This is the workload the paper's introduction motivates: users suddenly
develop new interests (the computer-gamer who starts buying baby-care
products), and a model with a fixed number of interest vectors either
overwrites old interests or fails to capture new ones.

We build a custom world with aggressive catalog growth and new-interest
adoption, then show:

* NID's expansion log — which users got new interest capsules and when;
* how IMSR's interest count tracks the ground-truth topic adoption;
* HR on *new* vs *existing* items for FT vs IMSR.

Run:  python examples/catalog_growth_ecommerce.py
"""

import numpy as np

from repro.data import WorldConfig, load_custom
from repro.eval import evaluate_span
from repro.experiments import default_config, make_strategy

def main() -> None:
    config = WorldConfig(
        num_users=80,
        num_items=900,
        num_topics=40,
        new_topic_rate=0.6,            # interests change fast
        new_topics_range=(1, 3),
        initial_catalog_fraction=0.5,  # half the catalog appears later
        num_spans=6,
        seed=42,
    )
    world, split = load_custom(config)
    train_config = default_config(epochs_pretrain=8, epochs_incremental=3,
                                  seed=1)

    imsr = make_strategy("IMSR", "ComiRec-DR", split, train_config)
    ft = make_strategy("FT", "ComiRec-DR", split, train_config)
    for strategy in (imsr, ft):
        strategy.pretrain()

    seen: dict = {u: set() for u in range(config.num_users)}
    for user in split.pretrain.user_ids():
        seen[user].update(split.pretrain.users[user].all_items)

    print("span | ground-truth adopters | NID-expanded | mean K (IMSR)")
    for t in range(1, split.T):
        imsr.train_span(t)
        ft.train_span(t)
        adopters = world.new_topic_users(t)
        expanded = imsr.expansion_log.get(t, [])
        mean_k = np.mean([s.num_interests for s in imsr.states.values()])
        print(f"  {t}  |   {len(adopters):3d}                 |"
              f"   {len(expanded):3d}        |  {mean_k:.2f}")
        for user in split.spans[t - 1].user_ids():
            seen[user].update(split.spans[t - 1].users[user].all_items)

    # Final-span evaluation, split by whether the user saw the item before.
    last = split.spans[split.T - 1]
    def split_eval(strategy):
        existing = evaluate_span(
            strategy.score_users, last, targets="all",
            item_filter=lambda u, i: i in seen.get(u, set()))
        new = evaluate_span(
            strategy.score_users, last, targets="all",
            item_filter=lambda u, i: i not in seen.get(u, set()))
        return existing.hr, new.hr

    print("\nfinal span HR@20 (existing items / new items):")
    for name, strategy in (("IMSR", imsr), ("FT", ft)):
        ex_hr, new_hr = split_eval(strategy)
        print(f"  {name}: {ex_hr:.3f} / {new_hr:.3f}")

if __name__ == "__main__":
    main()

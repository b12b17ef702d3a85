"""Figure 7 — three case studies (paper Section V-E).

(a) **Existing vs. new items**: split the last span's test cases by
    whether the user interacted with the test item in earlier spans.
    FR wins on existing items, FT wins on new items, IMSR balances both.
(b) **Interest-evolution trajectory**: per-span snapshots of one user's
    interest vectors, reduced to 2-D by PCA (standing in for t-SNE):
    retained interests stay near their previous positions (EIR), new
    interests appear in new places (NID + PIT).
(c) **Early interests still matter**: the heatmap of attention scores
    between interests (grouped by creation span) and the last span's
    target items; the paper finds >50% of users' best-attention interest
    was created in the first two spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..data import load_dataset
from ..eval.evaluator import evaluate_span
from ..incremental import TrainConfig
from ..incremental.imsr import IMSR
from ..models.aggregator import attention_scores
from .reporting import format_table, shape_check
from .runner import default_config, make_strategy


@dataclass
class Fig7Result:
    #: (a) strategy -> {"existing": HR, "new": HR, "all": HR}
    item_type_hr: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: (b) user id and span -> (K_t, 2) PCA coordinates of interests
    trajectory_user: int = -1
    trajectory: Dict[int, np.ndarray] = field(default_factory=dict)
    #: per-span creation tags aligned with the trajectory rows
    trajectory_created: Dict[int, np.ndarray] = field(default_factory=dict)
    #: (c) fraction of users whose top-attention interest was created in
    #: spans <= 1 and <= 2, plus one user's heatmap
    early_interest_share: Dict[int, float] = field(default_factory=dict)
    heatmap: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    heatmap_created: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for strategy, groups in sorted(self.item_type_hr.items()):
            row: Dict[str, object] = {"strategy": strategy}
            row.update({k: float(v) for k, v in groups.items()})
            rows.append(row)
        return rows

    def format(self) -> str:
        parts = ["(a) HR by test-item type:", format_table(self.rows())]
        parts.append("(c) share of users whose best-attention interest was "
                     f"created by span 1 / 2: "
                     f"{self.early_interest_share.get(1, 0.0):.2f} / "
                     f"{self.early_interest_share.get(2, 0.0):.2f}")
        return "\n".join(parts)

    def shape_checks(self) -> List[Dict[str, object]]:
        checks = []
        a = self.item_type_hr
        if {"FR", "FT", "IMSR"} <= set(a):
            checks.append(shape_check(
                "FR beats FT on existing items",
                a["FR"]["existing"] > a["FT"]["existing"]))
            checks.append(shape_check(
                "FT is at least competitive with FR on new items",
                a["FT"]["new"] >= a["FR"]["new"] - 1e-9))
            checks.append(shape_check(
                "IMSR is within the FR-FT envelope or better on both item types",
                a["IMSR"]["existing"] >= min(a["FT"]["existing"], a["FR"]["existing"])
                and a["IMSR"]["new"] >= min(a["FT"]["new"], a["FR"]["new"])))
        if self.trajectory:
            checks.append(shape_check(
                "retained interests move less between spans than distinct "
                "interests sit apart (EIR visual)",
                _retention_drift_ratio(self) < 1.0))
        if self.early_interest_share:
            checks.append(shape_check(
                "early interests (span <= 2) win attention for a sizable "
                "share of users (> 30%)",
                self.early_interest_share.get(2, 0.0) > 0.30))
        return checks


def _retention_drift_ratio(result: Fig7Result) -> float:
    """Mean per-span movement of a retained interest, relative to the mean
    distance between *distinct* interests within a span.

    The paper's visual claim is that an interest's positions across spans
    cluster together while different interests sit apart; a ratio below 1
    means an interest stays closer to its former self than to its
    neighbours (lower = stickier = EIR works)."""
    moves: List[float] = []
    separations: List[float] = []
    spans = sorted(result.trajectory)
    for prev, cur in zip(spans, spans[1:]):
        a, b = result.trajectory[prev], result.trajectory[cur]
        shared = min(len(a), len(b))
        if shared == 0:
            continue
        moves.extend(np.linalg.norm(b[:shared] - a[:shared], axis=1).tolist())
        for i in range(len(b)):
            for j in range(i + 1, len(b)):
                separations.append(float(np.linalg.norm(b[i] - b[j])))
    if not moves or not separations or np.mean(separations) == 0:
        return 1.0
    return float(np.mean(moves) / np.mean(separations))


def _pca_2d(points: np.ndarray, basis: Optional[np.ndarray] = None) -> np.ndarray:
    """Project (n, d) points to 2-D with PCA (a deterministic stand-in
    for the paper's t-SNE)."""
    if basis is None:
        centered = points - points.mean(axis=0, keepdims=True)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        basis = vt[:2].T
    return points @ basis


def run_fig7(
    dataset: str = "taobao",
    model: str = "ComiRec-DR",
    scale: float = 1.0,
    config: Optional[TrainConfig] = None,
) -> Fig7Result:
    """Regenerate the three Figure 7 case studies in one pass."""
    config = config or default_config()
    world, split = load_dataset(dataset, scale=scale)
    result = Fig7Result()
    T = split.T
    last_trained = T - 1  # we evaluate that training on span T

    # --- (a): run FR / FT / IMSR and split last-span eval by item type ---
    seen_items: Dict[int, set] = {u: set() for u in range(world.num_users)}
    for span in [split.pretrain] + split.spans[: last_trained]:
        for user in span.user_ids():
            seen_items.setdefault(user, set()).update(span.users[user].all_items)

    def existing_filter(user: int, item: int) -> bool:
        return item in seen_items.get(user, set())

    def new_filter(user: int, item: int) -> bool:
        return item not in seen_items.get(user, set())

    imsr_strategy: Optional[IMSR] = None
    imsr_snapshots: Dict[int, Dict[int, np.ndarray]] = {}
    for strategy_name in ("FR", "FT", "IMSR"):
        strategy = make_strategy(strategy_name, model, split, config)
        strategy.pretrain()
        for t in range(1, T):
            strategy.train_span(t)
            if strategy_name == "IMSR":
                imsr_snapshots[t] = {
                    u: s.interests.copy() for u, s in strategy.states.items()
                }
        eval_span = split.spans[last_trained]
        result.item_type_hr[strategy_name] = {
            "existing": evaluate_span(strategy.score_users, eval_span,
                                      item_filter=existing_filter,
                                      targets="all").hr,
            "new": evaluate_span(strategy.score_users, eval_span,
                                 item_filter=new_filter, targets="all").hr,
            "all": evaluate_span(strategy.score_users, eval_span,
                                 targets="all").hr,
        }
        if strategy_name == "IMSR":
            imsr_strategy = strategy  # type: ignore[assignment]

    # --- (b): interest trajectory of one expanded user -------------------
    assert imsr_strategy is not None
    expanded_users = sorted(
        {u for users in imsr_strategy.expansion_log.values() for u in users}
    )
    if expanded_users and imsr_snapshots:
        user = max(
            expanded_users,
            key=lambda u: imsr_strategy.states[u].num_interests,
        )
        result.trajectory_user = user
        all_points = np.concatenate(
            [snap[user] for snap in imsr_snapshots.values() if user in snap],
            axis=0,
        )
        centered = all_points - all_points.mean(axis=0, keepdims=True)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        basis = vt[:2].T
        for t, snap in imsr_snapshots.items():
            if user in snap:
                result.trajectory[t] = _pca_2d(snap[user], basis=basis)
                result.trajectory_created[t] = (
                    imsr_strategy.states[user].created_span[: len(snap[user])]
                )

    # --- (c): which creation span wins the attention for last targets ----
    emb = imsr_strategy.model.item_emb.weight.data
    eval_span = split.spans[last_trained]
    winners_by_span: Dict[int, int] = {}
    total = 0
    first_user_heatmap: Optional[np.ndarray] = None
    for user in eval_span.user_ids():
        data = eval_span.users[user]
        if data.test_item is None:
            continue
        state = imsr_strategy.states[user]
        att = attention_scores(state.interests, emb[data.test_item])
        winner_span = int(state.created_span[int(np.argmax(att))])
        winners_by_span[winner_span] = winners_by_span.get(winner_span, 0) + 1
        total += 1
        if first_user_heatmap is None and state.num_interests > state.n_existing:
            targets = [i for i in data.all_items][:8]
            first_user_heatmap = np.stack(
                [attention_scores(state.interests, emb[i]) for i in targets]
            )
            result.heatmap = first_user_heatmap
            result.heatmap_created = state.created_span.copy()
    if total:
        cumulative = 0
        for span_cutoff in (1, 2):
            cumulative = sum(
                count for created, count in winners_by_span.items()
                if created <= span_cutoff
            )
            result.early_interest_share[span_cutoff] = cumulative / total
    return result

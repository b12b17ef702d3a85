"""Tests for the extension strategies: EWC and IMSR+Replay."""

import numpy as np
import pytest

from repro.incremental import EWC, IMSRReplay, STRATEGY_REGISTRY, TrainConfig
from repro.models import ComiRecDR


def dr_model(split, seed=0):
    return ComiRecDR(split.num_items, dim=12, num_interests=3, seed=seed)


class TestEWC:
    def test_registered(self):
        assert STRATEGY_REGISTRY["EWC"] is EWC

    def test_fisher_estimated_after_pretrain(self, tiny_split, train_config):
        strategy = EWC(dr_model(tiny_split), tiny_split, train_config)
        assert not strategy.fisher
        strategy.pretrain()
        assert strategy.fisher
        for name, value in strategy.fisher.items():
            assert (value >= 0).all(), name

    def test_anchors_match_parameters_at_estimation(self, tiny_split,
                                                    train_config):
        strategy = EWC(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        for name, param in strategy.model.named_parameters():
            assert np.allclose(strategy.anchors[name], param.data)

    def test_penalty_zero_at_anchor(self, tiny_split, train_config):
        strategy = EWC(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        penalty = strategy._penalty()
        assert penalty is not None
        assert penalty.item() == pytest.approx(0.0, abs=1e-12)

    def test_penalty_grows_with_distance(self, tiny_split, train_config):
        strategy = EWC(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        for param in strategy.model.parameters():
            param.data += 0.5
        moved = strategy._penalty().item()
        assert moved > 0

    def test_penalty_gradient_is_fisher_weighted_distance(self, tiny_split,
                                                         train_config):
        # d/dθ of λ/2 Σ F (θ - θ*)² is λ F (θ - θ*): every factor in-graph
        strategy = EWC(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        for param in strategy.model.parameters():
            param.data = param.data + 0.5
        strategy.model.zero_grad()
        strategy._penalty().backward()
        for name, param in strategy.model.named_parameters():
            expected = strategy.ewc_weight * strategy.fisher[name] * (
                param.data - strategy.anchors[name])
            np.testing.assert_allclose(param.grad, expected, rtol=1e-10)

    def test_penalty_none_before_fisher(self, tiny_split, train_config):
        strategy = EWC(dr_model(tiny_split), tiny_split, train_config)
        assert strategy._penalty() is None

    def test_full_span_runs(self, tiny_split, train_config):
        strategy = EWC(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        strategy.train_span(1)
        assert 1 in strategy.train_times
        for state in strategy.states.values():
            assert np.isfinite(state.interests).all()

    def test_no_interest_expansion(self, tiny_split, train_config):
        strategy = EWC(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        strategy.train_span(1)
        assert set(strategy.interest_counts().values()) == {3}

    def test_strong_penalty_freezes_parameters(self, tiny_split):
        config = TrainConfig(epochs_pretrain=2, epochs_incremental=2, seed=0)
        strong = EWC(dr_model(tiny_split), tiny_split, config,
                     ewc_weight=1e6)
        strong.pretrain()
        before = strong.model.state_dict()
        strong.train_span(1)
        drift_strong = sum(
            float(np.abs(v - before[k]).mean())
            for k, v in strong.model.state_dict().items()
        )
        weak = EWC(dr_model(tiny_split), tiny_split, config, ewc_weight=0.0)
        weak.pretrain()
        before = weak.model.state_dict()
        weak.train_span(1)
        drift_weak = sum(
            float(np.abs(v - before[k]).mean())
            for k, v in weak.model.state_dict().items()
        )
        assert drift_strong < drift_weak


class TestIMSRReplay:
    def test_registered(self):
        assert STRATEGY_REGISTRY["IMSR+Replay"] is IMSRReplay

    def test_pool_populated(self, tiny_split, train_config):
        strategy = IMSRReplay(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        assert strategy.pool

    def test_replay_payloads_structure(self, tiny_split, train_config):
        strategy = IMSRReplay(dr_model(tiny_split), tiny_split, train_config,
                              replay_per_span=2)
        strategy.pretrain()
        payloads = strategy._replay_payloads()
        assert payloads
        per_user: dict = {}
        for p in payloads:
            assert p.history and p.targets
            per_user[p.user] = per_user.get(p.user, 0) + 1
        assert max(per_user.values()) <= 2

    def test_inherits_imsr_expansion(self, tiny_split, train_config):
        strategy = IMSRReplay(dr_model(tiny_split), tiny_split, train_config,
                              c1=0.2, c2=0.0)
        strategy.pretrain()
        strategy.train_span(1)
        assert strategy.expansion_log.get(1)

    def test_imsr_kwargs_forwarded(self, tiny_split, train_config):
        strategy = IMSRReplay(dr_model(tiny_split), tiny_split, train_config,
                              use_nid=False, kd_weight=0.0)
        strategy.pretrain()
        strategy.train_span(1)
        assert set(strategy.interest_counts().values()) == {3}

"""Integration-style tests for the incremental learning strategies."""

import numpy as np
import pytest

from repro.incremental import (
    ADER,
    FineTune,
    FullRetrain,
    IMSR,
    SML,
    STRATEGY_REGISTRY,
    TrainConfig,
    build_payloads,
)
from repro.models import ComiRecDR, ComiRecSA


def dr_model(split, seed=0):
    return ComiRecDR(split.num_items, dim=12, num_interests=3, seed=seed)


class TestPayloads:
    def test_history_target_split(self, tiny_split, train_config):
        payloads = build_payloads(tiny_split.pretrain, train_config)
        assert payloads
        for p in payloads:
            assert p.history
            assert p.targets
            data = tiny_split.pretrain.users[p.user]
            expected = data.train_items + (
                [data.val_item] if data.val_item is not None else [])
            assert p.history + p.targets == expected[-len(p.history + p.targets):]

    def test_history_fraction_respected(self, tiny_split):
        config = TrainConfig(history_fraction=0.8, max_targets=100)
        payloads = build_payloads(tiny_split.pretrain, config)
        for p in payloads:
            total = len(p.history) + len(p.targets)
            assert len(p.history) == pytest.approx(0.8 * total, abs=1)

    def test_max_targets_cap(self, tiny_split):
        config = TrainConfig(max_targets=2)
        payloads = build_payloads(tiny_split.pretrain, config)
        assert all(len(p.targets) <= 2 for p in payloads)

    def test_exclude_val(self, tiny_split, train_config):
        """Payloads train on the validation item too: it is the last
        target of every user that has one."""
        payloads = build_payloads(tiny_split.pretrain, train_config)
        val_items = {p.user: tiny_split.pretrain.users[p.user].val_item
                     for p in payloads}
        assert any(v is not None for v in val_items.values())
        for p in payloads:
            if val_items[p.user] is not None:
                assert p.targets[-1] == val_items[p.user]


class TestStrategyRegistry:
    def test_all_paper_strategies(self):
        paper = {"FR", "FT", "SML", "ADER", "IMSR"}
        extensions = {"EWC", "IMSR+Replay"}
        assert set(STRATEGY_REGISTRY) == paper | extensions


class TestFineTune:
    def test_pretrain_updates_interests(self, tiny_split, train_config):
        strategy = FineTune(dr_model(tiny_split), tiny_split, train_config)
        before = {u: s.interests.copy() for u, s in strategy.states.items()}
        strategy.pretrain()
        moved = sum(
            not np.allclose(before[u], s.interests)
            for u, s in strategy.states.items()
        )
        assert moved > len(strategy.states) * 0.8

    def test_train_span_records_time(self, tiny_split, train_config):
        strategy = FineTune(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        elapsed = strategy.train_span(1)
        assert elapsed > 0
        assert strategy.train_times[1] == elapsed

    def test_interest_count_fixed(self, tiny_split, train_config):
        strategy = FineTune(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        strategy.train_span(1)
        assert all(k == 3 for k in strategy.interest_counts().values())

    def test_score_user_shape(self, tiny_split, train_config):
        strategy = FineTune(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        scores = strategy.score_user(0)
        assert scores.shape == (tiny_split.num_items,)

    def test_sa_user_weights_in_optimizer(self, tiny_split, train_config):
        model = ComiRecSA(tiny_split.num_items, dim=12, num_interests=3, seed=0)
        strategy = FineTune(model, tiny_split, train_config)
        before = {
            u: s.sa_weights.data.copy() for u, s in strategy.states.items()
        }
        strategy.pretrain()
        moved = sum(
            not np.allclose(before[u], s.sa_weights.data)
            for u, s in strategy.states.items()
            if u in tiny_split.pretrain
        )
        assert moved > 0


class TestFullRetrain:
    def test_requires_factory(self, tiny_split, train_config):
        with pytest.raises(ValueError):
            FullRetrain(dr_model(tiny_split), tiny_split, train_config)

    def test_reinitializes_model(self, tiny_split, train_config):
        strategy = FullRetrain(
            dr_model(tiny_split), tiny_split, train_config,
            model_factory=lambda: dr_model(tiny_split, seed=1))
        strategy.pretrain()
        first_model = strategy.model
        strategy.train_span(1)
        assert strategy.model is not first_model

    def test_interest_count_sync(self, tiny_split, train_config):
        user = tiny_split.pretrain.user_ids()[0]
        strategy = FullRetrain(
            dr_model(tiny_split), tiny_split, train_config,
            model_factory=lambda: dr_model(tiny_split, seed=1),
            interest_counts={1: {user: 7}})
        strategy.pretrain()
        strategy.train_span(1)
        assert strategy.states[user].num_interests == 7

    def test_cumulative_payloads_grow(self, tiny_split, train_config):
        strategy = FullRetrain(
            dr_model(tiny_split), tiny_split, train_config,
            model_factory=lambda: dr_model(tiny_split, seed=1))
        early = strategy._cumulative_payloads(1)
        late = strategy._cumulative_payloads(3)
        total = lambda ps: sum(len(p.history) + len(p.targets) for p in ps)
        assert total(late) > total(early)


class TestSML:
    def test_alpha_chosen_from_grid(self, tiny_split, train_config):
        strategy = SML(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        strategy.train_span(1)
        assert 1 in strategy.chosen_alphas
        assert strategy.chosen_alphas[1] in strategy.alpha_grid

    def test_interpolation_restores_prev_at_alpha_one(self, tiny_split,
                                                      train_config):
        strategy = SML(dr_model(tiny_split), tiny_split, train_config)
        prev = strategy.model.state_dict()
        new = {k: v + 1.0 for k, v in prev.items()}
        strategy._load_interpolated(prev, new, alpha=1.0)
        for name, value in strategy.model.state_dict().items():
            assert np.allclose(value, prev[name])

    def test_interpolation_uses_new_at_alpha_zero(self, tiny_split,
                                                  train_config):
        strategy = SML(dr_model(tiny_split), tiny_split, train_config)
        prev = strategy.model.state_dict()
        new = {k: v + 1.0 for k, v in prev.items()}
        strategy._load_interpolated(prev, new, alpha=0.0)
        for name, value in strategy.model.state_dict().items():
            assert np.allclose(value, new[name])


class TestADER:
    def test_pool_grows_over_spans(self, tiny_split, train_config):
        strategy = ADER(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        after_pretrain = sum(len(b) for b in strategy.pool.values())
        assert after_pretrain > 0
        strategy.train_span(1)
        assert sum(len(b) for b in strategy.pool.values()) > after_pretrain

    def test_exemplars_are_subsequences(self, tiny_split, train_config):
        strategy = ADER(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        for user, bucket in strategy.pool.items():
            full = tiny_split.pretrain.users[user].all_items
            for seq in bucket:
                assert len(seq) >= 2
                # contiguous subsequence of the user's history
                joined = ",".join(map(str, full))
                assert ",".join(map(str, seq)) in joined

    def test_replays_inactive_users(self, tiny_split, train_config):
        strategy = ADER(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        span = tiny_split.spans[0]
        payloads = strategy._exemplar_payloads(span)
        payload_users = {p.user for p in payloads}
        pooled_inactive = set(strategy.pool) - set(span.users)
        if pooled_inactive:  # activity < 1 should leave some users out
            assert pooled_inactive & payload_users

    def test_distillation_term_moves_the_parameters(self, tiny_split,
                                                    train_config):
        """ADER's KD term is live at the default weight: one span ends
        with other parameters than the same span at ``kd_weight=0``,
        where the hook adds no term.  A detached term fails this."""
        finals = []
        for kwargs in ({}, {"kd_weight": 0.0}):
            strategy = ADER(dr_model(tiny_split), tiny_split, train_config,
                            **kwargs)
            strategy.pretrain()
            strategy.train_span(1)
            finals.append(dict(strategy.model.state_dict()))
        default, without = finals
        assert default.keys() == without.keys()
        assert any(not np.array_equal(default[name], without[name])
                   for name in default)


class TestIMSR:
    def test_retention_term_trains_the_interests(self, tiny_split,
                                                 train_config):
        # EIR's term (Eq. 10) must reach the student interests; a detached
        # term would leave IMSR training like fine-tuning
        from repro.autograd import Tensor

        strategy = IMSR(dr_model(tiny_split), tiny_split, train_config)
        strategy.pretrain()
        payload = build_payloads(tiny_split.spans[0], train_config)[0]
        state = strategy.states[payload.user]
        state.begin_span()
        interests = Tensor(state.interests + 0.1, requires_grad=True)
        strategy._retention_loss(state, interests, payload).backward()
        assert np.abs(interests.grad).sum() > 0

    def test_expansion_happens(self, tiny_split, train_config):
        strategy = IMSR(dr_model(tiny_split), tiny_split, train_config,
                        c1=0.2, c2=0.0)  # c2=0: nothing trimmed back
        strategy.pretrain()
        strategy.train_span(1)
        assert strategy.expansion_log.get(1)
        expanded = strategy.expansion_log[1][0]
        assert strategy.states[expanded].num_interests > 3

    def test_high_c1_blocks_expansion(self, tiny_split, train_config):
        # puzzlement = exp(-KL) < 1 strictly unless the posterior is
        # exactly uniform, so c1 = 1.0 blocks all expansion
        strategy = IMSR(dr_model(tiny_split), tiny_split, train_config,
                        c1=1.0)
        strategy.pretrain()
        strategy.train_span(1)
        assert not strategy.expansion_log.get(1)

    def test_expansion_once_per_span(self, tiny_split, train_config):
        config = TrainConfig(epochs_pretrain=2, epochs_incremental=4, seed=0)
        strategy = IMSR(dr_model(tiny_split), tiny_split, config,
                        c1=0.0, delta_k=2)  # always puzzled
        strategy.pretrain()
        strategy.train_span(1)
        for user in strategy.expansion_log.get(1, []):
            state = strategy.states[user]
            # at most one delta_k batch added (minus any trims)
            assert state.num_interests <= 3 + 2

    def test_max_interests_cap(self, tiny_split, train_config):
        strategy = IMSR(dr_model(tiny_split), tiny_split, train_config,
                        c1=0.0, delta_k=3, max_interests=5)
        strategy.pretrain()
        for t in (1, 2, 3):
            strategy.train_span(t)
        assert all(s.num_interests <= 5 for s in strategy.states.values())

    def test_no_nid_means_no_expansion(self, tiny_split, train_config):
        strategy = IMSR(dr_model(tiny_split), tiny_split, train_config,
                        c1=0.0, use_nid=False)
        strategy.pretrain()
        strategy.train_span(1)
        assert all(s.num_interests == 3 for s in strategy.states.values())

    def test_kd_weight_zero_skips_retention(self, tiny_split, train_config):
        strategy = IMSR(dr_model(tiny_split), tiny_split, train_config,
                        kd_weight=0.0)
        payload_like = build_payloads(tiny_split.spans[0], train_config)[0]
        state = strategy.states[payload_like.user]
        H = strategy.model.compute_interests(state, payload_like.history)
        assert strategy._retention_loss(state, H, payload_like) is None

    def test_unknown_retainer_rejected(self, tiny_split, train_config):
        with pytest.raises(KeyError):
            IMSR(dr_model(tiny_split), tiny_split, train_config,
                 retainer="nope")

    @pytest.mark.parametrize("retainer", ["DIR", "KD1", "KD2", "KD3"])
    def test_variant_retainers_run(self, tiny_split, train_config, retainer):
        strategy = IMSR(dr_model(tiny_split), tiny_split, train_config,
                        retainer=retainer)
        strategy.pretrain()
        strategy.train_span(1)  # no crash, interests finite
        for state in strategy.states.values():
            assert np.isfinite(state.interests).all()

    def test_trimming_logged(self, tiny_split):
        config = TrainConfig(epochs_pretrain=2, epochs_incremental=4, seed=0)
        strategy = IMSR(dr_model(tiny_split), tiny_split, config,
                        c1=0.0, delta_k=4, c2=10.0)  # absurd c2: trim all new
        strategy.pretrain()
        strategy.train_span(1)
        assert strategy.trim_log.get(1)
        # everything expanded was eventually trimmed back
        for user in strategy.expansion_log.get(1, []):
            assert strategy.states[user].num_interests == 3

    def test_imsr_on_sa_model(self, tiny_split, train_config):
        model = ComiRecSA(tiny_split.num_items, dim=12, num_interests=3, seed=0)
        strategy = IMSR(model, tiny_split, train_config, c1=0.2)
        strategy.pretrain()
        strategy.train_span(1)
        for state in strategy.states.values():
            assert state.sa_weights.data.shape[1] == state.num_interests

    def test_users_start_with_the_base_interest_count(self, tiny_split,
                                                      train_config):
        """Every user starts with the model's K interests."""
        strategy = IMSR(dr_model(tiny_split), tiny_split, train_config)
        counts = strategy.interest_counts()
        assert np.mean(list(counts.values())) == 3.0

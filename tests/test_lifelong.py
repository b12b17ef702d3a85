"""Tests for the lifelong MSR baselines (MIMN, LimaRec)."""

import numpy as np
import pytest

from repro.lifelong import LimaRec, LimaRecModel, MIMN
from repro.lifelong.limarec import _phi_np
from repro.models import ComiRecDR


class TestMIMN:
    def make(self, tiny_split, train_config, **kwargs):
        model = ComiRecDR(tiny_split.num_items, dim=12, num_interests=3, seed=0)
        return MIMN(model, tiny_split, train_config, **kwargs)

    def test_memory_seeded_from_interests(self, tiny_split, train_config):
        strategy = self.make(tiny_split, train_config, memory_slots=8)
        strategy.pretrain()
        for user, state in strategy.states.items():
            memory = strategy.memory[user]
            assert memory.shape == (8, 12)
            assert np.allclose(memory[:3], state.interests)

    def test_memory_truncated_when_slots_few(self, tiny_split, train_config):
        strategy = self.make(tiny_split, train_config, memory_slots=2)
        strategy.pretrain()
        assert strategy.memory[0].shape == (2, 12)

    def test_parameters_frozen_after_pretrain(self, tiny_split, train_config):
        strategy = self.make(tiny_split, train_config)
        strategy.pretrain()
        params_before = strategy.model.state_dict()
        strategy.train_span(1)
        for name, value in strategy.model.state_dict().items():
            assert np.allclose(value, params_before[name])

    def test_writes_move_memory(self, tiny_split, train_config):
        strategy = self.make(tiny_split, train_config)
        strategy.pretrain()
        span = tiny_split.spans[0]
        user = span.user_ids()[0]
        before = strategy.memory[user].copy()
        strategy.train_span(1)
        assert not np.allclose(before, strategy.memory[user])

    def test_write_is_convex_toward_item(self, tiny_split, train_config):
        strategy = self.make(tiny_split, train_config, write_strength=1.0)
        strategy.pretrain()
        user = 0
        item = 5
        emb = strategy.model.item_emb.weight.data[item]
        strategy._write(user, item)
        memory = strategy.memory[user]
        # with strength 1 and soft addressing, each slot moved toward emb
        sims_to_item = memory @ emb
        assert sims_to_item.max() >= (emb @ emb) * 0.01

    def test_write_is_the_ntm_update(self, tiny_split, train_config):
        # content addressing: a softmax of memory . item over the slots;
        # each slot then moves toward the item by strength x address
        strategy = self.make(tiny_split, train_config, write_strength=0.5)
        strategy.pretrain()
        memory = strategy.memory[0].copy()
        emb = strategy.model.item_emb.weight.data[5]
        address = np.exp(memory @ emb - (memory @ emb).max())
        gate = 0.5 * (address / address.sum())[:, None]
        strategy._write(0, 5)
        np.testing.assert_allclose(strategy.memory[0],
                                   memory * (1.0 - gate) + gate * emb,
                                   rtol=1e-12)

    def test_memory_padding_is_seeded(self, tiny_split, train_config):
        memories = []
        for _ in range(2):
            strategy = self.make(tiny_split, train_config, memory_slots=8)
            strategy.pretrain()
            memories.append(strategy.memory)
        for user, memory in memories[0].items():
            np.testing.assert_array_equal(memory, memories[1][user])

    def test_score_user_shape(self, tiny_split, train_config):
        strategy = self.make(tiny_split, train_config)
        strategy.pretrain()
        assert strategy.score_user(0).shape == (tiny_split.num_items,)

    def test_interest_counts_fixed(self, tiny_split, train_config):
        strategy = self.make(tiny_split, train_config, memory_slots=6)
        strategy.pretrain()
        strategy.train_span(1)
        assert set(strategy.interest_counts().values()) == {6}


class TestLimaRec:
    def make(self, tiny_split, train_config):
        model = LimaRecModel(tiny_split.num_items, dim=12, num_interests=3,
                             key_dim=6, seed=0)
        return LimaRec(model, tiny_split, train_config)

    def test_requires_limarec_model(self, tiny_split, train_config):
        with pytest.raises(TypeError):
            LimaRec(ComiRecDR(tiny_split.num_items), tiny_split, train_config)

    def test_phi_positive(self, rng):
        assert (_phi_np(rng.normal(size=(100,)) * 10) > 0).all()

    def test_incremental_state_matches_batch(self, tiny_split, train_config):
        """Absorbing a sequence item-by-item must equal absorbing it at
        once — the linear-attention invariant LimaRec relies on."""
        strategy = self.make(tiny_split, train_config)
        user = 0
        items = [1, 5, 9, 3, 7]
        strategy._init_state(user)
        strategy._absorb(user, items)
        s_once = strategy.state_s[user].copy()
        z_once = strategy.state_z[user].copy()

        strategy._init_state(user)
        for item in items:
            strategy._absorb(user, [item])
        assert np.allclose(strategy.state_s[user], s_once)
        assert np.allclose(strategy.state_z[user], z_once)

    def test_full_forward_matches_incremental_readout(self, tiny_split,
                                                      train_config):
        strategy = self.make(tiny_split, train_config)
        model: LimaRecModel = strategy.model
        items = [2, 8, 4, 6]
        state = strategy.states[0]
        batch = model.compute_interests(state, items).data

        strategy._init_state(0)
        strategy._absorb(0, items)
        scores = strategy.score_user(0)
        # reconstruct interests from the incremental readout and compare
        query_emb = model.item_emb.weight.data[items[-1]]
        interests = np.zeros((3, 12))
        for h in range(3):
            q = _phi_np(model.w_q.data[h] @ query_emb)
            interests[h] = (q @ strategy.state_s[0][h]) / (
                q @ strategy.state_z[0][h] + 1e-6)
        assert np.allclose(interests, batch, atol=1e-6)
        assert np.allclose(
            scores, (model.item_emb.weight.data @ interests.T).max(axis=1))

    def test_parameters_frozen_after_pretrain(self, tiny_split, train_config):
        strategy = self.make(tiny_split, train_config)
        strategy.pretrain()
        before = strategy.model.state_dict()
        strategy.train_span(1)
        for name, value in strategy.model.state_dict().items():
            assert np.allclose(value, before[name])

    def test_pretraining_improves_loss(self, tiny_split, train_config):
        strategy = self.make(tiny_split, train_config)
        model = strategy.model
        state = model.init_user_state(0)
        negatives = np.array([[1, 2, 3]])
        H = model.compute_interests(state, [4, 9, 2])
        before = model.loss_targets(H, [7], negatives).item()
        strategy.pretrain()
        H = model.compute_interests(state, [4, 9, 2])
        after = model.loss_targets(H, [7], negatives).item()
        assert np.isfinite(after)

    def test_span_updates_state_not_params(self, tiny_split, train_config):
        strategy = self.make(tiny_split, train_config)
        strategy.pretrain()
        user = tiny_split.spans[0].user_ids()[0]
        s_before = strategy.state_s[user].copy()
        strategy.train_span(1)
        assert not np.allclose(strategy.state_s[user], s_before)

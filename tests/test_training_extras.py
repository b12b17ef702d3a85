"""Tests for seed averaging and routing options."""

import numpy as np
import pytest

from repro.experiments import run_repeated
from repro.incremental import TrainConfig
from repro.models import ComiRecDR


class TestRunRepeated:
    def test_average_of_seeds(self, tiny_split):
        config = TrainConfig(epochs_pretrain=2, epochs_incremental=1, seed=0)
        result = run_repeated("tiny", "ComiRec-DR", "FT", tiny_split,
                              config=config, repeats=2,
                              model_kwargs={"dim": 10, "num_interests": 2})
        assert len(result.per_seed) == 2
        expected = np.mean([
            np.mean([r.hr for r in seed.per_span])
            for seed in result.per_seed
        ])
        assert result.hr == pytest.approx(expected, abs=1e-9)

    def test_bad_repeats_rejected(self, tiny_split):
        with pytest.raises(ValueError):
            run_repeated("tiny", "ComiRec-DR", "FT", tiny_split, repeats=0)


class TestRoutingOptions:
    def test_capsule_normalization_differs(self, tiny_split):
        seq = [1, 4, 9, 2]
        outs = {}
        for normalize in ("items", "capsules"):
            model = ComiRecDR(tiny_split.num_items, dim=10, num_interests=3,
                              seed=0, routing_normalize=normalize)
            state = model.init_user_state(0)
            outs[normalize] = model.compute_interests(state, seq).data.copy()
        assert not np.allclose(outs["items"], outs["capsules"])

    def test_bad_normalization_rejected(self, tiny_split):
        model = ComiRecDR(tiny_split.num_items, dim=10, num_interests=3,
                          seed=0, routing_normalize="rows")
        state = model.init_user_state(0)
        with pytest.raises(ValueError):
            model.compute_interests(state, [1, 2])

    def test_cold_start_ignores_stored_interests(self, tiny_split):
        model = ComiRecDR(tiny_split.num_items, dim=10, num_interests=3,
                          seed=0, warm_start=False)
        state = model.init_user_state(0)
        a = model.compute_interests(state, [1, 4, 9]).data
        state.interests = state.interests + 10.0  # would change warm-start
        b = model.compute_interests(state, [1, 4, 9]).data
        # cold start draws fresh random inits, so outputs differ run to run
        # but must not be influenced *deterministically* by stored state
        assert a.shape == b.shape

    def test_warm_start_uses_stored_interests(self, tiny_split):
        model = ComiRecDR(tiny_split.num_items, dim=10, num_interests=3,
                          seed=0, warm_start=True)
        state = model.init_user_state(0)
        a = model.compute_interests(state, [1, 4, 9]).data
        state.interests = state.interests * -2.0
        b = model.compute_interests(state, [1, 4, 9]).data
        assert not np.allclose(a, b)

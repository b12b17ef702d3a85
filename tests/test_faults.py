"""Unit tests for the deterministic fault-injection subsystem."""

import numpy as np
import pytest

from repro.faults import (
    FaultPlan,
    InjectedIOError,
    SimulatedCrash,
    active,
    all_finite,
    fire,
    flip_one_byte,
)


class TestProbeMechanics:
    def test_fire_without_an_active_plan_is_a_noop(self):
        assert fire("span-boundary", span=3) == {}
        assert fire("train-step", step=0) == {}

    def test_activation_is_scoped(self):
        plan = FaultPlan().nan_loss_at_step()
        assert fire("train-step", step=0) == {}
        with active(plan):
            assert fire("train-step", step=1) == {"poison_nan": True}
        assert fire("train-step", step=2) == {}
        assert len(plan.log) == 1

    def test_activation_unwinds_on_exception(self):
        plan = (FaultPlan().crash_at_span_boundary(1)
                .nan_loss_at_step())
        with pytest.raises(SimulatedCrash):
            with active(plan):
                fire("span-boundary", span=1)
        assert fire("train-step", step=0) == {}
        assert len(plan.log) == 1

    def test_match_filter_selects_span(self):
        plan = FaultPlan().crash_at_span_boundary(2)
        with active(plan):
            fire("span-boundary", span=1)  # no match, no raise
            with pytest.raises(SimulatedCrash):
                fire("span-boundary", span=2)

    def test_crash_fault_is_one_shot(self):
        plan = FaultPlan().crash_at_span_boundary(2)
        with active(plan):
            with pytest.raises(SimulatedCrash):
                fire("span-boundary", span=2)
            fire("span-boundary", span=2)  # spent: fires once only

    def test_occurrence_counting_for_io_errors(self):
        plan = FaultPlan().io_error_on_write(2)
        with active(plan):
            fire("io-write", path="a")
            fire("io-write", path="b")
            with pytest.raises(InjectedIOError):
                fire("io-write", path="c")  # third occurrence (index 2)

    def test_modifier_fault_returns_payload(self):
        plan = FaultPlan().nan_loss_at_step(5)
        with active(plan):
            assert fire("train-step", step=4) == {}
            assert fire("train-step", step=5) == {"poison_nan": True}
            assert fire("train-step", step=5) == {}  # one-shot

    def test_every_step_nan_fault_is_persistent(self):
        plan = FaultPlan().nan_loss_at_step()  # no step: every firing
        with active(plan):
            for step in range(4):
                assert fire("train-step", step=step) == {"poison_nan": True}

    def test_firing_log_records_scalars_only(self):
        plan = FaultPlan().crash_at_span_boundary(1)
        with active(plan):
            with pytest.raises(SimulatedCrash):
                fire("span-boundary", span=1, strategy=object())
        point, info = plan.log[0]
        assert point == "span-boundary"
        assert info == {"span": 1}  # non-scalar info never journaled

    def test_describe_is_plain_data(self):
        plan = (FaultPlan(seed=3).crash_at_span_boundary(2)
                .io_error_on_write(1).nan_loss_at_step(7))
        described = plan.describe()
        assert described[0] == {"point": "span-boundary", "kind": "crash",
                                "match": {"span": 2}}
        assert described[1] == {"point": "io-write", "kind": "io-error",
                                "at": 1}
        assert described[2]["payload"] == {"poison_nan": True}

    def test_stacked_plans_both_fire(self):
        outer = FaultPlan().nan_loss_at_step(0)
        inner = FaultPlan().nan_loss_at_step(0)
        with active(outer), active(inner):
            assert fire("train-step", step=0) == {"poison_nan": True}
        assert len(outer.log) == 1
        assert len(inner.log) == 1


class TestSeededHelpers:
    def test_all_finite(self):
        assert all_finite(np.ones((3, 2)))
        assert not all_finite(np.array([[1.0, np.nan]]))
        assert not all_finite(np.array([np.inf]))

    def test_flip_one_byte_round_trips(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"hello world")
        offset = flip_one_byte(path, offset=4)
        assert path.read_bytes() != b"hello world"
        assert flip_one_byte(path, offset=offset) == offset
        assert path.read_bytes() == b"hello world"

    def test_flip_one_byte_seeded_offset(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(range(256)))
        off_a = flip_one_byte(path, rng=np.random.default_rng(5))
        flip_one_byte(path, offset=off_a)  # restore
        off_b = flip_one_byte(path, rng=np.random.default_rng(5))
        assert off_a == off_b

    def test_flip_one_byte_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            flip_one_byte(path)


class TestTrainingIntegration:
    """The fault model replaces the ad-hoc monkeypatching that
    ``test_robustness.py`` used to prove NaN containment."""

    def test_nan_loss_steps_leave_parameters_untouched(
            self, tiny_split, train_config):
        from repro.incremental import FineTune
        from repro.models import ComiRecDR

        model = ComiRecDR(tiny_split.num_items, dim=12, num_interests=3,
                          seed=0)
        strategy = FineTune(model, tiny_split, train_config)
        strategy.pretrain()
        before = strategy.model.state_dict()
        with active(FaultPlan().nan_loss_at_step()):
            strategy.train_span(1)
        for name, value in strategy.model.state_dict().items():
            assert np.allclose(value, before[name]), name

    def test_single_step_poison_only_skips_that_step(
            self, tiny_split, train_config):
        from repro.incremental import FineTune
        from repro.models import ComiRecDR

        model = ComiRecDR(tiny_split.num_items, dim=12, num_interests=3,
                          seed=0)
        strategy = FineTune(model, tiny_split, train_config)
        plan = FaultPlan().nan_loss_at_step(0)
        with active(plan):
            strategy.pretrain()
        # exactly one step fired, training still moved the parameters
        assert len(plan.log) == 1
        assert np.isfinite(strategy.model.item_emb.weight.data).all()

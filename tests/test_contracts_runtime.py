"""Runtime enforcement: the decorator, the switch, and the registry."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.contracts import (
    CONTRACT_REGISTRY,
    ContractDefinitionError,
    ContractViolation,
    checking_enabled,
    contract_for,
    enforce,
    enforced,
    load_annotated,
    registry_rows,
    shape_contract,
)


@shape_contract("(N, D) f, (K, D) f -> (N, K) f")
def affinity(items, interests):
    return items @ interests.T


@shape_contract("(N, D) f, (K, D) f -> (N, K) f")
def bad_affinity(items, interests):
    # wrong output orientation: returns (K, N)
    return interests @ items.T


@pytest.fixture
def checks_on():
    with enforced(True):
        yield


class TestSwitch:
    @pytest.fixture(autouse=True)
    def force_off(self):
        # the suite may itself run under REPRO_CHECK_SHAPES=1; these
        # tests need a known off state to exercise the switch
        prev = enforce(False)
        yield
        enforce(prev)

    def test_off_and_restored(self):
        assert not checking_enabled()
        with enforced(True):
            assert checking_enabled()
        assert not checking_enabled()

    def test_enforce_returns_previous(self):
        assert enforce(True) is False
        assert enforce(False) is True
        assert not checking_enabled()

    def test_environment_variable_opt_in(self):
        probe = ("from repro.contracts import checking_enabled; "
                 "print(checking_enabled())")
        for value, expected in (("1", "True"), ("0", "False"), ("", "False")):
            env = dict(os.environ, REPRO_CHECK_SHAPES=value,
                       PYTHONPATH="src")
            out = subprocess.run(
                [sys.executable, "-c", probe], capture_output=True,
                text=True, env=env, cwd=Path(__file__).resolve().parents[1])
            assert out.stdout.strip() == expected, (value, out.stderr)

    def test_no_checking_when_off(self):
        # a contract-violating (3-D) call sails through while enforcement
        # is off: numpy happily batches the matmul
        out = affinity(np.ones((2, 4, 3)), np.ones((5, 3)))
        assert out.shape == (2, 4, 5)

    def test_violation_is_value_error(self):
        # numpy's own shape errors are ValueError; ours must be catchable
        # by the same guards
        assert issubclass(ContractViolation, ValueError)


class TestChecking:
    def test_accepts_consistent_shapes(self, checks_on):
        out = affinity(np.ones((4, 3)), np.ones((5, 3)))
        assert out.shape == (4, 5)

    def test_rejects_cross_argument_mismatch(self, checks_on):
        with pytest.raises(ContractViolation, match="'interests'"):
            affinity(np.ones((4, 3)), np.ones((5, 4)))

    def test_rejects_wrong_ndim(self, checks_on):
        with pytest.raises(ContractViolation, match="'items'"):
            affinity(np.ones(4), np.ones((5, 4)))

    def test_rejects_bad_return(self, checks_on):
        with pytest.raises(ContractViolation, match="return value"):
            bad_affinity(np.ones((4, 3)), np.ones((5, 3)))

    def test_checks_tensor_data(self, checks_on):
        out = affinity(Tensor(np.ones((4, 3))), Tensor(np.ones((5, 3))))
        assert out.shape == (4, 5)
        with pytest.raises(ContractViolation):
            affinity(Tensor(np.ones((4, 3))), Tensor(np.ones((5, 4))))

    def test_rejects_dtype_class(self, checks_on):
        @shape_contract("(N) i -> () f")
        def total(idx):
            return float(idx.sum())

        assert total(np.arange(4)) == 6.0
        with pytest.raises(ContractViolation, match="dtype"):
            total(np.ones(4))  # float where i declared

    def test_skip_spec_and_none_skipped(self, checks_on):
        @shape_contract("(N) f, _, (M) f -> () f")
        def mixed(a, flag, b=None):
            return float(a.sum()) + (float(b.sum()) if b is not None else 0.0)

        assert mixed(np.ones(3), "anything") == 3.0
        assert mixed(np.ones(3), object(), np.ones(2)) == 5.0

    def test_scalar_specs(self, checks_on):
        @shape_contract("(), () -> () b")
        def less(a, b):
            return bool(a < b)

        assert less(1.0, 2.0) is True
        with pytest.raises(ContractViolation):
            less(np.ones(3), 2.0)

    def test_multi_output(self, checks_on):
        @shape_contract("(N, D) f -> (N) f, (D) f")
        def row_and_col_sums(x):
            return x.sum(axis=1), x.sum(axis=0)

        rows, cols = row_and_col_sums(np.ones((3, 5)))
        assert rows.shape == (3,) and cols.shape == (5,)

        @shape_contract("(N, D) f -> (N) f, (N) f")
        def liar(x):
            return x.sum(axis=1), x.sum(axis=0)

        with pytest.raises(ContractViolation):
            liar(np.ones((3, 5)))

    def test_keyword_and_default_arguments(self, checks_on):
        @shape_contract("(N) f, (N) f -> (N) f")
        def add(a, b=None):
            return a + (b if b is not None else 0.0)

        assert add(np.ones(3), b=np.ones(3)).shape == (3,)
        assert add(np.ones(3)).shape == (3,)  # unbound b is skipped
        with pytest.raises(ContractViolation):
            add(np.ones(3), b=np.ones(4))


class TestDefinitionErrors:
    def test_bad_spec_fails_at_decoration(self):
        with pytest.raises(ContractDefinitionError):
            @shape_contract("(N, D -> (N)")
            def broken(x):
                return x

    def test_arity_mismatch_fails_at_decoration(self):
        with pytest.raises(ContractDefinitionError):
            @shape_contract("(N) f, (M) f -> ()")
            def unary(x):
                return x


class TestRegistry:
    def test_decorated_functions_are_registered(self):
        entry = contract_for(affinity)
        assert entry is not None
        assert entry.key in CONTRACT_REGISTRY
        assert entry.spec == "(N, D) f, (K, D) f -> (N, K) f"
        assert entry.arg_names == ("items", "interests")

    def test_load_annotated_covers_the_stack(self):
        count = load_annotated()
        assert count >= 25
        modules = {row[0] for row in registry_rows()}
        for prefix in ("repro.autograd", "repro.nn", "repro.models",
                       "repro.incremental", "repro.eval"):
            assert any(m.startswith(prefix) for m in modules), prefix

    def test_wrapper_preserves_metadata(self):
        assert affinity.__name__ == "affinity"
        assert "module" not in (affinity.__doc__ or "")

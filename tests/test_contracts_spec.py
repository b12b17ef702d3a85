"""The contract DSL: grammar, parse errors, and concrete shape matching."""

import numpy as np
import pytest

from repro.contracts import Contract, ContractParseError, parse_contract
from repro.contracts.spec import (
    AnyDim,
    Binding,
    EllipsisDim,
    FixedDim,
    SkipSpec,
    SymDim,
    TensorSpec,
    dtype_class_of,
    dtype_compatible,
    match_shape,
)


class TestParsing:
    def test_basic_contract(self):
        c = parse_contract("(B, T, D) f32 -> (B, K, D)")
        assert isinstance(c, Contract)
        assert len(c.inputs) == 1 and len(c.outputs) == 1
        spec = c.inputs[0]
        assert spec.dims == (SymDim("B"), SymDim("T"), SymDim("D"))
        assert spec.dtype == "f32"
        assert c.outputs[0].dtype == "any"

    def test_multiple_args_and_outputs(self):
        c = parse_contract("(N, D) f, (K, D) f -> (N, K) f, (N) f")
        assert len(c.inputs) == 2 and len(c.outputs) == 2

    def test_skip_spec(self):
        c = parse_contract("(N) f, _ -> ()")
        assert isinstance(c.inputs[1], SkipSpec)
        assert c.outputs[0].dims == ()

    def test_fixed_any_and_ellipsis_dims(self):
        c = parse_contract("(3, *, ...B) -> (...B)")
        dims = c.inputs[0].dims
        assert dims == (FixedDim(3), AnyDim(), EllipsisDim("B"))
        assert c.inputs[0].ellipsis_index == 2
        assert c.inputs[0].min_ndim == 2

    @pytest.mark.parametrize("bad", [
        "(N, D) f",                    # no arrow
        "(N) -> (N) -> (N)",           # two arrows
        "(N, D -> (N)",                # unbalanced paren
        "(N,, D) -> (N)",              # empty dim
        "(N) q8 -> (N)",               # unknown dtype
        "N, D -> (N)",                 # missing parens
        "(...A, ...B) -> ()",          # two ellipses in one spec
        " -> (N)",                     # empty input side
        "(N) -> ",                     # empty output side
        "(N) f, -> (N)",               # stray comma
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ContractParseError):
            parse_contract(bad)

    def test_roundtrip_str(self):
        text = "(N, D) f, (K, D) f -> (N, K) f"
        assert str(parse_contract(text)) == text


class TestDtypeClasses:
    def test_classification(self):
        assert dtype_class_of(np.float64) == "f64"
        assert dtype_class_of(np.float32) == "f32"
        assert dtype_class_of(np.int64) == "i64"
        assert dtype_class_of(np.int32) == "i32"
        assert dtype_class_of(np.bool_) == "b"

    def test_compatibility(self):
        assert dtype_compatible("f", "f64")
        assert dtype_compatible("f", "f32")
        assert dtype_compatible("any", "b")
        assert dtype_compatible("i", "i32")
        assert not dtype_compatible("f64", "f32")
        assert not dtype_compatible("i", "f64")
        assert not dtype_compatible("b", "f64")


def spec_of(text):
    spec = parse_contract(f"{text} -> ()").inputs[0]
    assert isinstance(spec, TensorSpec)
    return spec


class TestMatchShape:
    def test_binds_and_checks_symbols(self):
        binding = Binding()
        assert match_shape(spec_of("(N, D)"), (4, 8), binding) is None
        assert binding == {"N": 4, "D": 8}
        # D reused consistently
        assert match_shape(spec_of("(K, D)"), (3, 8), binding) is None
        # D contradicted
        error = match_shape(spec_of("(M, D)"), (5, 9), binding)
        assert error is not None and "'D'" in error

    def test_fixed_and_any(self):
        binding = Binding()
        assert match_shape(spec_of("(3, *)"), (3, 17), binding) is None
        assert match_shape(spec_of("(3, *)"), (4, 17), binding) is not None

    def test_ndim_mismatch(self):
        assert match_shape(spec_of("(N, D)"), (4,), Binding()) is not None
        assert match_shape(spec_of("()"), (1,), Binding()) is not None
        assert match_shape(spec_of("()"), (), Binding()) is None

    def test_ellipsis_runs(self):
        binding = Binding()
        assert match_shape(spec_of("(...B, D)"), (2, 3, 8), binding) is None
        assert binding["...B"] == (2, 3) and binding["D"] == 8
        # named run must repeat exactly
        assert match_shape(spec_of("(...B, K)"), (2, 3, 5), binding) is None
        error = match_shape(spec_of("(...B, M)"), (9, 9, 5), binding)
        assert error is not None

    def test_empty_ellipsis_run(self):
        binding = Binding()
        assert match_shape(spec_of("(...S)"), (), binding) is None
        assert match_shape(spec_of("(N, ...S)"), (4,), Binding()) is None

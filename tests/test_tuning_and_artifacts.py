"""Tests for artifact export."""

import json

import numpy as np

from repro.experiments.artifacts import export_result, load_artifact


class _FakeResult:
    def rows(self):
        return [{"a": 1, "b": np.float64(0.5), "c": float("nan")}]

    def shape_checks(self):
        return [{"check": "x", "holds": "yes"}, {"check": "y", "holds": "NO"}]


class TestArtifacts:
    def test_export_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "out" / "table.json"
        payload = export_result(_FakeResult(), path, experiment_id="t1")
        assert path.exists()
        loaded = load_artifact(path)
        assert loaded == json.loads(json.dumps(payload))
        assert loaded["experiment"] == "t1"
        assert loaded["checks_passed"] == 1
        assert loaded["checks_total"] == 2

    def test_nan_becomes_null(self, tmp_path):
        payload = export_result(_FakeResult(), tmp_path / "a.json")
        assert payload["rows"][0]["c"] is None

    def test_numpy_scalars_converted(self, tmp_path):
        payload = export_result(_FakeResult(), tmp_path / "b.json")
        assert isinstance(payload["rows"][0]["b"], float)

    def test_extra_merged(self, tmp_path):
        payload = export_result(_FakeResult(), tmp_path / "c.json",
                                extra={"scale": np.float64(1.0)})
        assert payload["scale"] == 1.0

    def test_result_without_rows_ok(self, tmp_path):
        class Bare:
            pass

        payload = export_result(Bare(), tmp_path / "d.json", "bare")
        assert "rows" not in payload

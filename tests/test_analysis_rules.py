"""Every rule fires on its minimal violation and stays silent on the
compliant variant (fixtures under ``tests/analysis_fixtures/``)."""

from pathlib import Path

import pytest

from repro.analysis import RULE_REGISTRY, analyze_paths, analyze_source

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
RULE_IDS = sorted(RULE_REGISTRY)


def fired_rules(path: Path):
    report = analyze_paths([str(path)])
    assert report.files_scanned == 1
    assert not report.parse_errors
    return {f.rule for f in report.findings}


class TestFixturePairs:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_rule_fires_on_bad_fixture(self, rule_id):
        path = FIXTURES / f"{rule_id.lower()}_bad.py"
        assert path.exists(), f"missing firing fixture for {rule_id}"
        assert rule_id in fired_rules(path)

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_rule_silent_on_good_fixture(self, rule_id):
        path = FIXTURES / f"{rule_id.lower()}_good.py"
        assert path.exists(), f"missing compliant fixture for {rule_id}"
        assert rule_id not in fired_rules(path)

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_good_fixtures_fully_clean(self, rule_id):
        # compliant variants must not trip *any* rule
        assert fired_rules(FIXTURES / f"{rule_id.lower()}_good.py") == set()


class TestRuleCatalogue:
    def test_rule_set_is_exactly_ra201(self):
        assert RULE_IDS == ["RA201"]

    def test_metadata_complete(self):
        for rule_id, rule in RULE_REGISTRY.items():
            assert rule.id == rule_id
            assert rule.severity in ("error", "warning")
            assert rule.summary
            assert rule.name


class TestRuleDetails:
    """Targeted edge cases beyond the canonical fixture pairs."""

    def test_ra201_allows_generator_construction(self, tmp_path):
        src = ("import numpy as np\n"
               "def f(seed):\n"
               "    return np.random.Generator(np.random.PCG64(seed))\n")
        assert analyze_source(src, tmp_path / "m.py") == []

    def test_ra201_flags_stdlib_random_module_draws(self, tmp_path):
        src = ("import random as rnd\n"
               "def f(xs, seed):\n"
               "    rnd.shuffle(xs)\n"
               "    return rnd.Random(seed).choice(xs)\n")
        findings = analyze_source(src, tmp_path / "m.py")
        assert [(f.rule, f.line) for f in findings] == [("RA201", 3)]

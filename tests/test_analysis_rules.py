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
    def test_at_least_eight_distinct_rules(self):
        assert len(RULE_REGISTRY) >= 8

    def test_metadata_complete(self):
        for rule_id, rule in RULE_REGISTRY.items():
            assert rule.id == rule_id
            assert rule.severity in ("error", "warning")
            assert rule.summary
            assert rule.name


class TestRuleDetails:
    """Targeted edge cases beyond the canonical fixture pairs."""

    def test_ra101_silent_in_substrate_module(self, tmp_path):
        # the optimizer is *allowed* to step parameters in place
        src = "def step(p, g):\n    p.data -= 0.1 * g\n"
        path = tmp_path / "optim.py"
        path.write_text(src)
        findings = analyze_source(src, path, display_path="src/repro/nn/optim.py")
        # display path does not decide substrate status; the module name does
        assert any(f.rule == "RA101" for f in findings)
        substrate = tmp_path / "src" / "repro" / "nn"
        substrate.mkdir(parents=True)
        sub_path = substrate / "optim.py"
        sub_path.write_text(src)
        assert analyze_source(src, sub_path) == []

    def test_ra102_tensor_wrap_is_exempt(self, tmp_path):
        src = ("def kd_loss(a, b, Tensor=None):\n"
               "    return (a - Tensor(b.data * 2.0)).mean()\n")
        findings = analyze_source(src, tmp_path / "m.py")
        assert not any(f.rule == "RA102" for f in findings)

    def test_ra103_one_finding_per_function(self, tmp_path):
        src = ("def evaluate(model, s, items):\n"
               "    a = model.compute_interests(s, items)\n"
               "    b = model.embed_items(items)\n"
               "    return a, b\n")
        findings = analyze_source(src, tmp_path / "m.py")
        assert len([f for f in findings if f.rule == "RA103"]) == 1

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

    def test_ra601_flags_writes_into_array_arguments(self, tmp_path):
        src = ("import numpy as np\n"
               "def f(scores: np.ndarray, out: np.ndarray, n):\n"
               "    out += scores\n"             # numpy's output buffer
               "    n += 1\n"                    # not an array argument
               "    scores *= 2.0\n"
               "    return out\n")
        findings = analyze_source(src, tmp_path / "m.py")
        assert [(f.rule, f.line) for f in findings] == [("RA601", 5)]

    def test_ra301_clip_via_local_assignment_is_guarded(self, tmp_path):
        # the binary_cross_entropy idiom: clip first, log later
        src = ("def bce_loss(pred, target, eps=1e-9):\n"
               "    pred = pred.clip(eps, 1.0 - eps)\n"
               "    return -(target * pred.log()).mean()\n")
        assert analyze_source(src, tmp_path / "m.py") == []

    def test_ra301_fires_on_tensor_log_method(self, tmp_path):
        src = ("def nll_loss(pred):\n"
               "    return -pred.log().mean()\n")
        findings = analyze_source(src, tmp_path / "m.py")
        assert any(f.rule == "RA301" for f in findings)

    def test_numerics_rules_ignore_non_loss_code(self, tmp_path):
        # same math, but not a loss function: no RA301/302/303
        src = ("import numpy as np\n"
               "def stats(x):\n"
               "    return np.log(x), np.exp(x), x / x.sum()\n")
        assert analyze_source(src, tmp_path / "m.py") == []

    def test_ra402_reraising_exception_handler_ok(self, tmp_path):
        src = ("def f(x):\n"
               "    try:\n"
               "        return g(x)\n"
               "    except Exception:\n"
               "        raise RuntimeError('context')\n")
        assert analyze_source(src, tmp_path / "m.py") == []

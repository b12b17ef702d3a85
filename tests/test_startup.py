"""Start-up guard: ``import repro`` and ordinary runs stay free of scipy
and of the static linter, and ``python -m repro`` runs the command it is
given.

``scipy.stats`` costs about half a second and 65 MB to import, and only
the Table III significance test uses it; the linter is only used by
``repro lint``.  Each case runs in a fresh interpreter, because the test
process itself has long since imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def run_code(*parts: str) -> subprocess.CompletedProcess:
    """Run the concatenated, separately dedented code ``parts``."""
    return run_python("-c", "\n".join(textwrap.dedent(p) for p in parts))


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


TINY_SPLIT = """
    from repro.data import WorldConfig, generate_world, split_time_spans
    from repro.incremental import TrainConfig
    from repro.experiments import make_strategy

    world = generate_world(WorldConfig(
        num_users=12, num_items=60, num_topics=6, init_topics_per_user=(2, 3),
        new_topic_rate=0.6, num_spans=3, pretrain_events_per_user=(12, 16),
        span_events_per_user=(5, 8), initial_catalog_fraction=0.8,
        span_activity=0.9, seed=3))
    split = split_time_spans(world.interactions, num_items=60, T=3, alpha=0.5)
    config = TrainConfig(epochs_pretrain=1, epochs_incremental=1,
                         num_negatives=4, seed=0)

    def strategy(name):
        return make_strategy(name, "ComiRec-DR", split, config,
                             model_kwargs={"dim": 8, "num_interests": 2})
"""


def test_import_loads_neither_scipy_nor_the_linter():
    out = last_json(run_code("""
        import json, sys
        import repro
        print(json.dumps({name: name in sys.modules
                          for name in ("scipy", "repro.analysis")}))
    """))
    assert out == {"scipy": False, "repro.analysis": False}


def test_runs_finish_without_importing_scipy(tmp_path):
    out = last_json(run_code(TINY_SPLIT, f"""
        import json, sys
        from repro.experiments import run_strategy
        from repro.stream import StreamConfig, events_from_split, run_stream

        span = run_strategy(strategy("IMSR"), split, "tiny", "ComiRec-DR")
        stream = run_stream(strategy("FT"),
                            events=events_from_split(split, seed=0)[:40],
                            config=StreamConfig(checkpoint_every=16),
                            checkpoint_dir={str(tmp_path)!r})
        print(json.dumps({{"spans": len(span.per_span),
                          "events": stream.events,
                          "scipy": "scipy" in sys.modules,
                          "analysis": "repro.analysis" in sys.modules}}))
    """))
    assert out["spans"] > 0 and out["events"] == 40
    # the cost left the process; it did not move into the run
    assert out["scipy"] is False
    assert out["analysis"] is False


def test_linter_is_still_an_attribute_and_a_command(tmp_path):
    out = last_json(run_code("""
        import json, sys
        import repro
        loaded_before = "repro.analysis" in sys.modules
        analysis = repro.analysis
        print(json.dumps({
            "before": loaded_before,
            "is_module": analysis is sys.modules["repro.analysis"],
            "listed": "analysis" in repro.__all__,
            "has_rules": bool(analysis.all_rules()),
        }))
    """))
    assert out == {"before": False, "is_module": True, "listed": True,
                   "has_rules": True}
    missing = run_code("import repro; repro.no_such_module")
    assert missing.returncode != 0
    assert "AttributeError" in missing.stderr

    clean = tmp_path / "clean.py"
    clean.write_text('"""A clean module."""\n\nVALUE = 1\n')
    lint = run_python("-m", "repro", "lint", str(clean))
    assert lint.returncode == 0, lint.stdout + lint.stderr


def test_module_entry_point_runs_the_named_command():
    proc = run_python("-m", "repro", "list")
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "strategies:" in proc.stdout and "IMSR" in proc.stdout


def test_paired_t_test_imports_scipy_on_first_call():
    out = last_json(run_code("""
        import json, sys
        from repro.eval import paired_t_test
        before = "scipy.stats" in sys.modules
        a = [0.2, 0.5, 0.4, 0.9, 0.7, 0.3]
        b = [0.1, 0.4, 0.5, 0.6, 0.5, 0.2]
        t_stat, p_value = paired_t_test(a, b)
        from scipy import stats
        ref = stats.ttest_rel(a, b)
        print(json.dumps({"before": before,
                          "after": "scipy.stats" in sys.modules,
                          "ours": [t_stat, p_value],
                          "scipy": [float(ref.statistic), float(ref.pvalue)]}))
    """))
    assert out["before"] is False and out["after"] is True
    assert out["ours"] == out["scipy"]

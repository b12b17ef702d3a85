"""Ablation benches for the substrate design choices DESIGN.md records.

These are *our* choices, not the paper's; each bench quantifies how much
the choice matters so the substitutions are auditable:

1. **Routing vote normalization** — the paper's text normalizes votes
   across items; the MIND/ComiRec reference code normalizes across
   capsules.  We compare end-task HR under both.
2. **Warm-start routing** — incremental IMSR carries interests across
   spans by initializing routing from the stored interest matrix.  With
   cold (random) initialization the carry-over mechanism disappears, so
   EIR's teacher becomes meaningless and retention should degrade.
3. **Dense vs strict evaluation** — we default to scoring every
   next-span item ("all") instead of the single held-out test item
   ("test") to recover statistical power at synthetic scale.  The bench
   verifies the two protocols agree on the FT-vs-IMSR ordering.
"""

from conftest import bench_config, bench_scale, report

from repro.data import load_dataset
from repro.eval import average_results, evaluate_span
from repro.experiments import make_strategy, shape_check
from repro.incremental import IMSR, FineTune
from repro.models import ComiRecDR


def _run(strategy, split, eval_targets="all"):
    strategy.pretrain()
    results = []
    for t in range(1, split.T):
        strategy.train_span(t)
        results.append(evaluate_span(strategy.score_users, split.spans[t],
                                     targets=eval_targets))
    return average_results(results)


def test_ablation_routing_normalization(run_once):
    def build():
        _, split = load_dataset("taobao", scale=bench_scale())
        config = bench_config()
        out = {}
        for normalize in ("items", "capsules"):
            model = ComiRecDR(split.num_items, dim=32, num_interests=4,
                              seed=config.seed, routing_normalize=normalize)
            out[normalize] = _run(IMSR(model, split, config), split)
        return out

    results = run_once(build)
    checks = [
        shape_check(
            "both normalization conventions produce a working system "
            "(HR within 2x of each other)",
            0.5 < results["items"].hr / max(results["capsules"].hr, 1e-9) < 2.0),
    ]
    body = "\n".join(
        f"normalize={name}: HR={res.hr:.4f} NDCG={res.ndcg:.4f}"
        for name, res in results.items()
    )
    report("Ablation: routing vote normalization (items vs capsules)",
           body, checks)


def test_ablation_warm_start_routing(run_once):
    def build():
        _, split = load_dataset("taobao", scale=bench_scale())
        config = bench_config()
        out = {}
        for warm in (True, False):
            model = ComiRecDR(split.num_items, dim=32, num_interests=4,
                              seed=config.seed, warm_start=warm)
            out[warm] = _run(IMSR(model, split, config), split)
        return out

    results = run_once(build)
    checks = [
        shape_check(
            "warm-start routing (interest carry-over) beats cold-start "
            "under IMSR",
            results[True].hr > results[False].hr),
    ]
    body = "\n".join(
        f"warm_start={name}: HR={res.hr:.4f} NDCG={res.ndcg:.4f}"
        for name, res in results.items()
    )
    report("Ablation: warm-start vs cold-start routing", body, checks)


def test_ablation_eval_protocol(run_once):
    def build():
        _, split = load_dataset("taobao", scale=bench_scale())
        config = bench_config()
        out = {}
        for name, cls in (("FT", FineTune), ("IMSR", IMSR)):
            strategy = make_strategy(name, "ComiRec-DR", split, config)
            strategy.pretrain()
            dense, strict = [], []
            for t in range(1, split.T):
                strategy.train_span(t)
                dense.append(evaluate_span(strategy.score_users,
                                           split.spans[t], targets="all"))
                strict.append(evaluate_span(strategy.score_users,
                                            split.spans[t], targets="test"))
            out[name] = (average_results(dense), average_results(strict))
        return out

    results = run_once(build)
    dense_order = results["IMSR"][0].hr - results["FT"][0].hr
    strict_order = results["IMSR"][1].hr - results["FT"][1].hr
    checks = [
        shape_check(
            "dense and strict protocols agree on the IMSR-vs-FT ordering "
            "(or strict is within noise)",
            dense_order * strict_order >= 0 or abs(strict_order) < 0.02),
        shape_check(
            "dense protocol yields >= 5x the test cases of strict",
            sum(r.num_cases for r in [results["FT"][0]])
            >= 5 * sum(r.num_cases for r in [results["FT"][1]])),
    ]
    body = "\n".join(
        f"{name}: dense HR={pair[0].hr:.4f} (n={pair[0].num_cases})  "
        f"strict HR={pair[1].hr:.4f} (n={pair[1].num_cases})"
        for name, pair in results.items()
    )
    report("Ablation: dense vs strict evaluation protocol", body, checks)

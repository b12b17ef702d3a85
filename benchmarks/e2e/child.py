"""One benchmark repetition in a fresh process.

Usage (``run.py`` starts it; ``src`` must be on ``PYTHONPATH``)::

    python benchmarks/e2e/child.py --workload NAME --seed N --trace 0|1
        --workdir DIR [--smoke] [--train-seed S]

Sets the workload up (imports, world, split, events, strategy), runs it
once and prints one JSON object: the end-to-end numbers, the outputs the
parent compares across repetitions, and with ``--trace 1`` the per-layer
numbers from :mod:`layers` and the op-level profiler.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _imsr_metrics(strategy) -> dict:
    added = sum(len(users) for users in getattr(
        strategy, "expansion_log", {}).values())
    trimmed = sum(sum(per_user.values()) for per_user in getattr(
        strategy, "trim_log", {}).values())
    return {
        "imsr.capsules_added": added * getattr(strategy, "delta_k", 0),
        "imsr.capsules_trimmed": trimmed,
    }


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--train-seed", type=int, default=0,
                        help="TrainConfig.seed; only calibrate.py varies it")
    args = parser.parse_args(argv)
    wl = workloads.get(args.workload, smoke=args.smoke)

    import numpy as np

    from repro import backend
    from repro.data import load_dataset
    from repro.experiments import default_config, make_strategy, run_strategy
    from repro.obs import prof
    from repro.stream import StreamConfig, events_from_split, run_stream

    import_s = time.perf_counter() - _START
    backend.set_backend(wl.backend)
    start = time.perf_counter()
    world, split = load_dataset(wl.dataset, scale=wl.scale,
                                seed_offset=args.seed)
    generate_s = time.perf_counter() - start
    start = time.perf_counter()
    events = None
    if wl.kind == "stream":
        events = events_from_split(split, seed=args.seed)[:wl.events]
    events_s = time.perf_counter() - start
    config = default_config(epochs_pretrain=wl.epochs[0],
                            epochs_incremental=wl.epochs[1],
                            seed=args.train_seed, **wl.train)
    strategy = make_strategy(wl.strategy, wl.model, split, config,
                             model_kwargs={"dim": 32, "num_interests": 4})
    setup_s = time.perf_counter() - _START

    layers = None
    if args.trace:
        from layers import Layers

        layers = Layers(strategy, stream=wl.kind == "stream").install()
        profiler = prof.start_profiling()
    try:
        start = time.perf_counter()
        if wl.kind == "stream":
            with tempfile.TemporaryDirectory(dir=args.workdir) as ckpt:
                result = run_stream(strategy, events=events,
                                    config=StreamConfig(),
                                    dataset_name=wl.dataset,
                                    model_name=wl.model,
                                    checkpoint_dir=ckpt)
        else:
            result = run_strategy(strategy, split, wl.dataset, wl.model)
        wall_s = time.perf_counter() - start
    finally:
        if layers is not None:
            prof.stop_profiling()
            layers.uninstall()

    train_s = float(sum(v for t, v in strategy.train_times.items() if t > 0))
    extract_s = float(sum(
        v for t, v in strategy.extract_times.items() if t > 0))
    pretrain_s = strategy.train_times[0] + strategy.extract_times[0]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    layer = {
        "setup.import_s": import_s,
        "data.generate_s": generate_s,
        "data.events_s": events_s,
        "data.users": len(strategy.states),
        "data.items": split.num_items,
        "data.interactions": len(world.interactions),
        "incremental.train_s": train_s,
        "incremental.extract_s": extract_s,
        "imsr.mean_k": float(np.mean(list(
            strategy.interest_counts().values()))),
        **_imsr_metrics(strategy),
    }
    if wl.kind == "stream":
        recalls = [r.window_recall for r in result.intervals
                   if r.window_recall is not None]
        ndcgs = [r.window_ndcg for r in result.intervals
                 if r.window_ndcg is not None]
        consumed = result.events
        out.update(
            outputs={"window_recall": recalls, "window_ndcg": ndcgs,
                     "chain": result.chain},
            events=result.events, scored=result.scored,
            quarantined_total=result.quarantined_total)
        rejected = result.quarantined_total + result.dropped
        layer.update({
            "eval.hr20": float(np.mean(recalls)),
            "eval.ndcg20": float(np.mean(ndcgs)),
            "incremental.outside_s": 0.0,
            "stream.scored": result.scored,
            "stream.trained": result.trained,
            "stream.quarantined.stale": result.quarantined.get("stale", 0),
            "stream.quarantined.duplicate": result.quarantined.get(
                "duplicate", 0),
            "stream.quarantined.other": result.quarantined_total - sum(
                result.quarantined.get(r, 0) for r in ("stale", "duplicate")),
        })
    else:
        # events absorbed after pretraining: the trained spans' interactions
        trained = [split.spans[t - 1] for t in range(1, split.T)]
        consumed = sum(len(span.users[u].all_items)
                       for span in trained for u in span.user_ids())
        out["outputs"] = {"hr": [r.hr for r in result.per_span],
                          "ndcg": [r.ndcg for r in result.per_span]}
        rejected = len(result.incidents)
        eval_s = sum(result.eval_times.values())
        layer.update({
            "eval.hr20": result.hr, "eval.ndcg20": result.ndcg,
            "incremental.outside_s": wall_s - (
                sum(strategy.train_times.values())
                + sum(strategy.extract_times.values()) + eval_s),
            "stream.scored": 0, "stream.trained": 0,
            "stream.quarantined.stale": 0, "stream.quarantined.duplicate": 0,
            "stream.quarantined.other": 0,
        })
    out["events_per_s"] = consumed / (wall_s - pretrain_s)
    if layers is not None:
        from layers import profile_metrics

        layer.update(layers.metrics())
        layer.update(profile_metrics(profiler.report()))
        attempted = (result.events if wl.kind == "stream"
                     else max(layers.loss_attempts, 1))
        layer["failed_share"] = (
            layer["incremental.nonfinite_skips"] + rejected) / attempted
        layer["obs.layer_coverage_share"] = layers.covered_s / wall_s
    out["layers"] = layer
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

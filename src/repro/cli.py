"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show available datasets, base models, strategies, and experiments.
``stats DATASET``
    Print the Table-II-style statistics of a dataset preset.
``run DATASET MODEL STRATEGY``
    Execute one incremental-learning run and print per-span metrics.
    ``--checkpoint-dir DIR`` makes the run journaled and crash-safe;
    ``--resume`` continues an interrupted run from the last good span.
``experiment ID``
    Regenerate one of the paper's tables/figures (e.g. ``table3``,
    ``fig5``) and print it with its shape checks.
``checkpoint-info PATH [--verify]``
    Inspect a checkpoint written by :mod:`repro.persistence`; with
    ``--verify``, re-hash every array against its manifest.
``lint [ARGS...]``
    Run the repository's static-analysis rules (:mod:`repro.analysis`);
    the arguments go to ``python -m repro.analysis`` unchanged.
``contracts list``
    Show every registered ``@shape_contract`` (:mod:`repro.contracts`).
``trace summarize DIR``
    Render the spans, decision events, and metrics of a trace written
    with ``run --trace-dir`` (:mod:`repro.obs`); ``--json`` emits the
    raw summary structure instead; ``--stream`` prints only the
    streaming-pipeline rollup (quarantine/backoff/degradation counts);
    ``--diff A B`` compares two traces instead (fingerprint-aware
    span-duration and counter deltas).
``trace flame DIR``
    Export a profiled trace as a flamegraph: collapsed stacks
    (``--out``), speedscope JSON (``--speedscope``), and the critical
    path through the span tree (``--critical-path``).
``stream run DATASET MODEL STRATEGY``
    Prequential (test-then-learn) streaming run over the dataset's
    event stream with the full robustness envelope — validation gate +
    quarantine, offset-journaled exactly-once commits, retry-with-
    backoff, graceful degradation (:mod:`repro.stream`).
    ``--checkpoint-dir`` + ``--resume`` continue a crashed run
    metric-identically from its last committed interval.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .data import DATASET_NAMES, compute_stats, load_dataset
from .experiments import (
    EXPERIMENTS,
    default_config,
    format_table,
    get_experiment,
    make_strategy,
    render_shape_checks,
    run_strategy,
)
from .incremental import STRATEGY_REGISTRY
from .models import MODEL_REGISTRY
from .obs.log import configure_logging, get_logger

logger = get_logger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IMSR reproduction (Wang & Shen, ICDE 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list datasets/models/strategies/experiments")

    p_stats = sub.add_parser("stats", help="dataset statistics (Table II)")
    p_stats.add_argument("dataset", choices=DATASET_NAMES)
    p_stats.add_argument("--scale", type=float, default=1.0)

    p_run = sub.add_parser("run", help="one incremental-learning run")
    p_run.add_argument("dataset", choices=DATASET_NAMES)
    p_run.add_argument("model", choices=sorted(MODEL_REGISTRY))
    p_run.add_argument("strategy", choices=sorted(STRATEGY_REGISTRY))
    p_run.add_argument("--scale", type=float, default=1.0)
    p_run.add_argument("--epochs", type=int, default=10,
                       help="pretraining epochs (incremental = 40%%)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--dim", type=int, default=32)
    p_run.add_argument("--interests", type=int, default=4,
                       help="initial interests per user (K)")
    p_run.add_argument("--c1", type=float, default=None,
                       help="IMSR puzzlement threshold")
    p_run.add_argument("--c2", type=float, default=None,
                       help="IMSR trimming threshold")
    p_run.add_argument("--delta-k", type=int, default=None,
                       help="IMSR interests added on expansion")
    p_run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="journal the run: one atomic checkpoint per "
                            "span plus journal.json in DIR")
    p_run.add_argument("--resume", action="store_true",
                       help="continue an interrupted run from the last "
                            "good span in --checkpoint-dir")
    p_run.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="record spans, decision events, and metrics "
                            "to DIR/trace.jsonl (repro.obs)")
    p_run.add_argument("--profile", action="store_true",
                       help="op-level profiling: kernel/backend-op "
                            "timings, FLOPs, memory (repro.obs.prof); "
                            "prints the attribution table and, with "
                            "--trace-dir, folds op stats into the trace")

    p_exp = sub.add_parser("experiment",
                           help="regenerate a paper table/figure")
    p_exp.add_argument("experiment_id", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--scale", type=float, default=1.0)
    p_exp.add_argument("--epochs", type=int, default=10)

    p_ckpt = sub.add_parser("checkpoint-info", help="inspect a checkpoint")
    p_ckpt.add_argument("path")
    p_ckpt.add_argument("--verify", action="store_true",
                        help="re-hash every array against the manifest")

    # main() hands everything after ``lint`` to repro.analysis.cli
    sub.add_parser("lint", add_help=False,
                   help="run the static-analysis rules (`repro lint "
                        "--help` lists the analyzer's options)")

    p_contracts = sub.add_parser(
        "contracts", help="inspect the shape-contract registry")
    contracts_sub = p_contracts.add_subparsers(dest="contracts_command",
                                               required=True)
    contracts_sub.add_parser("list", help="print every registered contract")

    p_trace = sub.add_parser("trace", help="inspect an observability trace")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summarize = trace_sub.add_parser(
        "summarize", help="render a trace directory's spans/events/metrics")
    p_summarize.add_argument("directory", nargs="?", default=None,
                             help="directory holding trace.jsonl (or the "
                                  "file itself)")
    p_summarize.add_argument("--json", action="store_true",
                             help="emit the raw summary structure as JSON")
    p_summarize.add_argument("--stream", action="store_true",
                             help="print only the streaming-pipeline "
                                  "rollup (quarantine/backoff/degradation "
                                  "counts per run)")
    p_summarize.add_argument("--diff", nargs=2, metavar=("A", "B"),
                             default=None,
                             help="compare two traces instead of "
                                  "summarizing one: fingerprint match, "
                                  "per-span duration deltas, changed "
                                  "counters")
    p_flame = trace_sub.add_parser(
        "flame", help="flamegraph export for a profiled trace")
    p_flame.add_argument("directory",
                         help="directory holding trace.jsonl (or the "
                              "file itself)")
    p_flame.add_argument("--out", default=None, metavar="FILE",
                         help="write collapsed stacks (one 'a;b;c µs' "
                              "line per stack) to FILE instead of stdout")
    p_flame.add_argument("--speedscope", default=None, metavar="FILE",
                         help="also write a speedscope-format JSON "
                              "profile to FILE")
    p_flame.add_argument("--critical-path", action="store_true",
                         help="print the heaviest root-to-leaf span "
                              "chain instead of collapsed stacks")

    p_stream = sub.add_parser(
        "stream", help="resilient prequential streaming (repro.stream)")
    stream_sub = p_stream.add_subparsers(dest="stream_command", required=True)
    p_stream_run = stream_sub.add_parser(
        "run", help="test-then-learn over the dataset's event stream")
    p_stream_run.add_argument("dataset", choices=DATASET_NAMES)
    p_stream_run.add_argument("model", choices=sorted(MODEL_REGISTRY))
    p_stream_run.add_argument("strategy", choices=sorted(STRATEGY_REGISTRY))
    p_stream_run.add_argument("--scale", type=float, default=1.0)
    p_stream_run.add_argument("--epochs", type=int, default=10,
                              help="pretraining epochs before streaming")
    p_stream_run.add_argument("--seed", type=int, default=0)
    p_stream_run.add_argument("--dim", type=int, default=32)
    p_stream_run.add_argument("--interests", type=int, default=4)
    p_stream_run.add_argument("--events", type=int, default=None,
                              help="stream only the first N events")
    p_stream_run.add_argument("--checkpoint-every", type=int, default=32,
                              help="events per commit interval")
    p_stream_run.add_argument("--window", type=int, default=64,
                              help="sliding-window length for recall/NDCG")
    p_stream_run.add_argument("--min-window-recall", type=float, default=0.0,
                              help="degrade to score-only below this "
                                   "sliding-window recall (0 disables)")
    p_stream_run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                              help="offset-journal the run: one atomic "
                                   "checkpoint per interval plus "
                                   "stream-journal.json in DIR")
    p_stream_run.add_argument("--resume", action="store_true",
                              help="continue an interrupted stream from "
                                   "its last committed interval")
    p_stream_run.add_argument("--trace-dir", default=None, metavar="DIR",
                              help="record spans/events/metrics (repro.obs)")
    p_stream_run.add_argument("--json", action="store_true",
                              help="emit the result summary as JSON")

    return parser


def cmd_list() -> int:
    print("datasets:   ", ", ".join(DATASET_NAMES))
    print("models:     ", ", ".join(sorted(MODEL_REGISTRY)))
    print("strategies: ", ", ".join(sorted(STRATEGY_REGISTRY)))
    print("experiments:", ", ".join(sorted(EXPERIMENTS)))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    _, split = load_dataset(args.dataset, scale=args.scale)
    stats = compute_stats(args.dataset, split)
    print(format_table([stats.as_row()]))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    configure_logging()
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    _, split = load_dataset(args.dataset, scale=args.scale)
    config = default_config(
        epochs_pretrain=args.epochs,
        epochs_incremental=max(2, int(round(args.epochs * 0.4))),
        seed=args.seed,
    )
    strategy_kwargs = {}
    for key, value in (("c1", args.c1), ("c2", args.c2),
                       ("delta_k", args.delta_k)):
        if value is not None:
            if args.strategy != "IMSR":
                print(f"warning: --{key} only applies to IMSR", file=sys.stderr)
            else:
                strategy_kwargs[key] = value
    strategy = make_strategy(
        args.strategy, args.model, split, config,
        model_kwargs={"dim": args.dim, "num_interests": args.interests},
        strategy_kwargs=strategy_kwargs,
    )
    result = run_strategy(strategy, split, args.dataset, args.model,
                          checkpoint_dir=args.checkpoint_dir,
                          resume=args.resume,
                          trace_dir=args.trace_dir,
                          profile=args.profile)
    rows = [
        {"span": t + 1, "HR@20": r.hr, "NDCG@20": r.ndcg,
         "cases": r.num_cases, "mean K": result.interest_counts[t]}
        for t, r in enumerate(result.per_span)
    ]
    print(format_table(rows))
    print(f"average: HR@20={result.hr:.4f}  NDCG@20={result.ndcg:.4f}  "
          f"inference={result.inference_time * 1000:.2f} ms/user")
    # diagnostics go through the repro logger (stderr), not stdout, so
    # result tables stay machine-parseable and incidents are filterable
    if result.resumed_spans:
        logger.info("resumed: spans %s reused from %s/journal.json",
                    result.resumed_spans, args.checkpoint_dir)
    for incident in result.incidents:
        logger.warning("incident: span %s %s -> %s", incident["span"],
                       incident["kind"], incident["action"])
    if args.profile and result.profile is not None:
        from .obs import render_prof_summary

        print(render_prof_summary(result.profile))
    if args.trace_dir is not None:
        print(f"trace: {args.trace_dir}/trace.jsonl "
              f"(inspect with `repro trace summarize {args.trace_dir}`)")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.experiment_id)
    if args.experiment_id == "table2":
        rows = []
        for name in DATASET_NAMES:
            _, split = load_dataset(name, scale=args.scale)
            rows.append(compute_stats(name, split).as_row())
        print(format_table(rows))
        return 0
    config = default_config(
        epochs_pretrain=args.epochs,
        epochs_incremental=max(2, int(round(args.epochs * 0.4))),
    )
    result = experiment.driver(scale=args.scale, config=config)
    print(result.format())
    checks = getattr(result, "shape_checks", None)
    if callable(checks):
        print(render_shape_checks(checks()))
    return 0


def cmd_checkpoint_info(args: argparse.Namespace) -> int:
    from .persistence import CheckpointError, checkpoint_info

    try:
        meta = checkpoint_info(args.path, verify=args.verify)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, value in meta.items():
        if key == "users":
            print(f"users: {len(value)}")
        elif key == "arrays":
            print(f"arrays: {len(value)} checksummed")
        elif key == "rng":
            print(f"rng: {', '.join(sorted(value))}")
        else:
            print(f"{key}: {value}")
    if args.verify:
        print("verification: OK (whole-file SHA-256 + per-array checksums)")
    return 0


def cmd_contracts(args: argparse.Namespace) -> int:
    from .contracts import checking_enabled, load_annotated, registry_rows

    if args.contracts_command == "list":
        load_annotated()
        rows = registry_rows()
        if not rows:
            print("no registered contracts")
            return 0
        width_mod = max(len(m) for m, _, _ in rows)
        width_fn = max(len(q) for _, q, _ in rows)
        for module, qualname, spec in rows:
            print(f"{module:<{width_mod}}  {qualname:<{width_fn}}  {spec}")
        state = "on" if checking_enabled() else "off"
        print(f"{len(rows)} contract(s); runtime enforcement is {state} "
              f"(REPRO_CHECK_SHAPES / repro.contracts.enforce)")
        return 0
    raise AssertionError(
        f"unhandled contracts command {args.contracts_command!r}")


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .obs import (
        TraceError,
        collapsed_stacks,
        critical_path,
        diff_traces,
        read_trace,
        render_critical_path,
        render_diff,
        render_stream_summary,
        render_summary,
        speedscope_profile,
        summarize_trace,
    )

    if args.trace_command == "summarize":
        if args.diff is not None:
            try:
                diff = diff_traces(args.diff[0], args.diff[1])
            except TraceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            if args.json:
                print(json.dumps(diff, indent=2, sort_keys=True))
            else:
                print(render_diff(diff))
            return 0
        if args.directory is None:
            print("error: a trace directory (or --diff A B) is required",
                  file=sys.stderr)
            return 2
        try:
            summary = summarize_trace(args.directory)
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.stream:
            if args.json:
                print(json.dumps(summary.get("stream"), indent=2,
                                 sort_keys=True))
            else:
                print(render_stream_summary(summary))
        elif args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_summary(summary))
        return 0
    if args.trace_command == "flame":
        try:
            events, _ = read_trace(args.directory)
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.speedscope is not None:
            profile = speedscope_profile(events, name=args.directory)
            with open(args.speedscope, "w", encoding="utf-8") as fh:
                json.dump(profile, fh)
            print(f"speedscope profile: {args.speedscope}", file=sys.stderr)
        if args.critical_path:
            print(render_critical_path(critical_path(events)))
            return 0
        stacks = collapsed_stacks(events)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(stacks) + ("\n" if stacks else ""))
            print(f"collapsed stacks: {args.out} ({len(stacks)} line(s))",
                  file=sys.stderr)
        else:
            for line in stacks:
                print(line)
        return 0
    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def cmd_stream(args: argparse.Namespace) -> int:
    import json

    from .stream import StreamConfig, events_from_split, run_stream

    configure_logging()
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    _, split = load_dataset(args.dataset, scale=args.scale)
    config = default_config(
        epochs_pretrain=args.epochs,
        epochs_incremental=max(2, int(round(args.epochs * 0.4))),
        seed=args.seed,
    )
    strategy = make_strategy(
        args.strategy, args.model, split, config,
        model_kwargs={"dim": args.dim, "num_interests": args.interests},
    )
    events = events_from_split(split, seed=args.seed)
    if args.events is not None:
        events = events[:args.events]
    stream_config = StreamConfig(
        checkpoint_every=args.checkpoint_every,
        window=args.window,
        min_window_recall=args.min_window_recall,
    )
    result = run_stream(
        strategy, events=events, config=stream_config,
        dataset_name=args.dataset, model_name=args.model,
        checkpoint_dir=args.checkpoint_dir, resume=args.resume,
        trace_dir=args.trace_dir)
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        rows = [
            {"interval": r.interval, "offset": r.offset,
             "trained": r.trained, "quarantined": r.quarantined,
             "mode": r.mode,
             "window HR@20": (f"{r.window_recall:.4f}"
                              if r.window_recall is not None else "-")}
            for r in result.intervals
        ]
        print(format_table(rows))
        recall = (f"{result.window_recall:.4f}"
                  if result.window_recall is not None else "-")
        print(f"stream: {result.events} events, {result.scored} scored, "
              f"{result.trained} trained, "
              f"{result.quarantined_total} quarantined, "
              f"window HR@20={recall}, mode={result.mode}")
    if result.resumed_from is not None:
        logger.info("resumed: interval %s reused from %s",
                    result.resumed_from, args.checkpoint_dir)
    if result.degraded_spells:
        logger.warning("degraded %s time(s), recovered %s time(s)",
                       result.degraded_spells, result.recoveries)
    if args.trace_dir is not None:
        print(f"trace: {args.trace_dir}/trace.jsonl (inspect with "
              f"`repro trace summarize --stream {args.trace_dir}`)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from .analysis.cli import main as analysis_main

        return analysis_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "stats":
        return cmd_stats(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "experiment":
        return cmd_experiment(args)
    if args.command == "checkpoint-info":
        return cmd_checkpoint_info(args)
    if args.command == "contracts":
        return cmd_contracts(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "stream":
        return cmd_stream(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())

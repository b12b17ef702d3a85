#!/usr/bin/env python3
"""Summarize a benchmark run's shape checks into a markdown table.

Usage:  python benchmarks/summarize.py bench_output.txt
            [--robustness robustness.json] [--obs BENCH_obs.json]
            [--stream BENCH_stream.json]

Parses the ``===== <title> =====`` sections and the ``N/M shape checks
hold`` lines the bench harness prints, and emits the markdown summary
that EXPERIMENTS.md embeds.  With ``--robustness``, the
checkpoint/resume latency report emitted by
``benchmarks/robustness_probe.py`` is folded in as a row group; with
``--obs``, the instrumentation-overhead report emitted by
``benchmarks/obs_probe.py`` is folded in the same way; with
``--stream``, the streaming-pipeline throughput/quarantine/recovery
report emitted by ``benchmarks/stream_probe.py`` is folded in too.

Performance is gated elsewhere: ``benchmarks/e2e`` times the real
workloads, and CI compares a change against its merge-base with
``benchmarks/e2e/compare.py``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import List, Optional, Tuple


def parse_sections(text: str) -> List[Tuple[str, int, int]]:
    """Return (section title, checks passed, checks total) triples."""
    sections: List[Tuple[str, int, int]] = []
    title = None
    for line in text.splitlines():
        header = re.match(r"^=====\s+(.*?)\s+=====$", line)
        if header:
            title = header.group(1)
            continue
        tally = re.match(r"^(\d+)/(\d+) shape checks hold$", line.strip())
        if tally and title is not None:
            sections.append((title, int(tally.group(1)), int(tally.group(2))))
            title = None
    return sections




def parse_robustness(text: str) -> List[Tuple[str, str]]:
    """Turn a ``robustness_probe.py`` JSON report into table rows."""
    payload = json.loads(text)
    if payload.get("tool") != "repro.robustness":
        raise ValueError(
            f"not a robustness report (tool={payload.get('tool')!r})")
    ckpt = payload.get("checkpoint", {})
    run = payload.get("run", {})
    rows = [
        ("checkpoint save",
         f"{ckpt.get('save_ms', 0):.1f} ms "
         f"({ckpt.get('size_bytes', 0) / 1024:.0f} KiB, "
         f"{ckpt.get('arrays', 0)} arrays)"),
        ("checkpoint verify", f"{ckpt.get('verify_ms', 0):.1f} ms"),
        ("checkpoint load", f"{ckpt.get('load_ms', 0):.1f} ms"),
        ("journaled-run overhead",
         f"{run.get('journal_overhead_pct', 0):+.1f}% wall clock"),
        ("resume speedup",
         f"{run.get('resume_speedup', 0):.1f}x "
         f"({run.get('resumed_spans', 0)} spans reused)"),
    ]
    return rows


def parse_obs(text: str) -> List[Tuple[str, str]]:
    """Turn an ``obs_probe.py`` JSON report into table rows."""
    payload = json.loads(text)
    if payload.get("tool") != "repro.obs":
        raise ValueError(
            f"not an obs report (tool={payload.get('tool')!r})")
    rows = [
        ("disabled probes",
         f"{payload.get('disabled_probe_ns', 0):.0f} ns/call, "
         f"{payload.get('disabled_overhead_pct', 0):.3f}% of run "
         f"(budget {payload.get('budget_pct', 0):.0f}%)"),
        ("traced run",
         f"{payload.get('traced_overhead_pct', 0):+.1f}% wall clock "
         f"({payload.get('events_written', 0)} events, "
         f"{payload.get('metric_updates', 0)} metric updates)"),
    ]
    if "prof_disabled_overhead_pct" in payload:
        rows.append((
            "disabled profiler",
            f"scope {payload.get('prof_scope_ns', 0):.0f} ns × "
            f"{payload.get('prof_scope_fires', 0)}, check "
            f"{payload.get('prof_check_ns', 0):.0f} ns × "
            f"{payload.get('prof_check_fires', 0)} = "
            f"{payload.get('prof_disabled_overhead_pct', 0):.3f}% of run "
            f"(budget {payload.get('budget_pct', 0):.0f}%)"))
    return rows


def parse_stream(text: str) -> List[Tuple[str, str]]:
    """Turn a ``stream_probe.py`` JSON report into table rows."""
    payload = json.loads(text)
    if payload.get("tool") != "repro.stream":
        raise ValueError(
            f"not a stream report (tool={payload.get('tool')!r})")
    throughput = payload.get("throughput", {})
    quarantine = payload.get("quarantine", {})
    recovery = payload.get("recovery", {})
    eps = float(throughput.get("events_per_sec", 0.0))
    reasons = quarantine.get("quarantined", {})
    per_reason = ", ".join(f"{reason}={count}"
                           for reason, count in sorted(reasons.items()))
    rate = quarantine.get("quarantine_rate")
    latency = recovery.get("recovery_latency_s")
    rows = [
        ("throughput",
         f"{eps:.0f} events/sec, journal "
         f"{throughput.get('journal_overhead_pct', 0):+.1f}%, "
         f"{throughput.get('intervals_committed', 0)} intervals"),
        ("quarantine",
         f"rate {rate:.1%} under fault mix ({per_reason})"
         if rate is not None else "no faults injected"),
        ("recovery",
         f"{latency * 1000:.0f} ms degrade->recover "
         f"({recovery.get('degraded_spells', 0)} spell(s), final mode "
         f"{recovery.get('final_mode', '?')})"
         if latency is not None else "no degradation observed"),
    ]
    return rows


def to_markdown(sections: List[Tuple[str, int, int]],
                robustness: Optional[List[Tuple[str, str]]] = None,
                obs: Optional[List[Tuple[str, str]]] = None,
                stream: Optional[List[Tuple[str, str]]] = None) -> str:
    lines = ["| experiment | shape checks |", "|---|---|"]
    passed_total = checks_total = 0
    for title, passed, total in sections:
        lines.append(f"| {title} | {passed}/{total} |")
        passed_total += passed
        checks_total += total
    lines.append(f"| **overall** | **{passed_total}/{checks_total}** |")
    if robustness:
        for label, cell in robustness:
            lines.append(f"| robustness: {label} | {cell} |")
    if obs:
        for label, cell in obs:
            lines.append(f"| obs: {label} | {cell} |")
    if stream:
        for label, cell in stream:
            lines.append(f"| stream: {label} | {cell} |")
    return "\n".join(lines)


def _take_flag(args: List[str], flag: str) -> Optional[str]:
    """Pop ``flag VALUE`` from args; return VALUE, None, or '' if dangling."""
    if flag not in args:
        return None
    at = args.index(flag)
    try:
        value = args[at + 1]
    except IndexError:
        return ""
    del args[at:at + 2]
    return value


def main(argv: List[str]) -> int:
    args = list(argv[1:])
    robustness_path = _take_flag(args, "--robustness")
    obs_path = _take_flag(args, "--obs")
    stream_path = _take_flag(args, "--stream")
    if (robustness_path == "" or obs_path == "" or stream_path == ""
            or len(args) != 1):
        print(__doc__)
        return 2
    text = Path(args[0]).read_text()
    sections = parse_sections(text)
    if not sections:
        print("no shape-check sections found", file=sys.stderr)
        return 1
    robustness = None
    if robustness_path is not None:
        try:
            robustness = parse_robustness(Path(robustness_path).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: could not read robustness report "
                  f"{robustness_path}: {exc}", file=sys.stderr)
            return 2
    obs = None
    if obs_path is not None:
        try:
            obs = parse_obs(Path(obs_path).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: could not read obs report {obs_path}: {exc}",
                  file=sys.stderr)
            return 2
    stream = None
    if stream_path is not None:
        try:
            stream = parse_stream(Path(stream_path).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: could not read stream report "
                  f"{stream_path}: {exc}", file=sys.stderr)
            return 2
    print(to_markdown(sections, robustness=robustness, obs=obs,
                      stream=stream))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

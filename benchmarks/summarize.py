#!/usr/bin/env python3
"""Summarize a benchmark run's shape checks into a markdown table.

Usage:  python benchmarks/summarize.py bench_output.txt
            [--lint lint.json] [--contracts src]
            [--robustness robustness.json] [--obs BENCH_obs.json]
            [--sanitize BENCH_sanitize.json] [--stream BENCH_stream.json]

Parses the ``===== <title> =====`` sections and the ``N/M shape checks
hold`` lines the bench harness prints, and emits the markdown summary
that EXPERIMENTS.md embeds.  With ``--lint``, the JSON report from
``python -m repro.analysis src --format json`` is appended as an extra
row so lint counts are tracked next to the reproduction metrics; with
``--contracts``, per-package shape-contract coverage (decorated public
functions / total public functions) is appended as well; with
``--robustness``, the checkpoint/resume latency report emitted by
``benchmarks/robustness_probe.py`` is folded in as a row group; with
``--obs``, the instrumentation-overhead report emitted by
``benchmarks/obs_probe.py`` is folded in the same way; with
``--sanitize``, the write-guard overhead report emitted by
``benchmarks/sanitize_probe.py`` is folded in alongside it; with
``--stream``, the streaming-pipeline throughput/quarantine/recovery
report emitted by ``benchmarks/stream_probe.py`` is folded in too.

Performance is gated elsewhere: ``benchmarks/e2e`` times the real
workloads, and CI compares a change against its merge-base with
``benchmarks/e2e/compare.py``.
"""

from __future__ import annotations

import ast
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


def _rule_family_counts(by_rule: dict) -> dict:
    """Roll finding counts up into rule families (RA1xx, RA6xx, ...)."""
    families: dict = {}
    for rid, n in by_rule.items():
        family = rid[:3] + "xx" if re.match(r"^RA\d{3}$", rid) else rid
        families[family] = families.get(family, 0) + int(n)
    return families


def parse_lint(text: str) -> Tuple[str, str]:
    """Turn a ``repro.analysis --format json`` report into a table row.

    Aliasing (RA6xx) and determinism (RA7xx) counts are always shown —
    zero included — so the summary records that those families ran.
    """
    payload = json.loads(text)
    summary = payload.get("summary", {})
    findings = int(summary.get("findings", 0))
    parse_errors = int(summary.get("parse_errors", 0))
    files = int(summary.get("files_scanned", 0))
    families = _rule_family_counts(summary.get("by_rule", {}))
    tracked = ", ".join(
        f"{fam} {families.get(fam, 0)}" for fam in ("RA6xx", "RA7xx"))
    if findings == 0 and parse_errors == 0:
        return ("static analysis", f"clean ({files} files; {tracked})")
    by_rule = summary.get("by_rule", {})
    detail = ", ".join(f"{rid}×{n}" for rid, n in sorted(by_rule.items()))
    cell = f"{findings + parse_errors} finding(s)"
    if detail:
        cell += f" [{detail}]"
    return ("static analysis", f"{cell} ({tracked})")


def _is_contract_decorator(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None)
    return name == "shape_contract"


def contract_coverage(src_root: Path) -> List[Tuple[str, int, int]]:
    """Per-package (package, annotated, public-function total) triples.

    Counts module- and class-level ``def``s whose names are public (no
    leading underscore); a function counts as annotated when it carries
    a ``@shape_contract(...)`` decorator.  Packages are the direct
    subpackages of ``repro`` (top-level modules roll up under ``repro``).
    """
    repro = src_root / "repro"
    tallies: dict[str, List[int]] = {}
    for path in sorted(repro.rglob("*.py")):
        rel = path.relative_to(repro)
        package = ("repro." + rel.parts[0]
                   if len(rel.parts) > 1 else "repro")
        try:
            tree = ast.parse(path.read_text())
        except SyntaxError:
            continue
        counts = tallies.setdefault(package, [0, 0])
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            counts[1] += 1
            if any(_is_contract_decorator(d) for d in node.decorator_list):
                counts[0] += 1
    return [(pkg, annotated, total)
            for pkg, (annotated, total) in sorted(tallies.items())]


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


def parse_sanitize(text: str) -> List[Tuple[str, str]]:
    """Turn a ``sanitize_probe.py`` JSON report into table rows."""
    payload = json.loads(text)
    if payload.get("tool") != "repro.sanitize":
        raise ValueError(
            f"not a sanitize report (tool={payload.get('tool')!r})")
    rows = [
        ("disabled guards",
         f"capture {payload.get('capture_ns', 0):.0f} ns × "
         f"{payload.get('capture_calls', 0)}, flag "
         f"{payload.get('flag_test_ns', 0):.0f} ns × "
         f"{payload.get('graph_builds', 0)} = "
         f"{payload.get('disabled_overhead_pct', 0):.3f}% of run "
         f"(budget {payload.get('budget_pct', 0):.0f}%)"),
        ("enforced run",
         f"{payload.get('enforced_overhead_pct', 0):+.1f}% wall clock"),
    ]
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
                lint: Optional[Tuple[str, str]] = None,
                coverage: Optional[List[Tuple[str, int, int]]] = None,
                robustness: Optional[List[Tuple[str, str]]] = None,
                obs: Optional[List[Tuple[str, str]]] = None,
                sanitize: Optional[List[Tuple[str, str]]] = None,
                stream: Optional[List[Tuple[str, str]]] = None) -> str:
    lines = ["| experiment | shape checks |", "|---|---|"]
    passed_total = checks_total = 0
    for title, passed, total in sections:
        lines.append(f"| {title} | {passed}/{total} |")
        passed_total += passed
        checks_total += total
    lines.append(f"| **overall** | **{passed_total}/{checks_total}** |")
    if lint is not None:
        lines.append(f"| {lint[0]} | {lint[1]} |")
    if coverage:
        annotated_total = fn_total = 0
        for pkg, annotated, total in coverage:
            lines.append(
                f"| contracts: {pkg} | {annotated}/{total} annotated |")
            annotated_total += annotated
            fn_total += total
        lines.append(f"| **contracts overall** | "
                     f"**{annotated_total}/{fn_total} annotated** |")
    if robustness:
        for label, cell in robustness:
            lines.append(f"| robustness: {label} | {cell} |")
    if obs:
        for label, cell in obs:
            lines.append(f"| obs: {label} | {cell} |")
    if sanitize:
        for label, cell in sanitize:
            lines.append(f"| sanitize: {label} | {cell} |")
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
    lint_path = _take_flag(args, "--lint")
    contracts_root = _take_flag(args, "--contracts")
    robustness_path = _take_flag(args, "--robustness")
    obs_path = _take_flag(args, "--obs")
    sanitize_path = _take_flag(args, "--sanitize")
    stream_path = _take_flag(args, "--stream")
    if (lint_path == "" or contracts_root == "" or robustness_path == ""
            or obs_path == "" or sanitize_path == ""
            or stream_path == "" or len(args) != 1):
        print(__doc__)
        return 2
    text = Path(args[0]).read_text()
    sections = parse_sections(text)
    if not sections:
        print("no shape-check sections found", file=sys.stderr)
        return 1
    lint = None
    if lint_path is not None:
        try:
            lint = parse_lint(Path(lint_path).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: could not read lint report {lint_path}: {exc}",
                  file=sys.stderr)
            return 2
    coverage = None
    if contracts_root is not None:
        root = Path(contracts_root)
        if not (root / "repro").is_dir():
            print(f"error: {root} has no repro/ package", file=sys.stderr)
            return 2
        coverage = contract_coverage(root)
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
    sanitize = None
    if sanitize_path is not None:
        try:
            sanitize = parse_sanitize(Path(sanitize_path).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: could not read sanitize report "
                  f"{sanitize_path}: {exc}", file=sys.stderr)
            return 2
    stream = None
    if stream_path is not None:
        try:
            stream = parse_stream(Path(stream_path).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: could not read stream report "
                  f"{stream_path}: {exc}", file=sys.stderr)
            return 2
    print(to_markdown(sections, lint=lint, coverage=coverage,
                      robustness=robustness, obs=obs,
                      sanitize=sanitize, stream=stream))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

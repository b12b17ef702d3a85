#!/usr/bin/env python3
"""Generate docs/API.md from the package's public surfaces.

Walks every ``repro`` subpackage's ``__all__``, collects signatures and
first docstring lines, and writes a markdown reference.  Run after
changing any public API:

    python docs/generate_api_reference.py
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

PACKAGES = [
    "repro.autograd",
    "repro.backend",
    "repro.nn",
    "repro.data",
    "repro.models",
    "repro.incremental",
    "repro.lifelong",
    "repro.eval",
    "repro.experiments",
    "repro.persistence",
    "repro.journal",
    "repro.stream",
    "repro.faults",
    "repro.obs",
    "repro.obs.prof",
    "repro.obs.flame",
    "repro.backend.instrument",
    "repro.analysis",
]


def describe(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.splitlines()[0] if doc else ""
    return first


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def document_package(name: str) -> str:
    module = importlib.import_module(name)
    lines = [f"## `{name}`", ""]
    header = describe(module)
    if header:
        lines += [header, ""]
    exported = getattr(module, "__all__", None)
    if exported is None:
        exported = [n for n in dir(module) if not n.startswith("_")]
    for attr_name in exported:
        attr = getattr(module, attr_name, None)
        if attr is None or inspect.ismodule(attr):
            continue
        if inspect.isclass(attr):
            lines.append(f"### class `{attr_name}{signature_of(attr)}`")
            lines.append("")
            summary = describe(attr)
            if summary:
                lines += [summary, ""]
            methods = [
                (m_name, m)
                for m_name, m in inspect.getmembers(attr, inspect.isfunction)
                if not m_name.startswith("_") and m.__qualname__.startswith(attr.__name__)
            ]
            for m_name, method in methods:
                lines.append(
                    f"- `{m_name}{signature_of(method)}` — {describe(method)}"
                )
            if methods:
                lines.append("")
        elif callable(attr):
            lines.append(
                f"- **`{attr_name}{signature_of(attr)}`** — {describe(attr)}"
            )
        else:
            rep = repr(attr)
            # default reprs carry a memory address, which differs per run
            if len(rep) > 120 or " at 0x" in rep:
                try:
                    rep = f"<{type(attr).__name__} with {len(attr)} entries>"
                except TypeError:
                    rep = rep[:117] + "..."
            lines.append(f"- `{attr_name}` = `{rep}`")
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    parts = [
        "# API reference",
        "",
        "Generated by `docs/generate_api_reference.py`; regenerate after",
        "changing any public surface.",
        "",
    ]
    for package in PACKAGES:
        parts.append(document_package(package))
    out = Path(__file__).resolve().parent / "API.md"
    out.write_text("\n".join(parts))
    print(f"wrote {out} ({out.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

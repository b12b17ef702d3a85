"""The generated API reference must stay in sync with the public API."""

import importlib.util
import re
from pathlib import Path

DOCS = Path(__file__).resolve().parent.parent / "docs"

_SPEC = importlib.util.spec_from_file_location(
    "gen_api", DOCS / "generate_api_reference.py")
gen_api = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gen_api)

# a class header or a function entry; the name ends where its signature
# starts, and signatures are not compared (they render differently
# across Python versions)
_ENTRY = re.compile(r"^(?:### class |- \*\*)`([A-Za-z_][A-Za-z0-9_]*)")


def documented_names(markdown: str) -> dict:
    """``{package: [class and function names]}`` of one API reference."""
    sections: dict = {}
    names = None
    for line in markdown.splitlines():
        if line.startswith("## `"):
            names = sections.setdefault(line[4:line.index("`", 4)], [])
        elif names is not None:
            match = _ENTRY.match(line)
            if match:
                names.append(match.group(1))
    return sections


def test_all_packages_documented():
    text = "\n".join(gen_api.document_package(p) for p in gen_api.PACKAGES)
    for anchor in ("Tensor", "IMSR", "puzzlement", "run_table3",
                   "save_checkpoint", "MIND", "forgetting_analysis"):
        assert anchor in text, anchor


def test_api_md_documents_exactly_the_public_names():
    committed = documented_names((DOCS / "API.md").read_text())
    assert list(committed) == gen_api.PACKAGES
    for package in gen_api.PACKAGES:
        current = documented_names(gen_api.document_package(package))
        assert committed[package] == current[package], (
            f"docs/API.md is stale for {package}; "
            f"run python docs/generate_api_reference.py")


def test_document_package_handles_module_without_all():
    out = gen_api.document_package("repro.persistence")
    assert "save_checkpoint" in out
    assert "load_checkpoint" in out

"""JSON artifact export for experiment results.

Every driver result exposes ``rows()``/``format()``/``shape_checks()``;
this module serializes them to a JSON file, a machine-readable record
of a result next to its printed table.  ``EXPERIMENTS.md`` is not built
from these files: ``benchmarks/summarize.py`` parses the printed
shape-check output instead.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

PathLike = Union[str, Path]


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        v = float(value)
        return None if np.isnan(v) else v
    if isinstance(value, float) and np.isnan(value):
        return None
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def export_result(result, path: PathLike, experiment_id: str = "",
                  extra: Optional[dict] = None) -> dict:
    """Serialize a driver result's rows + shape checks to JSON.

    Works with any object exposing ``rows()`` and (optionally)
    ``shape_checks()``; returns the payload that was written.
    """
    payload = {"experiment": experiment_id}
    rows = getattr(result, "rows", None)
    if callable(rows):
        try:
            payload["rows"] = _jsonable(rows())
        except TypeError:
            pass  # some results' rows() require arguments; skip
    checks = getattr(result, "shape_checks", None)
    if callable(checks):
        check_rows = checks()
        payload["shape_checks"] = _jsonable(check_rows)
        payload["checks_passed"] = sum(
            1 for c in check_rows if c.get("holds") == "yes"
        )
        payload["checks_total"] = len(check_rows)
    if extra:
        payload.update(_jsonable(extra))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return payload


def load_artifact(path: PathLike) -> dict:
    """Read back an exported artifact."""
    return json.loads(Path(path).read_text())

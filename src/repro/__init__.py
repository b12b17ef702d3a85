"""IMSR reproduction: Incremental Learning for Multi-Interest Sequential
Recommendation (Wang & Shen, ICDE 2023), built on a from-scratch numpy
substrate.

Layered public API:

* :mod:`repro.autograd` — reverse-mode autodiff engine (replaces PyTorch);
* :mod:`repro.nn` — modules, layers, optimizers;
* :mod:`repro.data` — synthetic interest world + time-span protocol;
* :mod:`repro.models` — MIND, ComiRec-DR, ComiRec-SA base MSR models;
* :mod:`repro.incremental` — FR, FT, SML, ADER, and **IMSR** (EIR/NID/PIT);
* :mod:`repro.lifelong` — MIMN and LimaRec baselines;
* :mod:`repro.eval` — HR/NDCG, span protocol, significance tests;
* :mod:`repro.experiments` — drivers regenerating every table and figure;
* :mod:`repro.analysis` — static analysis enforcing seeded randomness
  (``repro lint``); imported on first access of ``repro.analysis``,
  since no training, evaluation or streaming run uses it;
* :mod:`repro.persistence` — crash-safe journaled checkpoints (atomic
  writes, SHA-256 manifests, resume);
* :mod:`repro.faults` — seeded, deterministic fault injection proving
  the crash-safety properties;
* :mod:`repro.obs` — structured tracing, metrics, and decision telemetry
  (hierarchical spans, JSONL traces, ``repro trace summarize``).

``import repro`` loads neither the linter nor scipy: scipy is imported
by :func:`repro.eval.paired_t_test`, the Table III significance test,
on its first call.
"""

import importlib

from . import autograd, backend, data, eval, experiments, incremental, lifelong, models, nn
from . import faults, obs, persistence

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "autograd",
    "backend",
    "nn",
    "data",
    "models",
    "incremental",
    "lifelong",
    "eval",
    "experiments",
    "persistence",
    "faults",
    "obs",
    "__version__",
]


def __getattr__(name: str):
    """Import :mod:`repro.analysis` on first attribute access."""
    if name == "analysis":
        return importlib.import_module(f"{__name__}.analysis")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

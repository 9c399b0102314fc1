"""Experiment pipeline regenerating every table and figure of the paper.

Layered as data → execution → presentation:

* :mod:`~repro.experiments.results` — typed results (``Measurement``,
  ``ExperimentResult``) with lossless JSON artifacts;
* :mod:`~repro.experiments.jobs` / :mod:`~repro.experiments.parallel` —
  independent simulation jobs executed inline or across a process pool;
* :mod:`~repro.experiments.cache` — persistent on-disk memoisation of
  simulation payloads keyed by spec/config fingerprints + code version;
* the per-experiment modules (``table1`` ... ``model_validation``) each
  provide exactly ``jobs``/``assemble``/``render``;
* :mod:`~repro.experiments.runner` — the CLI
  (``python -m repro.experiments.runner``).
"""

import importlib

__all__ = [
    "cache",
    "figure4",
    "figure5",
    "figure6",
    "jobs",
    "model_validation",
    "parallel",
    "results",
    "runner",
    "table1",
    "table2",
    "table3",
    "SimulationCache",
    "ExperimentResult",
    "Measurement",
    "load_result",
    "run_experiment",
    "run_experiment_results",
]

#: re-exported names and the submodule each comes from
_EXPORTS = {
    "SimulationCache": "cache",
    "ExperimentResult": "results",
    "Measurement": "results",
    "load_result": "results",
    "run_experiment": "runner",
    "run_experiment_results": "runner",
}


def __getattr__(name):
    # Submodules load on first use, so ``python -m repro.experiments.runner``
    # does not find the runner already imported by its own package.
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

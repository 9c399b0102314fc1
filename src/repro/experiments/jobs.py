"""Simulation jobs: the unit of parallelism and caching in the pipeline.

Each experiment decomposes its tables/figures into independent
:class:`SimulationJob` records — pure, picklable descriptions of one
simulation (worker function + JSON parameters).  The executor in
:mod:`repro.experiments.parallel` runs them inline or across a process
pool, memoising payloads through :mod:`repro.experiments.cache`; the
experiment's ``assemble`` step then folds the keyed payloads back into a
typed :class:`~repro.experiments.results.ExperimentResult` in a fixed
order, so the rendered report is byte-identical regardless of worker count
or cache state.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

from ..errors import ConfigurationError
from ..serialization import jsonify


@dataclass(frozen=True)
class SimulationJob:
    """One independent simulation of an experiment.

    Attributes
    ----------
    key:
        Deterministic unique identifier, e.g. ``"figure4:p100:ssam:9"``;
        payloads are collected under this key.
    func:
        Worker function as ``"module.path:function"``; resolved lazily so
        jobs pickle cheaply into worker processes.
    params:
        JSON-serialisable keyword arguments of the worker.
    cache_fields:
        Extra cache-key fields beyond ``func``/``params``: kernel id, spec
        and launch-config fingerprints, engine/mode.
    """

    key: str
    func: str
    params: Mapping[str, object] = field(default_factory=dict)
    cache_fields: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", jsonify(self.params))
        object.__setattr__(self, "cache_fields", jsonify(self.cache_fields))

    def cache_key(self) -> Dict[str, object]:
        """The stable identity this job's payload is memoised under."""
        return {"func": self.func, "params": dict(self.params),
                **dict(self.cache_fields)}


def resolve_worker(path: str) -> Callable[..., Mapping[str, object]]:
    """Import the worker function named by a ``"module:function"`` path."""
    module_name, _, func_name = path.partition(":")
    if not module_name or not func_name:
        raise ConfigurationError(f"malformed worker path {path!r}")
    module = (sys.modules.get(module_name)
              or importlib.import_module(module_name))
    try:
        return getattr(module, func_name)
    except AttributeError as exc:
        raise ConfigurationError(
            f"worker {func_name!r} not found in {module_name!r}") from exc


def execute_job(job: SimulationJob) -> Tuple[str, Dict[str, object]]:
    """Run one job and return ``(key, payload)``.

    This is the single execution contract: both the inline path and the
    process-pool path of :func:`repro.experiments.parallel.execute_jobs`
    call it with a :class:`SimulationJob` (the dataclass holds only JSON
    types, so it pickles cheaply into worker processes).  The payload is
    normalised to JSON types so a payload served from the on-disk cache is
    indistinguishable from a freshly computed one.
    """
    if not isinstance(job, SimulationJob):
        raise ConfigurationError(
            f"execute_job expects a SimulationJob, got {type(job).__name__}")
    payload = resolve_worker(job.func)(**dict(job.params))
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"job {job.key!r} worker returned {type(payload).__name__}, "
            f"expected a mapping")
    return job.key, jsonify(payload)


def dedupe_jobs(jobs: List[SimulationJob]) -> List[SimulationJob]:
    """Drop duplicate job keys, keeping first occurrences (stable order)."""
    seen: Dict[str, SimulationJob] = {}
    unique: List[SimulationJob] = []
    for job in jobs:
        previous = seen.get(job.key)
        if previous is None:
            seen[job.key] = job
            unique.append(job)
        elif previous.func != job.func or dict(previous.params) != dict(job.params):
            raise ConfigurationError(
                f"conflicting definitions for job key {job.key!r}")
    return unique

"""Generic sweep engine over the scenario registry.

A sweep is a declarative Cartesian matrix — scenarios x architectures x
precisions x engines x problem sizes — expanded through
:func:`repro.scenarios.registry.expand_matrix` into independent
:class:`~repro.experiments.jobs.SimulationJob` cells.  The cells run through
the same executor as the paper experiments (sharded across workers, memoised
in the persistent simulation cache) and fold into a typed
:class:`~repro.experiments.results.ExperimentResult`, so sweeps get JSON
artifacts, ``--jobs`` parallelism and warm-cache reruns for free::

    ssam-repro --experiment sweep --matrix tier1 --jobs 4 --output-dir results
    ssam-repro --experiment sweep --matrix my_matrix.json

Named matrices live in :data:`MATRICES`; arbitrary matrices load from JSON
files with the same axes.

A process simulates each built-in cell once per memory geometry.  What a
cell's run produces (counters, launch configuration, output digest, oracle
error, replay fallbacks) depends on the part only through
:attr:`~repro.gpu.architecture.GPUArchitecture.memory_geometry`: the
tracer refuses a kernel body that reads the architecture, and
``tests/test_sweep_sharing.py`` checks every built-in runner on every part
against a fresh run.  So :func:`_measure_case` keeps a bounded in-process
map keyed on the cell, its resolved parameters, its plan (minus the part's
name) and the geometry; every shipped part shares one geometry, and the
other parts of a group reuse the first part's run.  A hit recomputes what
is the part's own: it checks the part's per-block shared capacity against
the allocations the run made (raising the engines'
:class:`~repro.errors.ResourceExhaustedError`), models the time on the part,
and writes the part's case and name, so every payload is byte-identical to
a fresh run's.  Closed-form engines and scenarios registered at run time
always run fresh.
"""

from __future__ import annotations

import copy
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..experiments.jobs import SimulationJob
from ..experiments.results import ExperimentResult, Measurement
from ..gpu.architecture import get_architecture
from ..gpu.kernel import LaunchResult
from ..gpu.shared_memory import check_shared_capacity, record_shared_checks
from ..serialization import (
    array_digest,
    canonical_json,
    jsonify,
    load_json,
    stable_digest,
)
from .registry import (
    LAUNCH_DEFAULTS_SOURCE_KEY,
    NON_EXECUTING_ENGINES,
    ScenarioCase,
    expand_matrix,
    get_scenario,
    resolving,
)

# make sure the built-in scenarios are registered even when this module is
# imported directly (worker processes import it by its dotted path)
from . import builtin as _builtin  # noqa: F401  (import for side effect)

#: named sweep matrices; "tier1" is the envelope the differential test
#: matrix derives from, "smoke" is the CI quick path
MATRICES: Dict[str, Dict[str, object]] = {
    "tier1": {
        "scenarios": "ssam",
        "architectures": ["p100", "v100", "a100", "h100"],
        "precisions": ["float32", "float64"],
        "engines": ["batched", "replay"],
        "sizes": ["tiny"],
    },
    "smoke": {
        "scenarios": ["conv2d", "scan"],
        "architectures": ["p100"],
        "precisions": ["float32"],
        "engines": ["batched", "replay"],
        "sizes": ["tiny"],
    },
    "default": {
        "scenarios": "all",
        "architectures": ["p100", "v100", "a100", "h100"],
        "precisions": ["float32", "float64"],
        "engines": ["batched", "replay", "analytic", "model"],
        "sizes": ["tiny", "small"],
    },
    # the SSAM kernels at the evaluation-scale domains of Section 6,
    # closed-form only: the instruction/traffic profile where one exists and
    # the Section 5 performance model everywhere — seconds, not hours
    "paper": {
        "scenarios": "ssam",
        "architectures": ["p100", "v100", "a100", "h100"],
        "precisions": ["float32", "float64"],
        "engines": ["analytic", "model"],
        "sizes": ["paper"],
    },
}


def load_matrix(spec: "str | Mapping[str, object] | None") -> Dict[str, object]:
    """Resolve a matrix argument: preset name, JSON file path, or mapping."""
    if spec is None:
        spec = "default"
    if isinstance(spec, Mapping):
        matrix = dict(copy.deepcopy(dict(spec)))
        matrix.setdefault("name", "custom")
        return matrix
    if spec in MATRICES:
        matrix = copy.deepcopy(MATRICES[spec])
        matrix["name"] = spec
        return matrix
    if os.path.isfile(spec):
        matrix = load_json(spec)
        if not isinstance(matrix, Mapping):
            raise ConfigurationError(
                f"matrix file {spec!r} must contain a JSON object")
        matrix = dict(matrix)
        matrix.setdefault("name", os.path.splitext(os.path.basename(spec))[0])
        return matrix
    raise ConfigurationError(
        f"unknown sweep matrix {spec!r}; presets: {sorted(MATRICES)}, "
        f"or pass a path to an existing JSON matrix file")


def case_cache_fields(case: ScenarioCase) -> Dict[str, object]:
    """Cache-key fields of one cell: spec + plan fingerprints, envelope axes.

    Public contract: the cross-engine validation experiment and the launch
    tuner build jobs with these exact fields (and :func:`case_job_key`) so
    their simulation cells share cache entries — and dedupe — with sweep
    cells.
    """
    scenario = get_scenario(case.scenario)
    fields: Dict[str, object] = {
        "kernel": case.scenario,
        "spec": scenario.spec_fingerprint(case.size),
        "architecture": case.architecture,
        "precision": case.precision,
        "engine": case.engine,
        "size": case.size,
    }
    if case.plan_kwargs:
        fields["plan_kwargs"] = case.plan_overrides
    plan = scenario.build_plan(case.size, case.architecture, case.precision,
                               plan_kwargs=case.plan_kwargs)
    if plan is not None:
        fields["plan"] = plan.fingerprint()
    return fields


#: most (cell, memory geometry) simulations kept for the parts sharing them
SHARED_RUNS_MAX = 128


@dataclass(frozen=True)
class _SharedRun:
    """One cell's simulation, as every part of its memory geometry sees it."""

    #: the payload of the part that ran it (JSON types only, so
    #: :func:`jsonify` copies it)
    payload: Dict[str, object]
    launch: LaunchResult
    #: the shared-memory allocation sequences the run checked, in order
    shared_checks: Tuple[Tuple[int, ...], ...]


_SHARED_RUNS: "OrderedDict[str, _SharedRun]" = OrderedDict()
_SHARED_RUNS_LOCK = threading.Lock()


def _clear_shared_runs() -> None:
    """Forget every shared simulation (tests compare against fresh runs)."""
    with _SHARED_RUNS_LOCK:
        _SHARED_RUNS.clear()


def _shared_run_key(entry, case: ScenarioCase) -> Optional[str]:
    """Identity of a cell's simulation across the parts of one memory
    geometry, or ``None`` when the cell runs fresh (a closed-form engine,
    a scenario registered at run time, or a cell outside the envelope,
    which fails as it always did)."""
    if (case.engine in NON_EXECUTING_ENGINES
            or _builtin.BUILTIN.get(case.scenario) is not entry
            or not entry.supports(case.architecture, case.precision,
                                  case.engine, case.size)):
        return None
    cell = entry.resolve(case.size, case.architecture, case.precision,
                         case.plan_kwargs)
    return canonical_json([
        case.scenario, case.size, case.precision, case.engine,
        case.plan_kwargs, cell.params,
        None if cell.plan is None else {
            k: v for k, v in cell.plan.to_dict().items()
            if k != "architecture"},
        get_architecture(case.architecture).memory_geometry])


def _simulate_case(entry, case: ScenarioCase,
                   ) -> Tuple[Dict[str, object], LaunchResult]:
    """Run one cell; return its payload and launch record."""
    fallbacks_before = 0
    if case.engine == "replay":
        from ..trace.replay import fallback_log

        fallbacks_before = len(fallback_log())
    result = entry.run_case(case)
    payload: Dict[str, object] = {
        "case": case.to_dict(),
        "milliseconds": result.milliseconds,
        "counters": result.launch.counters.as_dict(),
        "config": result.launch.config.to_dict(),
        "kernel_name": result.launch.kernel_name,
        "parameters": dict(result.parameters),
        "output_digest": (None if result.output is None
                          else array_digest(result.output)),
    }
    if case.engine == "replay":
        # untraceable kernels silently run on the batched engine; surface
        # the fallback (and its reason) in the cell's sweep row
        payload["replay_fallback"] = fallback_log()[fallbacks_before:]
    if result.output is not None and entry.oracle is not None:
        oracle = entry.oracle_output(case)
        error = np.max(np.abs(np.asarray(result.output, dtype=np.float64)
                              - np.asarray(oracle, dtype=np.float64)))
        payload["oracle_max_abs_error"] = float(error)
    return payload, result.launch


def _share(run: _SharedRun, case: ScenarioCase) -> Dict[str, object]:
    """The payload of ``case`` from a run on another part of its geometry:
    the part's shared capacity is checked against what the run allocated,
    and its modelled time, case and name are its own."""
    arch = get_architecture(case.architecture)
    for allocations in run.shared_checks:
        check_shared_capacity(allocations, arch.shared_memory_per_block)
    launch = replace(run.launch, architecture=arch, _timing=None,
                     _occupancy=None)
    payload = jsonify(run.payload)
    payload["case"] = case.to_dict()
    payload["milliseconds"] = launch.milliseconds
    # the kernels echo the part as ``arch.name``
    if "architecture" in payload["parameters"]:
        payload["parameters"]["architecture"] = arch.name
    return payload


def _measure_case(scenario: str, architecture: str, precision: str,
                  engine: str, size: str,
                  plan_kwargs: Optional[Mapping[str, object]] = None,
                  ) -> Dict[str, object]:
    """Worker: simulate one expanded scenario cell and describe the outcome.

    The payload carries the modelled time, the full counter set, the launch
    configuration, a content digest of the functional output and — when the
    scenario has a CPU oracle — the max absolute error against it, so sweep
    artifacts double as validation records.  A built-in cell on an
    executing engine is simulated once per memory geometry: the other parts
    of the geometry reuse that run and recompute only what is their own.
    The cell is resolved once: its sharing key and its run read the same
    spec, parameters and plan.
    """
    case = ScenarioCase(scenario, architecture, precision, engine, size,
                        plan_kwargs or {})
    entry = get_scenario(scenario)
    with resolving():
        key = _shared_run_key(entry, case)
        if key is None:
            return _simulate_case(entry, case)[0]
        with _SHARED_RUNS_LOCK:
            run = _SHARED_RUNS.get(key)
            if run is not None:
                _SHARED_RUNS.move_to_end(key)
        if run is not None:
            return _share(run, case)
        with record_shared_checks() as checks:
            payload, launch = _simulate_case(entry, case)
        with _SHARED_RUNS_LOCK:
            _SHARED_RUNS[key] = _SharedRun(jsonify(payload), launch,
                                           tuple(checks))
            _SHARED_RUNS.move_to_end(key)
            while len(_SHARED_RUNS) > SHARED_RUNS_MAX:
                _SHARED_RUNS.popitem(last=False)
        return payload


# --------------------------------------------------------------- pipeline

def case_job_key(case: ScenarioCase) -> str:
    """Executor job key of one sweep cell (shared with model validation)."""
    return f"sweep:{case.case_id}"


def jobs(matrix: "str | Mapping[str, object] | None" = None) -> List[SimulationJob]:
    """One independent job per expanded matrix cell."""
    resolved = load_matrix(matrix)
    return [
        SimulationJob(
            key=case_job_key(case),
            func="repro.scenarios.sweep:_measure_case",
            params=case.to_dict(),
            cache_fields=case_cache_fields(case),
        )
        for case in expand_matrix(resolved)
    ]


def _case_defaults_source(case: ScenarioCase) -> Optional[str]:
    """Current launch-default provenance of one cell, resolved at read time.

    Computed when results are assembled — never persisted in the cached
    payload — because provenance depends on ambient state (the active
    tuning database), not on the cell's cache identity: a tuned row whose
    values happen to equal the paper constants yields a byte-identical
    plan, so a payload cached without a database must not replay a stale
    ``"paper"`` label once one is active (or vice versa).
    """
    entry = get_scenario(case.scenario)
    if not entry.tunables:
        return None
    resolved = entry.resolve_tunable_defaults(
        case.plan_overrides, case.architecture, case.precision)
    return resolved[LAUNCH_DEFAULTS_SOURCE_KEY]


def assemble(payloads: Mapping[str, Mapping[str, object]],
             matrix: "str | Mapping[str, object] | None" = None,
             quick: bool = False) -> ExperimentResult:
    """Fold cell payloads into the typed sweep result (expansion order)."""
    resolved = load_matrix(matrix)
    cases = expand_matrix(resolved)
    measurements: List[Measurement] = []
    for case in cases:
        payload = payloads[case_job_key(case)]
        ms = payload.get("milliseconds")
        measurements.append(Measurement(
            kernel=case.scenario,
            architecture=case.architecture,
            workload=f"{case.size}/{case.engine}/{case.precision}",
            config=payload.get("config") or {},
            counters=payload.get("counters"),
            milliseconds=ms,
            value=ms,
            unit="ms",
            extra={
                "case_id": case.case_id,
                "engine": case.engine,
                "precision": case.precision,
                "size": case.size,
                "kernel_name": payload.get("kernel_name"),
                "scheme": (payload.get("parameters") or {}).get("scheme"),
                "output_digest": payload.get("output_digest"),
                "oracle_max_abs_error": payload.get("oracle_max_abs_error"),
                "launch_defaults_source": _case_defaults_source(case),
                "replay_fallback": payload.get("replay_fallback"),
            },
        ))
    scenarios = []
    for case in cases:
        if case.scenario not in scenarios:
            scenarios.append(case.scenario)
    return ExperimentResult(
        experiment="sweep",
        title=f"Scenario sweep — matrix {resolved.get('name', 'custom')!r}",
        quick=quick,
        measurements=measurements,
        metadata={
            "matrix": resolved,
            "cases": [case.case_id for case in cases],
            "scenarios": scenarios,
            "sweep_digest": stable_digest([case.case_id for case in cases]),
        },
    )


def render(result: ExperimentResult) -> str:
    """Fixed-width sweep report (pure view over the typed result)."""
    lines = [result.title,
             f"{len(result.measurements)} cases over "
             f"{len(result.metadata['scenarios'])} scenarios"]
    header = (f"{'case':<44} {'time_ms':>12} {'fma':>14} {'dram_MB':>10} "
              f"{'output':<16} {'oracle_err':>12}")
    lines.append(header)
    lines.append("-" * len(header))
    for m in result.measurements:
        counters = m.counters or {}
        dram_mb = (counters.get("dram_read_bytes", 0.0)
                   + counters.get("dram_write_bytes", 0.0)) / 1e6
        digest = m.extra.get("output_digest") or "-"
        error = m.extra.get("oracle_max_abs_error")
        error_text = "-" if error is None else f"{error:.3e}"
        ms_text = "-" if m.milliseconds is None else f"{m.milliseconds:.6f}"
        lines.append(f"{m.extra['case_id']:<44} {ms_text:>12} "
                     f"{counters.get('fma', 0):>14.0f} {dram_mb:>10.3f} "
                     f"{digest[:16]:<16} {error_text:>12}")
    fallbacks = [(m.extra["case_id"], event)
                 for m in result.measurements
                 for event in (m.extra.get("replay_fallback") or [])]
    for case_id, event in fallbacks:
        lines.append(f"replay fallback: {case_id}: {event['kernel']}: "
                     f"{event['reason']}")
    lines.append(f"sweep digest: {result.metadata['sweep_digest']}")
    return "\n".join(lines)


def collect_payloads(matrix: "str | Mapping[str, object] | None",
                     cache) -> "tuple[Dict[str, Mapping[str, object]], List[str]]":
    """Store-served payloads of a matrix, without executing anything.

    Returns ``(payloads, missing_job_keys)`` — the sweep service assembles
    results and streams cells from whatever the shared store already holds,
    so lookups go through ``cache.peek`` (no hit/miss accounting: nothing
    is being executed here, and claim-waiting workers poll the same way).
    """
    payloads: Dict[str, Mapping[str, object]] = {}
    missing: List[str] = []
    for job in jobs(matrix):
        payload = cache.peek(job.cache_key())
        if payload is None:
            missing.append(job.key)
        else:
            payloads[job.key] = payload
    return payloads, missing


def run_sweep(matrix: "str | Mapping[str, object] | None" = None,
              quick: bool = False, workers: int = 1,
              cache=None) -> ExperimentResult:
    """Run one sweep end to end through the job pipeline."""
    from ..experiments.parallel import execute_jobs

    resolved = load_matrix(matrix)
    # the job keys and the in-process cells share one resolution per cell
    with resolving():
        payloads = execute_jobs(jobs(resolved), workers=workers, cache=cache)
        return assemble(payloads, resolved, quick=quick)


def report(matrix: "str | Mapping[str, object] | None" = None,
           quick: bool = False, workers: int = 1, cache=None) -> str:
    """Formatted sweep report."""
    return render(run_sweep(matrix, quick=quick, workers=workers, cache=cache))

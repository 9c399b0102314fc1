"""Model-guided two-stage launch-configuration search.

Stage 1 (**explore**) searches the valid design-space points of every
tuning cell (kernel x architecture x precision) closed-form on the Section 5
model engine at the paper-scale problem size.  *How* the space is walked is
a pluggable :class:`~repro.tuning.search.SearchStrategy` — exhaustive
enumeration (the default, and the correctness oracle) or the budgeted
guided search, which reaches the same best point on a fraction of the
evaluations.  Stage 2 (**confirm**) re-runs the explore stage's
top-k candidates (plus the paper default) on the batched simulator at a
functional problem size and reports whether the counted simulation agrees
with the model's ranking.  The winning configuration of every cell is
persisted to the shared result store's ``tuned_configs`` table, where the
planners' default-resolution chain
(:func:`repro.core.launch_defaults.resolve_launch_defaults`) picks it up.

Every evaluation in both stages is an ordinary scenario-sweep cell — built
with :func:`repro.scenarios.sweep.case_job_key` /
:func:`~repro.scenarios.sweep.case_cache_fields` and executed by
:func:`repro.experiments.parallel.execute_jobs` — so tuning runs shard
across ``--jobs`` workers, share the persistent simulation cache with plain
sweeps, and rerun warm with 100% cache hits::

    ssam-repro --experiment tune --jobs 4 --output-dir results
    ssam-repro --experiment tune --quick          # reduced space, golden-pinned

The rendered report states, per cell, the best-found configuration against
the paper's default (P=4, B=128); because the default is always one of the
evaluated points, the best-found predicted time can never exceed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.launch_defaults import clear_lookup_cache
from ..errors import ConfigurationError
from ..experiments.jobs import SimulationJob
from ..experiments.results import ExperimentResult, Measurement
from ..serialization import stable_digest
from ..scenarios.registry import (
    Scenario,
    ScenarioCase,
    all_scenarios,
    get_scenario,
    resolving,
)
from ..scenarios.sweep import case_cache_fields, case_job_key
from .search import PointKey, SearchStrategy, get_strategy, point_key
from .space import (
    FULL_SPACE,
    QUICK_SPACE,
    DesignSpace,
    paper_default_for,
    point_is_valid,
    valid_points,
)

#: the architectures and precisions the design-space study covers: the two
#: paper parts plus the post-paper Ampere/Hopper scenario axis
TUNE_ARCHITECTURES: Tuple[str, ...] = ("p100", "v100", "a100", "h100")
TUNE_PRECISIONS: Tuple[str, ...] = ("float32", "float64")

#: problem sizes: explore closed-form at paper scale, confirm functionally
MODEL_SIZE = "paper"
CONFIRM_SIZE = "small"
QUICK_CONFIRM_SIZE = "tiny"

#: how many model-stage candidates the simulator re-checks per cell
TOP_K = 3
QUICK_TOP_K = 2


@dataclass(frozen=True)
class TuneCell:
    """One tuning cell: a kernel on one architecture at one precision."""

    scenario: str
    architecture: str
    precision: str

    @property
    def cell_id(self) -> str:
        return f"{self.scenario}:{self.architecture}:{self.precision}"


def config_label(plan_kwargs: Mapping[str, object]) -> str:
    """Compact human label of an override set, e.g. ``"P4,B128"``.

    The block shape appends only when it is non-trivial (``"P4,B128,R2"``);
    single-row points keep their historical two-part label.
    """
    parts = []
    kwargs = dict(plan_kwargs)
    if "outputs_per_thread" in kwargs:
        parts.append(f"P{kwargs['outputs_per_thread']}")
    if "block_threads" in kwargs:
        parts.append(f"B{kwargs['block_threads']}")
    if int(kwargs.get("block_rows", 1)) != 1:
        parts.append(f"R{kwargs['block_rows']}")
    return ",".join(parts) if parts else "default"


def tune_cells(scenarios: Optional[Sequence[str]] = None,
               architectures: Optional[Sequence[str]] = None,
               precisions: Optional[Sequence[str]] = None,
               model_size: str = MODEL_SIZE) -> List[TuneCell]:
    """The tuning cells: every tunable SSAM kernel x architecture x precision.

    Cells whose scenario cannot evaluate ``engine="model"`` at the explore
    size are skipped (nothing to search), as are scenarios with no declared
    tunables (nothing to tune).
    """
    if scenarios is None:
        chosen: List[Scenario] = all_scenarios(role="ssam")
    else:
        chosen = [get_scenario(name) for name in scenarios]
    archs = TUNE_ARCHITECTURES if architectures is None else tuple(architectures)
    precs = TUNE_PRECISIONS if precisions is None else tuple(precisions)
    cells: List[TuneCell] = []
    for scenario in chosen:
        if not scenario.tunables:
            continue
        for arch in archs:
            for prec in precs:
                if scenario.supports(arch, prec, "model", model_size):
                    cells.append(TuneCell(scenario.name, arch, prec))
    if not cells:
        raise ConfigurationError("the tuning selection expands to zero cells")
    return cells


def _case_job(cell: TuneCell, engine: str, size: str,
              point: Mapping[str, int]) -> SimulationJob:
    """The sweep-pipeline job of one design point (shared keys and cache).

    Each point's case and job are built once; every later reader finds the
    payload through the job's key.
    """
    case = ScenarioCase(cell.scenario, cell.architecture, cell.precision,
                        engine, size, point)
    return SimulationJob(
        key=case_job_key(case),
        func="repro.scenarios.sweep:_measure_case",
        params=case.to_dict(),
        cache_fields=case_cache_fields(case),
    )


def explore_points(cells: Sequence[TuneCell], space: DesignSpace,
                   model_size: str = MODEL_SIZE) -> Dict[str, List[Dict[str, int]]]:
    """The pre-filtered design-space points of every cell, enumerated once.

    Validity (plan construction + occupancy per point) is the expensive
    part of the search bookkeeping, so every downstream consumer — job
    construction, ranking, confirmation, assembly — works from this single
    enumeration.
    """
    return {cell.cell_id: valid_points(get_scenario(cell.scenario), model_size,
                                       cell.architecture, cell.precision, space)
            for cell in cells}


def explore_stage(cells: Sequence[TuneCell],
                  points_by_cell: Mapping[str, Sequence[Mapping[str, int]]],
                  strategy: SearchStrategy, executor, workers: int, cache,
                  model_size: str = MODEL_SIZE):
    """Stage 1: walk every cell's candidate space with the search strategy.

    Each round gathers the proposals of *all* cells into one executor batch
    (cells in order, each cell's points in proposal order), so an
    exhaustive strategy — whose single round proposes every point — builds
    the byte-identical job list the pre-strategy tuner did, and a guided
    strategy still shards across ``--jobs`` workers round by round.
    Returns ``(sessions, payloads)``: the finished per-cell sessions and,
    per cell, the model payload of every evaluated point by its
    :func:`~repro.tuning.search.point_key`.
    """
    sessions = {}
    for cell in cells:
        scenario = get_scenario(cell.scenario)
        seed = paper_default_for(scenario, model_size, cell.architecture,
                                 cell.precision)
        sessions[cell.cell_id] = strategy.session(
            points_by_cell[cell.cell_id], seed=seed)
    payloads: Dict[str, Dict[PointKey, Mapping[str, object]]] = {
        cell.cell_id: {} for cell in cells}
    while True:
        proposals = []
        round_jobs: List[SimulationJob] = []
        for cell in cells:
            keyed = []
            for point in sessions[cell.cell_id].propose():
                job = _case_job(cell, "model", model_size, point)
                keyed.append((point_key(point), job.key))
                round_jobs.append(job)
            proposals.append((cell, keyed))
        if not round_jobs:
            break
        round_payloads = executor(round_jobs, workers=workers, cache=cache)
        for cell, keyed in proposals:
            if not keyed:
                continue
            evaluated = payloads[cell.cell_id]
            for key, job_key in keyed:
                evaluated[key] = round_payloads[job_key]
            sessions[cell.cell_id].observe(
                {key: float(evaluated[key]["milliseconds"])
                 for key, _ in keyed})
    return sessions, payloads


def _ranked_points(points: Sequence[Mapping[str, int]],
                   payloads: Mapping[PointKey, Mapping[str, object]],
                   ) -> List[Dict[str, object]]:
    """Stage-1 outcome of one cell: points sorted by predicted time.

    ``payloads`` holds the cell's model payloads by point key.  Ties break
    on the (sorted) parameter values, so the ranking — and with it the
    stage-2 job list — is identical for any worker count and cache state.
    """
    rows: List[Dict[str, object]] = []
    for point in points:
        payload = payloads[point_key(point)]
        rows.append({
            "plan_kwargs": dict(point),
            "label": config_label(point),
            "model_ms": float(payload["milliseconds"]),
            "config": payload.get("config") or {},
        })
    rows.sort(key=lambda row: (row["model_ms"],
                               tuple(sorted(row["plan_kwargs"].items()))))
    return rows


def _confirm_points(cell: TuneCell, scenario: Scenario,
                    ranked: Sequence[Mapping[str, object]], top_k: int,
                    confirm_size: str) -> List[Dict[str, int]]:
    """The top-k model candidates plus the paper default, re-validated at
    the confirmation size (filter extents can differ between sizes)."""
    if not scenario.supports(cell.architecture, cell.precision,
                             "batched", confirm_size):
        return []
    candidates = [dict(row["plan_kwargs"]) for row in ranked[:max(1, top_k)]]
    default = paper_default_for(scenario, confirm_size, cell.architecture,
                                cell.precision)
    if default not in candidates:
        candidates.append(default)
    return [point for point in candidates
            if point_is_valid(scenario, confirm_size, cell.architecture,
                              cell.precision, point)]


def confirm_jobs(cells: Sequence[TuneCell],
                 candidates_by_cell: Mapping[str, Sequence[Mapping[str, int]]],
                 confirm_size: str = CONFIRM_SIZE,
                 ) -> Dict[str, List[Tuple[Mapping[str, int], SimulationJob]]]:
    """Stage 2: a batched-simulator job for each cell's confirm candidates.

    Returns each cell's ``(candidate, job)`` pairs in candidate order;
    cells with no candidates (the scenario cannot run the batched engine at
    the confirmation size) have none, and the report then shows the model
    stage only for them.
    """
    return {cell.cell_id: [(point, _case_job(cell, "batched",
                                             confirm_size, point))
                           for point in candidates_by_cell.get(cell.cell_id, ())]
            for cell in cells}


# ------------------------------------------------------------------ pipeline

def run_tuning(quick: bool = False, workers: int = 1, cache=None,
               scenarios: Optional[Sequence[str]] = None,
               architectures: Optional[Sequence[str]] = None,
               precisions: Optional[Sequence[str]] = None,
               space: Optional[DesignSpace] = None,
               top_k: Optional[int] = None,
               model_size: str = MODEL_SIZE,
               confirm_size: Optional[str] = None,
               confirm: bool = True,
               search: "str | SearchStrategy" = "exhaustive",
               executor=None) -> ExperimentResult:
    """Run the two-stage search end to end through the job pipeline.

    ``search`` selects the explore-stage strategy: ``"exhaustive"`` (the
    default and the correctness oracle) evaluates every valid point,
    ``"guided"`` runs the budgeted coordinate descent of
    :class:`repro.tuning.search.GuidedSearch`.  ``confirm=False`` stops
    after the model stage (the CI smoke path): the report then shows the
    closed-form ranking only.  ``executor`` substitutes the job
    executor — same signature as
    :func:`repro.experiments.parallel.execute_jobs` — which is how the
    sweep service routes tuning stages through its priority-ordered worker
    pool instead of a private process pool.  When a persistent cache backs
    the run, every cell's winning configuration is upserted into the
    store's ``tuned_configs`` table, where the planners' default-resolution
    chain finds it.
    """
    from ..experiments.parallel import execute_jobs

    if executor is None:
        executor = execute_jobs

    strategy = get_strategy(search)
    resolved_space = space if space is not None else (QUICK_SPACE if quick
                                                      else FULL_SPACE)
    resolved_top_k = top_k if top_k is not None else (QUICK_TOP_K if quick
                                                      else TOP_K)
    resolved_confirm = confirm_size if confirm_size is not None else (
        QUICK_CONFIRM_SIZE if quick else CONFIRM_SIZE)
    cells = tune_cells(scenarios, architectures, precisions, model_size)
    # every consumer of a design point (validity, job key, model) shares
    # one resolution of it; the tuned rows are written after the block
    with resolving():
        points_by_cell = explore_points(cells, resolved_space, model_size)
        sessions, model_payloads = explore_stage(
            cells, points_by_cell, strategy, executor, workers, cache,
            model_size)
        rankings = {cell.cell_id: _ranked_points(
                        sessions[cell.cell_id].evaluated_points(),
                        model_payloads[cell.cell_id])
                    for cell in cells}
        evaluations = {cell.cell_id: {
                           "evaluated": sessions[cell.cell_id].evaluations,
                           "space": len(points_by_cell[cell.cell_id])}
                       for cell in cells}
        candidates_by_cell: Dict[str, List[Tuple[Mapping[str, int], str]]] = {}
        confirm_payloads: Dict[str, Mapping[str, object]] = {}
        if confirm:
            jobs_by_cell = confirm_jobs(
                cells,
                {cell.cell_id: _confirm_points(
                    cell, get_scenario(cell.scenario), rankings[cell.cell_id],
                    resolved_top_k, resolved_confirm)
                 for cell in cells},
                resolved_confirm)
            candidates_by_cell = {
                cell_id: [(point, job.key) for point, job in pairs]
                for cell_id, pairs in jobs_by_cell.items()}
            confirm_payloads = executor(
                [job for pairs in jobs_by_cell.values() for _, job in pairs],
                workers=workers, cache=cache)
        result = assemble(cells, resolved_space, rankings, candidates_by_cell,
                          confirm_payloads, quick=quick, top_k=resolved_top_k,
                          model_size=model_size,
                          confirm_size=resolved_confirm if confirm else None,
                          search=strategy.name, evaluations=evaluations)
    if cache is not None:
        store_tuned_configs(result, cache.result_store())
    return result


def store_tuned_configs(result: ExperimentResult, store) -> int:
    """Persist every cell's winning configuration into ``tuned_configs``.

    Rows are keyed by (scenario, architecture, precision, size-class,
    code-version, design-space): the explored space is part of the key, so
    a ``--quick`` (reduced-space) run writes its own rows and can never
    clobber a full-space recommendation — lookups serve the best row of a
    cell.  Re-running the tuner over the same space refreshes its rows
    (last writer wins — unlike simulation payloads, a tuned default is a
    recommendation, not a pure function being memoised).  The
    launch-defaults lookup cache is cleared afterwards so planners in this
    process see the new rows.
    """
    meta = result.metadata
    written = 0
    for m in result.measurements:
        extra = m.extra
        best = extra.get("best_plan_kwargs")
        if best is None:
            continue
        scenario, architecture, precision = extra["cell_id"].split(":")
        store.put_tuned_config(
            scenario=scenario, architecture=architecture,
            precision=precision, size_class=meta["model_size"],
            plan_kwargs=best, model_ms=extra["best_model_ms"],
            default_model_ms=extra["default_model_ms"],
            speedup=extra["model_speedup"],
            search=meta.get("search", "exhaustive"),
            confirmed=extra.get("confirm_agrees"),
            tune_digest=meta["tune_digest"],
            space=meta["space"])
        written += 1
    clear_lookup_cache()
    return written


def assemble(cells: Sequence[TuneCell], space: DesignSpace,
             rankings: Mapping[str, Sequence[Mapping[str, object]]],
             candidates_by_cell: Mapping[
                 str, Sequence[Tuple[Mapping[str, int], str]]],
             confirm_payloads: Mapping[str, Mapping[str, object]],
             quick: bool = False, top_k: int = TOP_K,
             model_size: str = MODEL_SIZE,
             confirm_size: "str | None" = CONFIRM_SIZE,
             search: str = "exhaustive",
             evaluations: Optional[Mapping[str, Mapping[str, int]]] = None,
             ) -> ExperimentResult:
    """Fold both stages into the typed tuning result (cell order).

    ``candidates_by_cell`` holds each cell's confirm candidates as
    ``(point, job key)`` pairs; ``confirm_payloads`` is read by those keys.
    """
    measurements: List[Measurement] = []
    cell_records: List[Dict[str, object]] = []
    evaluations = dict(evaluations or {})
    for cell in cells:
        scenario = get_scenario(cell.scenario)
        ranked = rankings[cell.cell_id]
        default_kwargs = paper_default_for(scenario, model_size,
                                           cell.architecture, cell.precision)
        # the default is normally always evaluated (valid_points appends
        # it); a scenario whose paper default is itself invalid at the
        # explore size reports the best-found configuration without a
        # baseline rather than failing the whole tune run
        default_row = next((row for row in ranked
                            if row["plan_kwargs"] == default_kwargs), None)
        best_row = ranked[0]
        if default_row is None:
            speedup = None
        else:
            speedup = (default_row["model_ms"] / best_row["model_ms"]
                       if best_row["model_ms"] > 0 else float("inf"))

        confirmed: List[Dict[str, object]] = []
        confirm_candidates = ([] if confirm_size is None else
                              candidates_by_cell.get(cell.cell_id, ()))
        for point, job_key in confirm_candidates:
            payload = confirm_payloads.get(job_key)
            if payload is None:
                continue
            confirmed.append({
                "plan_kwargs": dict(point),
                "label": config_label(point),
                "simulated_ms": float(payload["milliseconds"]),
                "oracle_max_abs_error": payload.get("oracle_max_abs_error"),
            })
        confirmed.sort(key=lambda row: (row["simulated_ms"],
                                        tuple(sorted(row["plan_kwargs"].items()))))
        confirm_best = confirmed[0] if confirmed else None
        agree = (confirm_best is not None
                 and confirm_best["plan_kwargs"] == best_row["plan_kwargs"])

        counts = evaluations.get(cell.cell_id, {})
        extra = {
            "cell_id": cell.cell_id,
            "precision": cell.precision,
            "points": len(ranked),
            "space_points": counts.get("space", len(ranked)),
            "evaluated": counts.get("evaluated", len(ranked)),
            "default": (config_label(default_kwargs) if default_row is None
                        else default_row["label"]),
            "default_plan_kwargs": dict(default_kwargs),
            "default_model_ms": (None if default_row is None
                                 else default_row["model_ms"]),
            "best": best_row["label"],
            "best_plan_kwargs": dict(best_row["plan_kwargs"]),
            "best_model_ms": best_row["model_ms"],
            "model_speedup": speedup,
            "confirm_best": None if confirm_best is None else confirm_best["label"],
            "confirm_agrees": None if confirm_best is None else agree,
        }
        measurements.append(Measurement(
            kernel=cell.scenario,
            architecture=cell.architecture,
            workload=cell.precision,
            config=best_row["config"],
            milliseconds=best_row["model_ms"],
            value=speedup,
            unit="x",
            extra=extra,
        ))
        cell_records.append({
            "cell": cell.cell_id,
            "tunables": list(scenario.tunables),
            "explored": ranked,
            "confirmed": confirmed,
        })
    return ExperimentResult(
        experiment="tune",
        title="Launch-configuration autotuner — Section 7.1 design space",
        quick=quick,
        measurements=measurements,
        metadata={
            "space": space.describe(),
            "model_size": model_size,
            "confirm_size": confirm_size,
            "top_k": top_k,
            "search": search,
            "evaluations": {
                "cells": evaluations,
                "evaluated": sum(m.extra["evaluated"] for m in measurements),
                "space": sum(m.extra["space_points"] for m in measurements),
            },
            "cells": cell_records,
            "tune_digest": stable_digest(
                [[m.extra["cell_id"], m.extra["best"],
                  m.extra["best_model_ms"]] for m in measurements]),
        },
    )


def render(result: ExperimentResult) -> str:
    """Fixed-width tuning report (pure view over the typed result)."""
    meta = result.metadata
    confirm_text = ("confirm stage skipped (model stage only)"
                    if meta["confirm_size"] is None else
                    f"confirm: engine=batched "
                    f"at size {meta['confirm_size']!r} "
                    f"(top-{meta['top_k']} + default)")
    evals = meta.get("evaluations") or {}
    search_text = meta.get("search", "exhaustive")
    if evals:
        search_text += f" ({evals['evaluated']}/{evals['space']} points)"
    lines = [result.title,
             f"explore: engine=model search={search_text} "
             f"at size {meta['model_size']!r} "
             f"({'x'.join(str(len(v)) for v in meta['space'].values())} grid); "
             f"{confirm_text}"]
    header = (f"{'cell':<26} {'pts':>4} {'default':>8} {'default_ms':>12} "
              f"{'best':>8} {'best_ms':>12} {'speedup':>8} "
              f"{'confirmed':>9} {'agree':>6}")
    lines.append(header)
    lines.append("-" * len(header))
    for m in result.measurements:
        e = m.extra
        agree = e.get("confirm_agrees")
        default_ms = ("-" if e["default_model_ms"] is None
                      else f"{e['default_model_ms']:.6f}")
        speedup = ("-" if e["model_speedup"] is None
                   else f"{e['model_speedup']:.3f}x")
        lines.append(
            f"{e['cell_id']:<26} {e['points']:>4} {e['default']:>8} "
            f"{default_ms:>12} {e['best']:>8} "
            f"{e['best_model_ms']:>12.6f} {speedup:>8} "
            f"{(e['confirm_best'] or '-'):>9} "
            f"{('-' if agree is None else 'yes' if agree else 'no'):>6}")
    better = sum(1 for m in result.measurements
                 if m.extra["best"] != m.extra["default"])
    lines.append(f"{better}/{len(result.measurements)} cells found a "
                 f"configuration faster than the paper default")
    lines.append(f"tune digest: {meta['tune_digest']}")
    return "\n".join(lines)

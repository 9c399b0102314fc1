"""Sweep-as-a-service: the long-running HTTP/JSON daemon.

The batch CLI (``ssam-repro --experiment sweep``) runs one matrix and
exits; this module keeps the scenario registry, the sweep engine and the
launch-config autotuner resident behind a small HTTP/JSON API so many
clients can share one simulation backbone::

    ssam-repro --experiment serve --cache-dir /var/ssam   # start the daemon
    ssam-repro submit --matrix tier1 --wait               # submit + stream

Every submission is checkpointed in the shared result store before any
cell executes: the matrix, priority and a per-cell ledger survive a
``SIGKILL`` of the daemon, and a restarted daemon resumes exactly the
cells that have no stored payload yet (completed cells are never re-run —
the artifact of a killed-and-resumed sweep is byte-identical to an
uninterrupted one).  Cells execute on a priority-ordered worker pool
through the same claim/dedup path as CLI runs, so a submission whose
results already exist is answered entirely from the store.

Endpoints (all JSON)::

    GET  /health                     liveness + store/queue stats
    GET  /scenarios                  the scenario registry, as data
    GET  /matrices                   named sweep matrix presets
    POST /sweeps                     {"matrix": ..., "priority": ..., "name": ...}
    POST /tune                       {"quick": ..., "priority": ...}
    POST /refresh                    like /sweeps, but reports which cells a
                                     code-digest change invalidated
    GET  /runs                       all checkpointed runs
    GET  /runs/<id>                  status + per-state cell counts
    GET  /runs/<id>/results          the typed ExperimentResult (202 while
                                     cells are still executing)
    GET  /runs/<id>/cells            NDJSON stream of completed cell payloads
    GET  /tuned                      every row of the tuning database
    GET  /best_config/<scenario>/<arch>/<precision>[?size_class=paper]
                                     the tuned launch configuration of one
                                     cell (sqlite lookup, no simulation);
                                     falls back to the paper defaults with
                                     "source": "paper" when nothing is tuned
    GET  /analysis                   summary of every cached static-
                                     verification report
    GET  /analysis/<scenario>[?architecture=p100&precision=float32&size=]
                                     the scenario's static-verification
                                     report: served from the store under
                                     the current code version, else
                                     computed in-process and persisted

A request body larger than :data:`MAX_BODY_BYTES` is refused with 413
before anything is parsed or queued.
"""

from __future__ import annotations

import json
import os
import re
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigurationError, SimulationError
from ..experiments.cache import SimulationCache
from ..experiments.jobs import SimulationJob
from ..experiments.results import ExperimentResult
from ..serialization import stable_digest
from .queue import WorkerPool

#: statuses a run can be in; terminal ones never change again
RUN_ACTIVE = ("queued", "running")
RUN_TERMINAL = ("done", "failed")

#: cell ledger states: "cached" was served from the store at submit time,
#: "pending" is queued or executing, "done"/"failed" are terminal
CELL_TERMINAL = ("cached", "done", "failed")

#: filename of the endpoint advertisement inside the cache directory
ENDPOINT_FILENAME = "daemon.json"


def _sweep_module():
    """Lazy: importing the sweep engine loads every kernel and baseline."""
    from ..scenarios import sweep

    return sweep


class SweepService:
    """The service core: submissions, checkpointed runs, resume.

    Owns no sockets — the HTTP layer below is a thin translation onto this
    class, and tests drive it directly.
    """

    def __init__(self, cache: SimulationCache, threads: int = 2) -> None:
        self.cache = cache
        self.store = cache.result_store()
        self.pool = WorkerPool(cache, threads=threads, on_cell=self._cell_finished)
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)

    # -- registry views -------------------------------------------------------
    def scenario_index(self) -> List[Dict[str, object]]:
        from ..scenarios import builtin as _builtin  # noqa: F401 (register)
        from ..scenarios.registry import all_scenarios

        return [{
            "name": s.name, "family": s.family, "role": s.role,
            "dims": s.dims, "description": s.description,
            "sizes": sorted(s.sizes), "architectures": list(s.architectures),
            "precisions": list(s.precisions), "engines": list(s.engines),
            "tunables": list(s.tunables),
        } for s in all_scenarios()]

    def matrix_presets(self) -> Dict[str, object]:
        return dict(_sweep_module().MATRICES)

    # -- submissions ----------------------------------------------------------
    def _sweep_jobs(self, matrix: Mapping[str, object]) -> List[SimulationJob]:
        return _sweep_module().jobs(matrix)

    def _new_run_id(self, kind: str, matrix: Mapping[str, object]) -> str:
        ordinal = self.store.next_run_ordinal()
        digest = stable_digest(matrix, length=8)
        run_id = f"{kind}-{ordinal:04d}-{digest}"
        existing = {r["run_id"] for r in self.store.list_runs()}
        while run_id in existing:  # ordinal races with deleted/parallel runs
            ordinal += 1
            run_id = f"{kind}-{ordinal:04d}-{digest}"
        return run_id

    def submit_sweep(self, matrix: "str | Mapping[str, object] | None",
                     priority: int = 0, name: Optional[str] = None,
                     refresh: bool = False) -> Dict[str, object]:
        """Checkpoint a sweep run, dedup against the store, queue the rest.

        With ``refresh=True`` the response additionally classifies every
        cell: ``fresh`` cells have a payload under the current code digest,
        ``invalidated`` cells only have one from an older code state (they
        re-run), ``missing`` cells were never computed.
        """
        sweep = _sweep_module()
        resolved = sweep.load_matrix(matrix)
        jobs = self._sweep_jobs(resolved)
        current = self.store.code_version()
        cells: Dict[str, str] = {}
        statuses: Dict[str, str] = {}
        queued: List[SimulationJob] = []
        classes = {"fresh": 0, "invalidated": 0, "missing": 0}
        for job in jobs:
            cells[job.key] = self.store.digest_for(job.cache_key())
            if self.cache.peek(job.cache_key()) is not None:
                statuses[job.key] = "cached"
                classes["fresh"] += 1
            else:
                statuses[job.key] = "pending"
                queued.append(job)
                versions = self.store.job_key_versions(job.key)
                if any(v != current for v in versions):
                    classes["invalidated"] += 1
                else:
                    classes["missing"] += 1
        run_id = self._new_run_id("sweep", resolved)
        self.store.create_run(run_id, "sweep", resolved, cells,
                              priority=priority, name=name,
                              cell_status=statuses)
        if queued:
            self.store.set_run_status(run_id, "running")
            for job in queued:
                self.pool.submit(run_id, job.key, job, priority=priority)
        else:
            self.store.set_run_status(run_id, "done")
        response: Dict[str, object] = {
            "run_id": run_id, "kind": "sweep",
            "matrix": resolved.get("name", "custom"),
            "status": "done" if not queued else "running",
            "total": len(jobs), "cached": len(jobs) - len(queued),
            "queued": len(queued), "priority": int(priority),
        }
        if refresh:
            response["refresh"] = classes
        return response

    def submit_tune(self, options: Optional[Mapping[str, object]] = None,
                    priority: int = 0) -> Dict[str, object]:
        """Queue a launch-config tuning study as a checkpointed run.

        The tuner's two stages run in a background thread; every design
        point they evaluate is routed through the service worker pool at
        the run's priority, registered in the run's cell ledger, and
        deduped against the store like any sweep cell.
        """
        options = dict(options or {})
        run_id = self._new_run_id("tune", options)
        self.store.create_run(run_id, "tune", options, {}, priority=priority,
                              name=options.get("name"))
        self.store.set_run_status(run_id, "running")
        thread = threading.Thread(
            target=self._run_tune, args=(run_id, options, int(priority)),
            name=f"ssam-tune-{run_id}", daemon=True)
        thread.start()
        return {"run_id": run_id, "kind": "tune", "status": "running",
                "priority": int(priority), "options": options}

    def _run_tune(self, run_id: str, options: Mapping[str, object],
                  priority: int) -> None:
        from ..tuning import run_tuning

        def executor(jobs, workers=1, cache=None):
            return self._pooled_execute(run_id, jobs, priority)

        try:
            result = run_tuning(
                quick=bool(options.get("quick", False)),
                scenarios=options.get("scenarios"),
                architectures=options.get("architectures"),
                precisions=options.get("precisions"),
                confirm=bool(options.get("confirm", True)),
                search=options.get("search", "exhaustive"),
                cache=self.cache, executor=executor)
            self.store.upsert(self._artifact_key(run_id), result.to_dict(),
                              job_key=f"service-artifact:{run_id}")
            self.store.set_run_status(run_id, "done")
        except Exception as exc:
            self.store.set_run_status(run_id, "failed")
            self.store.set_cell_status(run_id, "tune", "failed",
                                       f"{type(exc).__name__}: {exc}")
        with self._done:
            self._done.notify_all()

    def _artifact_key(self, run_id: str) -> Dict[str, object]:
        return {"service": "artifact", "run": run_id}

    def _pooled_execute(self, run_id: str, jobs, priority: int
                        ) -> Dict[str, Dict[str, object]]:
        """Route one executor batch through the worker pool and wait.

        This is the ``executor`` hook :func:`repro.tuning.run_tuning`
        accepts: cells register in the run's ledger (checkpointed), queue
        at the run's priority, and the calling thread blocks until each has
        a stored payload or a failure.
        """
        jobs = list(jobs)
        cells = {job.key: self.store.digest_for(job.cache_key())
                 for job in jobs}
        self.store.add_run_cells(run_id, cells)
        payloads: Dict[str, Dict[str, object]] = {}
        queued = []
        for job in jobs:
            payload = self.cache.peek(job.cache_key())
            if payload is not None:
                payloads[job.key] = payload
                self.store.set_cell_status(run_id, job.key, "cached")
            else:
                self.pool.submit(run_id, job.key, job, priority=priority)
                queued.append(job)
        for job in queued:
            payload = self._wait_for_cell(run_id, job)
            payloads[job.key] = payload
        return payloads

    def _wait_for_cell(self, run_id: str, job: SimulationJob,
                       timeout: float = 600.0) -> Dict[str, object]:
        with self._done:
            def ready() -> bool:
                cell = self.store.run_cells(run_id)
                states = {c["cell"]: c for c in cell}
                return states.get(job.key, {}).get("status") in CELL_TERMINAL

            if not self._done.wait_for(ready, timeout=timeout):
                raise SimulationError(
                    f"timed out waiting for cell {job.key!r} of {run_id!r}")
        payload = self.cache.peek(job.cache_key())
        if payload is None:
            states = {c["cell"]: c for c in self.store.run_cells(run_id)}
            detail = states.get(job.key, {}).get("detail")
            raise SimulationError(
                f"cell {job.key!r} of {run_id!r} failed: {detail}")
        return payload

    # -- completion bookkeeping ----------------------------------------------
    def _cell_finished(self, run_id: str, cell: str, status: str,
                       detail: Optional[str]) -> None:
        self.store.set_cell_status(run_id, cell, status, detail)
        record = self.store.run_record(run_id)
        if record["kind"] == "sweep":
            progress = self.store.run_progress(run_id)
            remaining = progress.get("pending", 0) + progress.get("running", 0)
            if remaining == 0:
                final = "failed" if progress.get("failed", 0) else "done"
                self.store.set_run_status(run_id, final)
        with self._done:
            self._done.notify_all()

    # -- queries ---------------------------------------------------------------
    def run_status(self, run_id: str) -> Dict[str, object]:
        record = self.store.run_record(run_id)
        progress = self.store.run_progress(run_id)
        failed = [c for c in self.store.run_cells(run_id, status="failed")]
        out = {
            "run_id": run_id, "kind": record["kind"],
            "name": record["name"], "status": record["status"],
            "priority": record["priority"], "total": record["total"],
            "cells": progress,
            "code_version": record["code_version"],
        }
        if failed:
            out["failures"] = [{"cell": c["cell"], "detail": c["detail"]}
                               for c in failed]
        return out

    def run_results(self, run_id: str) -> Optional[ExperimentResult]:
        """The typed result of a finished run (``None`` while incomplete)."""
        record = self.store.run_record(run_id)
        if record["status"] not in RUN_TERMINAL:
            return None
        if record["status"] == "failed":
            raise SimulationError(f"run {run_id!r} failed; no result")
        if record["kind"] == "tune":
            payload = self.store.get(self._artifact_key(run_id))
            if payload is None:
                return None
            return ExperimentResult.from_dict(payload)
        sweep = _sweep_module()
        matrix = record["matrix"]
        payloads, missing = sweep.collect_payloads(matrix, self.cache)
        if missing:
            return None
        return sweep.assemble(payloads, matrix)

    def iter_cell_payloads(self, run_id: str):
        """Completed cell payloads of a sweep run, in matrix order."""
        record = self.store.run_record(run_id)
        if record["kind"] != "sweep":
            raise ConfigurationError(
                f"run {run_id!r} is a {record['kind']!r} run; cell payloads "
                f"exist for sweep runs only")
        payloads, _ = _sweep_module().collect_payloads(record["matrix"],
                                                       self.cache)
        for cell, payload in payloads.items():
            yield {"cell": cell, "payload": payload}

    def wait_for_run(self, run_id: str, timeout: float = 600.0) -> str:
        """Block until a run reaches a terminal status; returns the status."""
        with self._done:
            def ready() -> bool:
                return (self.store.run_record(run_id)["status"]
                        in RUN_TERMINAL)

            if not self._done.wait_for(ready, timeout=timeout):
                raise SimulationError(f"timed out waiting for run {run_id!r}")
        return self.store.run_record(run_id)["status"]

    # -- resume ----------------------------------------------------------------
    def resume_pending(self) -> List[str]:
        """Re-queue the unfinished cells of every non-terminal run.

        Called at daemon startup.  Cells whose payload meanwhile exists in
        the store (completed before the crash, or computed by someone else)
        are marked done without re-execution — this is what makes a
        killed-and-restarted sweep produce the exact artifact of an
        uninterrupted run: the already-completed cells are never simulated
        twice.
        """
        self.store.reap_dead_claims()
        resumed: List[str] = []
        for record in self.store.list_runs(status=RUN_ACTIVE):
            run_id = record["run_id"]
            full = self.store.run_record(run_id)
            if full["kind"] == "tune":
                self.submit_tune_resume(run_id, full)
                resumed.append(run_id)
                continue
            jobs = {job.key: job for job in self._sweep_jobs(full["matrix"])}
            requeued = 0
            for cell in self.store.run_cells(run_id):
                if cell["status"] in CELL_TERMINAL:
                    continue
                job = jobs.get(cell["cell"])
                if job is None:  # matrix definition changed underneath us
                    self.store.set_cell_status(run_id, cell["cell"], "failed",
                                               "cell no longer in matrix")
                    continue
                if self.cache.peek(job.cache_key()) is not None:
                    self.store.set_cell_status(run_id, cell["cell"], "done")
                    continue
                self.pool.submit(run_id, cell["cell"], job,
                                 priority=full["priority"])
                requeued += 1
            if requeued == 0:
                progress = self.store.run_progress(run_id)
                final = "failed" if progress.get("failed", 0) else "done"
                self.store.set_run_status(run_id, final)
            else:
                self.store.set_run_status(run_id, "running")
            resumed.append(run_id)
        return resumed

    def submit_tune_resume(self, run_id: str,
                           record: Mapping[str, object]) -> None:
        """Restart an interrupted tune run (cached stages replay instantly)."""
        options = record["matrix"]
        thread = threading.Thread(
            target=self._run_tune,
            args=(run_id, options, int(record["priority"])),
            name=f"ssam-tune-{run_id}", daemon=True)
        thread.start()

    # -- tuning database -------------------------------------------------------
    def best_config(self, scenario: str, architecture: str, precision: str,
                    size_class: str = "paper") -> Dict[str, object]:
        """One cell's tuned launch configuration — a pure sqlite lookup.

        Answers in microseconds from the ``tuned_configs`` table; no
        simulation, no planning.  When the cell has no tuned row under the
        current code version the response carries the paper defaults with
        ``"source": "paper"`` — the same fallback the planners' resolution
        chain applies.
        """
        from ..core.launch_defaults import PAPER_LAUNCH_DEFAULTS

        found = self.store.best_config(scenario, architecture, precision,
                                       size_class)
        response: Dict[str, object] = {
            "scenario": scenario, "architecture": architecture,
            "precision": precision, "size_class": size_class,
            "code_version": self.store.code_version(),
            "source": "tuned" if found else "paper",
            "plan_kwargs": (dict(found["plan_kwargs"]) if found
                            else dict(PAPER_LAUNCH_DEFAULTS)),
        }
        if found:
            response["tuned"] = {
                key: found.get(key)
                for key in ("model_ms", "default_model_ms", "speedup",
                            "search", "confirmed", "tune_digest",
                            "space", "space_size", "created_at")}
        return response

    def tuned_index(self) -> Dict[str, object]:
        """Every row of the tuning database (all code versions)."""
        rows = self.store.list_tuned_configs()
        return {"tuned_configs": rows, "count": len(rows),
                "code_version": self.store.code_version()}

    # -- static verification ----------------------------------------------------
    def analysis(self, scenario: str, architecture: str = "p100",
                 precision: str = "float32",
                 size: Optional[str] = None) -> Dict[str, object]:
        """One scenario's static-verification report, store-backed.

        A report cached under the current code version answers directly
        (``"source": "store"``); otherwise the verifier runs in-process —
        tiny-size trace capture plus pure front-end analysis — and the
        fresh report is persisted for the next caller
        (``"source": "computed"``).
        """
        cached = self.store.get_analysis_report(scenario, architecture,
                                                precision, size=size)
        if cached is not None:
            return {"source": "store",
                    "code_version": self.store.code_version(),
                    "analysis": cached}
        from ..analysis.scenario import analyze_scenario

        _sweep_module()  # populate the scenario registry
        analysis = analyze_scenario(scenario, architecture=architecture,
                                    precision=precision, size=size)
        payload = analysis.to_dict()
        self.store.put_analysis_report(payload)
        return {"source": "computed",
                "code_version": self.store.code_version(),
                "analysis": payload}

    def analysis_index(self) -> Dict[str, object]:
        """Summary of every cached verification report."""
        rows = self.store.list_analysis_reports()
        return {"analysis_reports": rows, "count": len(rows),
                "code_version": self.store.code_version()}

    # -- lifecycle --------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "store": {"path": self.store.path,
                      "entries": self.store.entry_count(),
                      "claims": self.store.claim_count(),
                      "stale_entries": self.store.stale_entry_count()},
            "cache": self.cache.stats(),
            "queue": {"pending": self.pool.pending()},
            "runs": {status: len(self.store.list_runs(status=[status]))
                     for status in RUN_ACTIVE + RUN_TERMINAL},
        }

    def shutdown(self) -> None:
        self.pool.shutdown(wait=True)


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------

#: largest request body the daemon reads; a sweep or tune submission is a
#: few KB of JSON
MAX_BODY_BYTES = 1 << 20
#: an oversized body up to this size is read and dropped before the 413 is
#: sent, so the client is not reset mid-request; a larger one is not read
_DISCARD_LIMIT = 8 * MAX_BODY_BYTES


class RequestTooLarge(ConfigurationError):
    """A request body over :data:`MAX_BODY_BYTES` (answered with 413)."""


_ROUTES = {
    "health": re.compile(r"^/health/?$"),
    "scenarios": re.compile(r"^/scenarios/?$"),
    "matrices": re.compile(r"^/matrices/?$"),
    "runs": re.compile(r"^/runs/?$"),
    "run": re.compile(r"^/runs/(?P<run_id>[\w.:-]+)/?$"),
    "results": re.compile(r"^/runs/(?P<run_id>[\w.:-]+)/results/?$"),
    "cells": re.compile(r"^/runs/(?P<run_id>[\w.:-]+)/cells/?$"),
    "sweeps": re.compile(r"^/sweeps/?$"),
    "tune": re.compile(r"^/tune/?$"),
    "refresh": re.compile(r"^/refresh/?$"),
    "tuned": re.compile(r"^/tuned/?$"),
    "best_config": re.compile(
        r"^/best_config/(?P<scenario>[\w.:-]+)/(?P<architecture>[\w.:-]+)"
        r"/(?P<precision>[\w.:-]+)/?$"),
    "analysis_index": re.compile(r"^/analysis/?$"),
    "analysis": re.compile(r"^/analysis/(?P<scenario>[\w.:-]+)/?$"),
}


class ServiceHandler(BaseHTTPRequestHandler):
    """Thin JSON translation onto the owning server's :class:`SweepService`."""

    server_version = "ssam-repro-service"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> SweepService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # -- plumbing -------------------------------------------------------------
    def _send_json(self, payload: object, status: int = 200) -> None:
        body = json.dumps(payload, indent=2).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, object]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ConfigurationError("invalid Content-Length header")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._discard(length)
            raise RequestTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        if length == 0:
            return {}
        try:
            parsed = json.loads(self.rfile.read(length).decode("utf-8"))
        except ValueError as exc:
            raise ConfigurationError(f"request body is not JSON: {exc}")
        if not isinstance(parsed, dict):
            raise ConfigurationError("request body must be a JSON object")
        return parsed

    def _discard(self, length: int) -> None:
        """Drop an unread body in bounded chunks (none past the limit)."""
        left = length if length <= _DISCARD_LIMIT else 0
        while left > 0:
            chunk = self.rfile.read(min(left, 1 << 16))
            if not chunk:
                break
            left -= len(chunk)

    def _match(self, path: str) -> Tuple[Optional[str], Dict[str, str]]:
        path = path.split("?", 1)[0]
        for name, pattern in _ROUTES.items():
            found = pattern.match(path)
            if found:
                return name, found.groupdict()
        return None, {}

    def _guarded(self, fn) -> None:
        try:
            fn()
        except RequestTooLarge as exc:
            self._send_json({"error": str(exc)}, status=413)
        except ConfigurationError as exc:
            self._send_json({"error": str(exc)}, status=400)
        except SimulationError as exc:
            self._send_json({"error": str(exc)}, status=500)

    # -- GET -------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        route, params = self._match(self.path)
        if route == "health":
            self._guarded(lambda: self._send_json({
                "status": "ok",
                "code_version": self.service.store.code_version(),
                **self.service.stats()}))
        elif route == "scenarios":
            self._guarded(lambda: self._send_json(
                {"scenarios": self.service.scenario_index()}))
        elif route == "matrices":
            self._guarded(lambda: self._send_json(
                {"matrices": self.service.matrix_presets()}))
        elif route == "runs":
            self._guarded(lambda: self._send_json(
                {"runs": self.service.store.list_runs()}))
        elif route == "run":
            self._guarded(lambda: self._send_json(
                self.service.run_status(params["run_id"])))
        elif route == "results":
            self._guarded(lambda: self._results(params["run_id"]))
        elif route == "cells":
            self._guarded(lambda: self._cells(params["run_id"]))
        elif route == "tuned":
            self._guarded(lambda: self._send_json(self.service.tuned_index()))
        elif route == "best_config":
            self._guarded(lambda: self._best_config(params))
        elif route == "analysis_index":
            self._guarded(
                lambda: self._send_json(self.service.analysis_index()))
        elif route == "analysis":
            self._guarded(lambda: self._analysis(params))
        else:
            self._send_json({"error": f"no such endpoint {self.path!r}"},
                            status=404)

    def _best_config(self, params: Dict[str, str]) -> None:
        query = urllib.parse.parse_qs(
            urllib.parse.urlparse(self.path).query)
        size_class = (query.get("size_class") or ["paper"])[0]
        self._send_json(self.service.best_config(
            params["scenario"], params["architecture"], params["precision"],
            size_class=size_class))

    def _analysis(self, params: Dict[str, str]) -> None:
        query = urllib.parse.parse_qs(
            urllib.parse.urlparse(self.path).query)
        self._send_json(self.service.analysis(
            params["scenario"],
            architecture=(query.get("architecture") or ["p100"])[0],
            precision=(query.get("precision") or ["float32"])[0],
            size=(query.get("size") or [None])[0]))

    def _results(self, run_id: str) -> None:
        result = self.service.run_results(run_id)
        if result is None:
            self._send_json({"run_id": run_id, "status": "incomplete",
                             **self.service.run_status(run_id)}, status=202)
        else:
            self._send_json(result.to_dict())

    def _cells(self, run_id: str) -> None:
        lines = [json.dumps(entry, separators=(",", ":"))
                 for entry in self.service.iter_cell_payloads(run_id)]
        body = ("\n".join(lines) + "\n").encode() if lines else b""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- POST ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        route, _ = self._match(self.path)
        if route == "sweeps":
            self._guarded(lambda: self._submit(refresh=False))
        elif route == "refresh":
            self._guarded(lambda: self._submit(refresh=True))
        elif route == "tune":
            self._guarded(self._tune)
        else:
            self._send_json({"error": f"no such endpoint {self.path!r}"},
                            status=404)

    def _submit(self, refresh: bool) -> None:
        body = self._read_body()
        response = self.service.submit_sweep(
            body.get("matrix"), priority=int(body.get("priority", 0)),
            name=body.get("name"), refresh=refresh)
        self._send_json(response, status=202)

    def _tune(self) -> None:
        body = self._read_body()
        response = self.service.submit_tune(
            body.get("options") or {k: v for k, v in body.items()
                                    if k != "priority"},
            priority=int(body.get("priority", 0)))
        self._send_json(response, status=202)


class ServiceServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: SweepService,
                 verbose: bool = False) -> None:
        super().__init__(address, ServiceHandler)
        self.service = service
        self.verbose = verbose


def serve(cache: SimulationCache, host: str = "127.0.0.1", port: int = 0,
          threads: int = 2, resume: bool = True, verbose: bool = False
          ) -> Tuple[ServiceServer, SweepService]:
    """Bind the service (without entering the serve loop) and resume runs.

    Returns the server (``server.server_address`` carries the actual port
    when ``port=0``) and the service core; the caller drives
    ``serve_forever`` — the CLI blocks on it, tests run it in a thread.
    """
    service = SweepService(cache, threads=threads)
    server = ServiceServer((host, port), service, verbose=verbose)
    if resume:
        service.resume_pending()
    return server, service


def endpoint_path(cache: SimulationCache) -> str:
    return os.path.join(cache.directory, ENDPOINT_FILENAME)


def write_endpoint_file(cache: SimulationCache,
                        server: ServiceServer) -> str:
    """Advertise the bound address next to the store for discovery."""
    from ..serialization import atomic_write_json

    host, port = server.server_address[:2]
    path = endpoint_path(cache)
    atomic_write_json(path, {
        "host": host, "port": port, "pid": os.getpid(),
        "url": f"http://{host}:{port}"}, indent=2)
    return path


def run_daemon(cache: SimulationCache, host: str = "127.0.0.1",
               port: int = 8037, threads: int = 2,
               verbose: bool = False) -> int:
    """Blocking entry point behind ``ssam-repro --experiment serve``."""
    server, service = serve(cache, host=host, port=port, threads=threads,
                            verbose=verbose)
    endpoint = write_endpoint_file(cache, server)
    bound = server.server_address
    print(f"ssam-repro service listening on http://{bound[0]}:{bound[1]} "
          f"(store: {service.store.path})", flush=True)
    print(f"endpoint file: {endpoint}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.server_close()
        service.shutdown()
        try:
            os.unlink(endpoint)
        except OSError:
            pass
    return 0

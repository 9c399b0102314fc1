"""Layer map and in-memory span collector of the traced benchmark runs.

Spans are recorded from the benchmark's side only: :func:`install` wraps
public functions and methods of the program's layers (nothing under
``src/repro`` is edited) and every wrapped call becomes one span with its
name, start, end and the span that caused it.  Spans stay in memory and are
summarised when the program process ends.  A layer's self time is the
span's duration minus the time its wrapped children cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (target, time layer, count metric); a target is ``module:qualname`` and
#: a trailing ``*`` wraps every module-level function with that prefix
TARGETS: List[Tuple[str, Optional[str], Optional[str]]] = [
    ("repro.experiments.parallel:execute_jobs", "experiments.execute_jobs", None),
    ("repro.experiments.jobs:execute_job", "experiments.execute_jobs",
     "experiments.cells"),
    ("repro.experiments.parallel:_await_claimed", "service.store.claim_wait", None),
    ("repro.scenarios.sweep:load_matrix", "scenarios.expand", None),
    ("repro.scenarios.registry:expand_matrix", "scenarios.expand", None),
    ("repro.scenarios.sweep:jobs", "scenarios.expand", None),
    ("repro.scenarios.sweep:_measure_case", "scenarios.run_case", None),
    ("repro.scenarios.registry:Scenario.run_case", "scenarios.run_case", None),
    ("repro.scenarios.sweep:assemble", "scenarios.assemble", None),
    ("repro.scenarios.sweep:render", "scenarios.assemble", None),
    ("repro.scenarios.registry:Scenario.oracle_output", "baselines.oracle",
     "baselines.oracle_calls"),
    ("repro.core.plan:plan_convolution", "core.plan", "core.plan_calls"),
    ("repro.core.plan:plan_stencil", "core.plan", "core.plan_calls"),
    ("repro.core.performance_model:model_*", "core.model", "core.model_calls"),
    ("repro.gpu.kernel:Kernel.launch", "gpu.launch", None),
    ("repro.trace.replay:record_trace", "trace.record", "trace.records"),
    ("repro.trace.replay:compile_trace", "trace.compile", "trace.compiles"),
    ("repro.trace.replay:replay_launch", "trace.replay", "trace.launches"),
    ("repro.trace.replay:record_fallback", None, "trace.fallbacks"),
    ("repro.service.store:ResultStore.get", "service.store.lookup",
     "service.store.lookups"),
    ("repro.service.store:ResultStore.upsert", "service.store.upsert",
     "service.store.upserts"),
    ("repro.service.store:ResultStore.claim", "service.store.claim",
     "service.store.claims"),
    ("repro.service.daemon:SweepService.submit_sweep", "service.submit", None),
    ("repro.service.daemon:SweepService.run_status", "service.status", None),
    ("repro.service.daemon:SweepService.run_results", "service.results", None),
    ("repro.service.queue:WorkerPool.submit", None, None),
    ("repro.service.queue:WorkerPool._run_one", None, None),
    ("repro.tuning.tuner:run_tuning", "tuning.search", None),
    ("repro.tuning.tuner:explore_points", "tuning.search", None),
    ("repro.tuning.tuner:explore_stage", "tuning.search", None),
    ("repro.tuning.tuner:assemble", "tuning.search", None),
    ("repro.tuning.tuner:render", "tuning.search", None),
    ("repro.tuning.search:SearchSession.observe", None, None),
]


class Collector:
    """Per-process span store; one span stack per thread."""

    def __init__(self) -> None:
        # span: [layer, start, end, parent index, child seconds]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        #: service queue: run id -> submit accepted, cell -> run id,
        #: cell -> start of its execution
        self.accepted: Dict[str, float] = {}
        self.cell_run: Dict[str, str] = {}
        self.cell_started: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn: Callable, layer: Optional[str],
             counter: Optional[str], target: str) -> Callable:
        extra = _EXTRACTORS.get(target)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [layer, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, 0.0]
            with self._lock:
                self.spans.append(span)
                index = len(self.spans) - 1
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
                if span[3] >= 0:
                    self.spans[span[3]][4] += span[2] - span[1]
            if counter is not None:
                self.count(counter)
            if extra is not None:
                extra(self, args, kwargs, result, span)
            return result

        return wrapper

    def summary(self) -> Dict[str, float]:
        """Self seconds per layer (``<layer>_s``), every count, and the
        service queue wait: for each run with queued cells, the time from
        the moment its submit was accepted (``submit_sweep`` returned) until
        the first of its cells started (zero if one started before),
        summed over runs."""
        out: Dict[str, float] = dict(self.counts)
        for layer, start, end, _parent, child in self.spans:
            if layer is not None:
                key = f"{layer}_s"
                out[key] = out.get(key, 0.0) + (end - start - child)
        first_start: Dict[str, float] = {}
        for cell, started in self.cell_started.items():
            run_id = self.cell_run.get(cell)
            if run_id is not None:
                first_start[run_id] = min(first_start.get(run_id, started),
                                          started)
        out["service.queue_wait_s"] = sum(
            max(0.0, started - self.accepted[run_id])
            for run_id, started in first_start.items()
            if run_id in self.accepted)
        return out

    def inclusive(self, layers) -> float:
        """Wall seconds covered by the outermost spans of ``layers``."""
        total = 0.0
        for layer, start, end, parent, _child in self.spans:
            if layer in layers and (parent < 0
                                    or self.spans[parent][0] not in layers):
                total += end - start
        return total


def _launch_blocks(collector, args, kwargs, result, span) -> None:
    if kwargs.get("batch_size", "auto") != "replay":
        collector.count("gpu.blocks", result.blocks_executed)


def _store_hit(collector, args, kwargs, result, span) -> None:
    if result is not None:
        collector.count("service.store.hits")


def _observe(collector, args, kwargs, result, span) -> None:
    times = args[1] if len(args) > 1 else kwargs["times"]
    collector.count("tuning.evals", len(times))


def _accepted(collector, args, kwargs, result, span) -> None:
    collector.accepted[result["run_id"]] = span[2]


def _enqueue(collector, args, kwargs, result, span) -> None:
    _pool, run_id, cell = args[:3]
    collector.cell_run.setdefault(cell, run_id)


def _dequeue(collector, args, kwargs, result, span) -> None:
    job = args[1] if len(args) > 1 else kwargs["job"]
    collector.cell_started.setdefault(job.key, span[1])


_EXTRACTORS = {
    "repro.gpu.kernel:Kernel.launch": _launch_blocks,
    "repro.service.store:ResultStore.get": _store_hit,
    "repro.tuning.search:SearchSession.observe": _observe,
    "repro.service.daemon:SweepService.submit_sweep": _accepted,
    "repro.service.queue:WorkerPool.submit": _enqueue,
    "repro.service.queue:WorkerPool._run_one": _dequeue,
}


def _resolve(target: str):
    """``(owner, attribute name, function)`` triples a target names."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if qualname.endswith("*"):
        prefix = qualname[:-1]
        return [(module, name, value) for name, value in vars(module).items()
                if name.startswith(prefix) and callable(value)
                and getattr(value, "__module__", None) == module_name]
    owner = module
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return [(owner, name, getattr(owner, name))]


def _replace(owner, name: str, original: Callable, wrapper: Callable) -> None:
    """Make ``wrapper`` take the place of ``original``.

    A method is replaced on its class.  A function is replaced under every
    module-level alias in the package: ``from x import f`` copies the
    function into the importing module, so patching only the defining
    module would miss those call sites.
    """
    if isinstance(owner, type):
        setattr(owner, name, wrapper)
        return
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for alias, value in list(vars(module).items()):
            if value is original:
                setattr(module, alias, wrapper)


def install(collector: Collector, prefixes=None) -> None:
    """Wrap every target of :data:`TARGETS` (modules are imported first).

    ``prefixes`` limits the wrapping to targets in modules whose name
    starts with one of them.
    """
    for target, layer, counter in TARGETS:
        if prefixes is not None and not target.startswith(prefixes):
            continue
        for owner, name, fn in _resolve(target):
            _replace(owner, name, fn,
                     collector.wrap(fn, layer, counter, target))


def plant_delay(target: str, seconds: float) -> None:
    """Make every call of one target sleep ``seconds`` first (self-check)."""
    for owner, name, fn in _resolve(target):
        @functools.wraps(fn)
        def delayed(*args, _fn=fn, **kwargs):
            time.sleep(seconds)
            return _fn(*args, **kwargs)

        _replace(owner, name, fn, delayed)

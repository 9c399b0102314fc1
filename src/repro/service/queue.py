"""Priority-ordered execution of service cells on a sharded worker pool.

The daemon decomposes every submission into the same
:class:`~repro.experiments.jobs.SimulationJob` cells the batch CLI runs;
this module owns the queue between the HTTP layer and those cells.  Items
are ordered by ``(priority, submission sequence)`` — lower priority values
run first, ties run in submission order — and each worker drains the queue
through :func:`repro.experiments.parallel.execute_jobs` with the shared
store-backed cache, so queued cells get the same claim/dedup/exactly-once
guarantees as any concurrent CLI sweep.
"""

from __future__ import annotations

import itertools
import queue
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..experiments.cache import SimulationCache
from ..experiments.jobs import SimulationJob
from ..experiments.parallel import execute_jobs

#: cell completion callback: (run_id, cell, status, detail)
CellCallback = Callable[[str, str, str, Optional[str]], None]


@dataclass(order=True)
class _Item:
    priority: int
    sequence: int
    run_id: str = field(compare=False)
    cell: str = field(compare=False)
    job: Optional[SimulationJob] = field(compare=False, default=None)


class WorkerPool:
    """Fixed set of worker threads draining a priority queue of cells.

    Parameters
    ----------
    cache:
        The shared store-backed cache every execution goes through.
    threads:
        Worker thread count (the queue's degree of parallelism).
    on_cell:
        Completion callback invoked from the worker thread with
        ``(run_id, cell, status, detail)``; status is ``"done"`` or
        ``"failed"``.
    """

    def __init__(self, cache: SimulationCache, threads: int = 2,
                 on_cell: Optional[CellCallback] = None) -> None:
        self.cache = cache
        self.on_cell = on_cell
        self._queue: "queue.PriorityQueue[_Item]" = queue.PriorityQueue()
        self._sequence = itertools.count()
        self._stopping = False
        self._inflight = 0
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._worker, name=f"ssam-worker-{i}",
                             daemon=True)
            for i in range(max(1, threads))]
        for thread in self._threads:
            thread.start()

    # -- submission -----------------------------------------------------------
    def submit(self, run_id: str, cell: str, job: SimulationJob,
               priority: int = 0) -> None:
        """Queue one cell; lower ``priority`` values execute first."""
        self._queue.put(_Item(int(priority), next(self._sequence),
                              run_id, cell, job))

    def pending(self) -> int:
        """Cells queued or executing right now (an instantaneous snapshot)."""
        with self._lock:
            return self._queue.qsize() + self._inflight

    # -- execution ------------------------------------------------------------
    def _run_one(self, job: SimulationJob) -> None:
        execute_jobs([job], workers=1, cache=self.cache)

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item.job is None:  # shutdown sentinel
                self._queue.task_done()
                return
            with self._lock:
                self._inflight += 1
            status, detail = "done", None
            try:
                self._run_one(item.job)
            except Exception as exc:  # cell failures never kill the worker
                status, detail = "failed", f"{type(exc).__name__}: {exc}"
            finally:
                with self._lock:
                    self._inflight -= 1
                self._queue.task_done()
            if self.on_cell is not None:
                self.on_cell(item.run_id, item.cell, status, detail)

    # -- lifecycle ------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers (queued-but-unstarted cells stay in the store's
        run ledger as pending, so a restarted daemon resumes them)."""
        if self._stopping:
            return
        self._stopping = True
        for _ in self._threads:
            self._queue.put(_Item(-(2 ** 30), next(self._sequence), "", ""))
        if wait:
            for thread in self._threads:
                thread.join(timeout=30.0)

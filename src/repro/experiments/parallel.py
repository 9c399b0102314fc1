"""Sharded execution of simulation jobs with deterministic results.

``execute_jobs`` is the single entry point: it deduplicates the job list,
serves what it can from the persistent cache, and runs the misses either
inline (``workers=1``) or across a ``ProcessPoolExecutor``.  Results come
back as a ``{job key: payload}`` mapping, so downstream assembly never
depends on completion order — the rendered reports are byte-identical for
any worker count.

The cache is backed by the shared result store
(:mod:`repro.service.store`), so misses are additionally *claimed* before
they run: exactly one process across the whole machine executes each
missing key, and everyone else waits for that process to publish the
payload.  Concurrent sweeps over overlapping matrices therefore do each
simulation once, total.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError, SimulationError
from .cache import SimulationCache
from .jobs import SimulationJob, dedupe_jobs, execute_job

#: seconds between polls while waiting for another process's result
WAIT_POLL_SECONDS = 0.05

#: a claim-waiter's extra patience beyond the store's claim TTL before it
#: attempts a takeover itself
WAIT_GRACE_SECONDS = 5.0


def resolve_workers(workers: Optional[int]) -> int:
    """Validate/normalise a ``--jobs`` value (``None``/``0`` = cpu count)."""
    if workers in (None, 0):
        return max(1, os.cpu_count() or 1)
    workers = int(workers)
    if workers < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {workers}")
    return workers


def _iter_miss_results(misses: List[SimulationJob], workers: int,
                       ) -> Iterable[Tuple[str, Dict[str, object]]]:
    """Yield ``(key, payload)`` per miss as each execution completes.

    Yielding (rather than returning the full batch) is what makes the
    store-back incremental: the caller publishes every payload the moment
    it exists, so a crash mid-batch loses only the in-flight job, and
    concurrent processes waiting on our claims see results as they land.
    """
    # one execution contract for both built-in paths:
    # execute_job(SimulationJob).  A single miss skips the pool on purpose
    # (spawning workers costs more than the job), but it runs through the
    # same contract, so the two paths cannot diverge.
    if workers <= 1 or len(misses) <= 1:
        for job in misses:
            yield execute_job(job)
        return
    chunksize = max(1, len(misses) // (4 * workers))
    pool = ProcessPoolExecutor(max_workers=min(workers, len(misses)))
    try:
        yield from pool.map(execute_job, misses, chunksize=chunksize)
    finally:
        pool.shutdown(wait=True)


def _await_claimed(waits: List[SimulationJob], cache: SimulationCache,
                   ) -> Dict[str, Dict[str, object]]:
    """Wait for keys claimed by other processes to be published.

    Polls the store without touching the miss counter; each satisfied wait
    counts as a hit (the payload was served from the shared store).  If a
    claim goes stale — its owner died before publishing — this process
    takes the lease over and executes the job itself, so a crashed worker
    elsewhere can never wedge the pipeline.
    """
    payloads: Dict[str, Dict[str, object]] = {}
    pending = list(waits)
    store = cache.result_store()
    deadline = time.monotonic() + store.claim_ttl + WAIT_GRACE_SECONDS
    while pending:
        # leases of SIGKILLed local processes are released eagerly, so a
        # crash elsewhere costs one poll interval, not the whole TTL
        store.reap_dead_claims()
        still_pending: List[SimulationJob] = []
        for job in pending:
            payload = cache.peek(job.cache_key())
            if payload is not None:
                cache.hits += 1
                payloads[job.key] = payload
            elif cache.claim(job.cache_key()):
                # the original claimant died: execute here and publish
                key, payload = execute_job(job)
                cache.store(job.cache_key(), payload, job_key=job.key)
                payloads[key] = payload
            else:
                still_pending.append(job)
        pending = still_pending
        if pending:
            if time.monotonic() > deadline:
                raise SimulationError(
                    f"timed out waiting for {len(pending)} claimed job(s) "
                    f"to be published (first: {pending[0].key!r})")
            time.sleep(WAIT_POLL_SECONDS)
    return payloads


def execute_jobs(jobs: List[SimulationJob], workers: int = 1,
                 cache: Optional[SimulationCache] = None,
                 ) -> Dict[str, Dict[str, object]]:
    """Run every job once and return payloads keyed by job key.

    Parameters
    ----------
    jobs:
        Jobs to run; duplicate keys (shared simulations between experiments)
        execute once.
    workers:
        Process count.  ``1`` runs inline in this process (no pool, no
        pickling); larger values shard the cache misses across a
        ``ProcessPoolExecutor``.
    cache:
        Optional persistent cache consulted before execution; fresh
        payloads are stored back after execution.  A cache also
        guarantees exactly-once execution across concurrent processes:
        each miss is claimed in the shared store first, and misses another
        process holds wait for that claimant's result instead of
        recomputing it.
    """
    workers = resolve_workers(workers)
    unique = dedupe_jobs(list(jobs))
    payloads: Dict[str, Dict[str, object]] = {}
    misses: List[SimulationJob] = []
    waits: List[SimulationJob] = []
    for job in unique:
        cached = cache.lookup(job.cache_key()) if cache is not None else None
        if cached is not None:
            payloads[job.key] = cached
        elif cache is not None and not cache.claim(job.cache_key()):
            waits.append(job)
        else:
            misses.append(job)

    if misses:
        by_key = {job.key: job for job in misses}
        fresh: Dict[str, Dict[str, object]] = {}
        try:
            for key, payload in _iter_miss_results(misses, workers):
                fresh[key] = payload
                if cache is not None:
                    cache.store(by_key[key].cache_key(), payload,
                                job_key=key)
        except BaseException:
            if cache is not None:
                # don't wedge concurrent waiters on our now-orphaned
                # leases (published results released theirs via upsert)
                for job in misses:
                    if job.key not in fresh:
                        cache.release_claim(job.cache_key())
            raise
        payloads.update(fresh)
    if waits:
        payloads.update(_await_claimed(waits, cache))
    return payloads

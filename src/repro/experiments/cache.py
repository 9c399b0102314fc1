"""Persistent memoisation of simulation jobs, backed by the shared store.

Every experiment decomposes into simulation jobs (:mod:`repro.experiments.jobs`)
whose payloads — :class:`~repro.gpu.counters.KernelCounters` dictionaries and
modelled times — are pure functions of the job's parameters and of the
simulator's code.  The cache keys each payload by a stable hash of

* the job's kernel/function identity,
* the problem spec fingerprint and launch parameters
  (specs, plans and launch configs are hashable-serialisable for exactly
  this purpose),
* the architecture, precision and engine/mode,
* a code-version digest over ``src/repro`` so editing the simulator
  invalidates every stale entry automatically.

Since PR 7 the backing storage is the concurrency-safe sqlite/WAL
:class:`~repro.service.store.ResultStore` rather than one JSON file per
entry.  The directory layout of PR 2–6 (``v1/<2-hex>/<digest>.json``) was
atomic per entry but unsafe as a *shared* cache: two processes that missed
the same key both executed the job, and the lookup-then-store sequence in
the executor was an unlocked read-modify-write on the cache state.  The
store closes both windows — :meth:`SimulationCache.claim` hands exactly one
process the right to execute a missing key, and store-back is a
first-writer-wins atomic upsert.

The default location honours ``$SSAM_REPRO_CACHE_DIR`` and
``$XDG_CACHE_HOME`` and can be overridden per run (``--cache-dir``) or
disabled entirely (``--no-cache``).
"""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache
from typing import Dict, Mapping, Optional


#: environment variable overriding the default cache directory
CACHE_DIR_ENV = "SSAM_REPRO_CACHE_DIR"
#: filename of the sqlite result store inside the cache directory
STORE_FILENAME = "results.sqlite"


def default_cache_dir() -> str:
    """Default persistent cache location (XDG-style, env-overridable)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "ssam-repro")


def _relative_identity(path: str, root: str) -> str:
    """Path component of a file's digest identity, always ``/``-separated.

    ``os.path.relpath`` yields the native separator, so hashing it verbatim
    would give the same tree a different digest per platform — silently
    splitting (and invalidating) caches shared across machines.  Both
    separators are normalised so the identity is platform-independent.
    """
    rel = os.path.relpath(path, root)
    return rel.replace(os.sep, "/").replace("\\", "/")


def digest_source_tree(root: str) -> str:
    """Digest of every Python source file under ``root`` (path + content).

    Uncached: callers that need memoisation (the per-process
    :func:`code_version`) wrap it themselves, and tests digest throwaway
    trees to check sensitivity to edits, additions and renames.
    """
    hasher = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            hasher.update(_relative_identity(path, root).encode())
            with open(path, "rb") as handle:
                hasher.update(handle.read())
    return hasher.hexdigest()[:16]


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every Python source file under ``src/repro``.

    Any edit to the simulator, kernels or experiment definitions changes
    this digest and therefore invalidates all cached simulations — the
    cache can never serve results from a different code state.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return digest_source_tree(package_root)


class SimulationCache:
    """Content-addressed store of simulation-job payloads.

    ``lookup``/``store`` operate on (key mapping, payload mapping) pairs;
    the key mapping is hashed with :func:`repro.serialization.stable_digest`
    after the code-version digest is folded in.  ``hits``/``misses``/
    ``stores`` counters make cache behaviour observable to tests and to the
    runner's ``--verbose`` summary.

    All instances pointing at one directory share one sqlite database, so
    any number of concurrent processes (sweep workers, the service daemon,
    ad-hoc CLI runs) see a single result set.  :meth:`claim` exposes the
    store's execution leases; the executor uses them to guarantee each
    missing key is computed by exactly one process.
    """

    def __init__(self, directory: Optional[str] = None,
                 claim_ttl: Optional[float] = None) -> None:
        self.directory = directory or default_cache_dir()
        self.claim_ttl = claim_ttl
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._store = None

    # -- backing store -------------------------------------------------------
    @property
    def store_path(self) -> str:
        return os.path.join(self.directory, STORE_FILENAME)

    def result_store(self):
        """The backing :class:`~repro.service.store.ResultStore` (lazy).

        The code-version callable is late-bound through this module so
        tests that monkeypatch :func:`code_version` affect the store too.
        """
        if self._store is None:
            from ..service.store import ResultStore

            kwargs = {}
            if self.claim_ttl is not None:
                kwargs["claim_ttl"] = self.claim_ttl
            self._store = ResultStore(
                self.store_path, code_version=lambda: code_version(), **kwargs)
        return self._store

    def close(self) -> None:
        if self._store is not None:
            self._store.close()

    # -- operations ---------------------------------------------------------
    def lookup(self, key: Mapping[str, object]) -> Optional[Dict[str, object]]:
        """Return the cached payload for ``key`` or ``None`` on a miss."""
        payload = self.result_store().get(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def peek(self, key: Mapping[str, object]) -> Optional[Dict[str, object]]:
        """Like :meth:`lookup` but without touching the hit/miss counters.

        The executor polls with ``peek`` while waiting for another process
        to publish a claimed key, so a wait does not inflate the miss count.
        """
        return self.result_store().get(key)

    def store(self, key: Mapping[str, object],
              payload: Mapping[str, object],
              job_key: Optional[str] = None) -> bool:
        """Persist ``payload`` under ``key`` (atomic).

        Returns ``True`` when this call published the entry, ``False`` when
        a concurrent writer got there first (first writer wins — the racing
        payloads are byte-identical by construction, being pure functions
        of the key).
        """
        won = self.result_store().upsert(key, payload, job_key=job_key)
        self.stores += 1
        return won

    # -- exactly-once execution ----------------------------------------------
    def claim(self, key: Mapping[str, object]) -> bool:
        """Acquire the execution lease for a missing key (see the store)."""
        return self.result_store().claim(key)

    def release_claim(self, key: Mapping[str, object]) -> None:
        self.result_store().release_claim(key)

    # -- maintenance ---------------------------------------------------------
    def entry_count(self) -> int:
        """Number of results currently stored (all code versions)."""
        if self._store is None and not os.path.exists(self.store_path):
            return 0
        return self.result_store().entry_count()

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

"""The shared results database: sqlite/WAL, safe under concurrent writers.

The PR-2 directory cache memoised one JSON file per simulation payload.
That layout is atomic per entry but gives no cross-process coordination:
two processes that miss the same key both execute the job, and there is no
way to ask "what do we already know?" without walking the tree.  The
:class:`ResultStore` replaces it with one sqlite database in WAL mode —
many concurrent readers, serialised short write transactions — holding

* **results** — typed payloads addressed by the same 40-hex job-key digest
  the directory cache used (``stable_digest({"code_version", **key})``),
  with the code-version digest also stored as a queryable column so stale
  generations can be found without recomputing keys;
* **claims** — short-lived execution leases that make "exactly one process
  executes each missing job" enforceable (:meth:`claim` /
  :meth:`ResultStore.upsert`); a claim left behind by a killed process
  expires after ``claim_ttl`` seconds and can be taken over;
* **runs** / **run_cells** — checkpointed service runs (sweep/tune
  submissions): the matrix, priority and per-cell status survive a daemon
  restart, so a killed sweep resumes from its completed cells;
* **tuned_configs** (schema v2, space-keyed since v3) — the autotuner's
  winning launch configuration per (scenario, architecture, precision,
  size-class, code-version, design-space) cell, consulted by the planners'
  default-resolution chain (:mod:`repro.core.launch_defaults`) and served
  by the daemon's ``best_config`` endpoint.  The explored design space is
  part of the key, so a ``--quick`` (reduced-space) tune run writes its
  own row instead of clobbering a full-space recommendation; lookups
  serve the best row of a cell (lowest predicted time, larger space and
  freshest write breaking ties).  Within one key, rows are
  last-writer-wins: a re-run of the tuner refreshes the recommendation;
* **analysis_reports** (schema v4) — cached static-verification reports
  per (scenario, architecture, precision, size, code-version) cell,
  written by the analyze experiment and served by the daemon's
  ``/analysis/<scenario>`` endpoint (last-writer-wins, like tuned rows).

Writes are first-writer-wins: :meth:`upsert` inserts with ``ON CONFLICT DO
NOTHING`` inside one transaction, closing the read-modify-write window the
directory cache's lookup-then-store sequence left open (two racing writers
now produce exactly one canonical row, and each learns whether it won).

The schema carries a version number in the ``meta`` table; opening a store
written by a newer build fails loudly, and older on-disk versions upgrade
through :data:`MIGRATIONS`.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from ..errors import ConfigurationError
from ..serialization import canonical_json, jsonify, stable_digest

#: current on-disk schema version (``meta`` table, key ``schema_version``)
STORE_SCHEMA_VERSION = 4
#: seconds a statement waits for another connection's lock before the
#: store reports itself locked
BUSY_TIMEOUT_S = 30.0

#: length of the hex job-key digest
DIGEST_LENGTH = 40

#: seconds after which an execution claim from a dead process may be
#: taken over by another worker
DEFAULT_CLAIM_TTL = 300.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    digest       TEXT PRIMARY KEY,
    job_key      TEXT,
    code_version TEXT NOT NULL,
    key_json     TEXT NOT NULL,
    payload_json TEXT NOT NULL,
    writer       TEXT NOT NULL,
    created_at   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS results_job_key ON results(job_key);
CREATE INDEX IF NOT EXISTS results_code_version ON results(code_version);
CREATE TABLE IF NOT EXISTS claims (
    digest      TEXT PRIMARY KEY,
    owner       TEXT NOT NULL,
    acquired_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id       TEXT PRIMARY KEY,
    kind         TEXT NOT NULL,
    name         TEXT,
    matrix_json  TEXT NOT NULL,
    priority     INTEGER NOT NULL DEFAULT 0,
    status       TEXT NOT NULL,
    code_version TEXT NOT NULL,
    total        INTEGER NOT NULL,
    submitted_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS run_cells (
    run_id TEXT NOT NULL,
    cell   TEXT NOT NULL,
    digest TEXT NOT NULL,
    status TEXT NOT NULL,
    detail TEXT,
    PRIMARY KEY (run_id, cell)
);
"""

#: schema v2 (space-keyed since v3): the tuning database — column names are
#: a read contract with :mod:`repro.core.launch_defaults`, which queries
#: this table read-only
_TUNED_CONFIGS_SCHEMA = """
CREATE TABLE IF NOT EXISTS tuned_configs (
    scenario         TEXT NOT NULL,
    architecture     TEXT NOT NULL,
    precision        TEXT NOT NULL,
    size_class       TEXT NOT NULL,
    code_version     TEXT NOT NULL,
    space_digest     TEXT NOT NULL DEFAULT '',
    space            TEXT,
    space_size       INTEGER NOT NULL DEFAULT 0,
    plan_kwargs      TEXT NOT NULL,
    model_ms         REAL,
    default_model_ms REAL,
    speedup          REAL,
    search           TEXT,
    confirmed        INTEGER,
    tune_digest      TEXT,
    created_at       REAL NOT NULL,
    PRIMARY KEY (scenario, architecture, precision, size_class, code_version,
                 space_digest)
);
"""

#: schema v4: cached static-verification reports per registry cell —
#: written by the analyze experiment / daemon and served by the
#: ``/analysis/<scenario>`` endpoint without re-running the verifier
_ANALYSIS_SCHEMA = """
CREATE TABLE IF NOT EXISTS analysis_reports (
    scenario      TEXT NOT NULL,
    architecture  TEXT NOT NULL,
    precision     TEXT NOT NULL,
    size          TEXT NOT NULL,
    code_version  TEXT NOT NULL,
    ok            INTEGER NOT NULL,
    findings      INTEGER NOT NULL,
    analysis_json TEXT NOT NULL,
    created_at    REAL NOT NULL,
    PRIMARY KEY (scenario, architecture, precision, size, code_version)
);
"""

_SCHEMA += _TUNED_CONFIGS_SCHEMA
_SCHEMA += _ANALYSIS_SCHEMA

#: the non-key payload columns shared by the v3 table and its v2 ancestor,
#: copied verbatim by the rebuild migration
_TUNED_V2_COLUMNS = ("scenario, architecture, precision, size_class,"
                     " code_version, plan_kwargs, model_ms, default_model_ms,"
                     " speedup, search, confirmed, tune_digest, created_at")


def _migrate_v1_to_v2(conn: sqlite3.Connection) -> None:
    """v1 -> v2: add the ``tuned_configs`` table (idempotent DDL).

    Creates the table in its *current* (v3) shape; the follow-up v2 -> v3
    step detects the space columns and becomes a no-op.
    """
    conn.executescript(_TUNED_CONFIGS_SCHEMA)


def _migrate_v2_to_v3(conn: sqlite3.Connection) -> None:
    """v2 -> v3: key ``tuned_configs`` by explored design space.

    SQLite cannot alter a primary key in place, so the table is rebuilt
    and v2 rows are carried over under the empty space digest (space
    unknown, ``space_size`` 0) — they stay servable but rank below any row
    that records the space it explored.
    """
    columns = {row[1] for row in
               conn.execute("PRAGMA table_info(tuned_configs)")}
    if "space_digest" in columns:
        return
    conn.execute("ALTER TABLE tuned_configs RENAME TO tuned_configs_v2")
    conn.executescript(_TUNED_CONFIGS_SCHEMA)
    conn.execute(f"INSERT INTO tuned_configs({_TUNED_V2_COLUMNS})"
                 f" SELECT {_TUNED_V2_COLUMNS} FROM tuned_configs_v2")
    conn.execute("DROP TABLE tuned_configs_v2")


def _migrate_v3_to_v4(conn: sqlite3.Connection) -> None:
    """v3 -> v4: add the ``analysis_reports`` table (idempotent DDL)."""
    conn.executescript(_ANALYSIS_SCHEMA)


#: in-place schema upgrades, ``{from_version: migrate(connection)}``; each
#: entry upgrades one version step and the opener applies them in sequence
MIGRATIONS: Dict[int, Callable[[sqlite3.Connection], None]] = {
    1: _migrate_v1_to_v2,
    2: _migrate_v2_to_v3,
    3: _migrate_v3_to_v4,
}


def _encode(value: object) -> str:
    """JSON encoding that preserves insertion order.

    Payloads must round-trip through the store byte-identically to a fresh
    computation (warm artifacts are compared against cold ones), so keys
    are *not* sorted here — digests use :func:`canonical_json` instead.
    """
    return json.dumps(jsonify(value), separators=(",", ":"), allow_nan=True)


def _default_code_version() -> str:
    # imported lazily: experiments.cache imports this module at load time
    from ..experiments import cache as cache_mod

    return cache_mod.code_version()


def _lock_checked(name: str, retry: bool = False):
    """``sqlite3.Connection.<name>`` turning a lock that outlasts the busy
    timeout into a :class:`ConfigurationError` naming the store and the
    measured wait.

    sqlite waits out another connection's lock in its busy handler, except
    where a statement that already reads must then write: it reports the
    lock at once.  Switching a new file to WAL is such a statement.  With
    ``retry``, a statement outside any transaction that failed that way
    rolled back whole, so it runs again until the busy timeout is spent.
    """
    method = getattr(sqlite3.Connection, name)

    def checked(conn: "_StoreConnection", *args):
        start = time.monotonic()
        delay = 0.001
        while True:
            outside = not conn.in_transaction
            try:
                return method(conn, *args)
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc):
                    raise
                waited = time.monotonic() - start
                if (retry and outside and not conn.in_transaction
                        and waited + delay < conn.busy_timeout_s):
                    time.sleep(delay)
                    delay = min(2 * delay, 0.1)
                    continue
                raise ConfigurationError(
                    f"result store {conn.path!r} stayed locked by another "
                    f"connection for {waited:.1f} s (busy timeout "
                    f"{conn.busy_timeout_s:g} s; {exc}); retry once the "
                    f"other writer finishes") from None
    return checked


class _StoreConnection(sqlite3.Connection):
    """A store connection: every statement's lock timeout is one
    :class:`ConfigurationError`."""

    path: str
    busy_timeout_s: float
    execute = _lock_checked("execute", retry=True)
    executemany = _lock_checked("executemany")
    executescript = _lock_checked("executescript")
    commit = _lock_checked("commit")


class ResultStore:
    """Job-key-addressed typed results in one sqlite/WAL database.

    Parameters
    ----------
    path:
        The sqlite database file; parent directories are created.
    claim_ttl:
        Seconds before an execution claim is considered abandoned.
    code_version:
        Zero-argument callable returning the current code digest; folded
        into every key digest (late-bound so tests can monkeypatch the
        cache module's ``code_version``).
    """

    def __init__(self, path: str, claim_ttl: float = DEFAULT_CLAIM_TTL,
                 code_version: Optional[Callable[[], str]] = None) -> None:
        self.path = os.path.abspath(path)
        self.claim_ttl = float(claim_ttl)
        self._code_version = code_version or _default_code_version
        self._local = threading.local()
        self._init_lock = threading.Lock()
        self._initialised = False
        self.owner = f"{os.uname().nodename}:{os.getpid()}"

    # -- connections ---------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_S,
                               factory=_StoreConnection)
        conn.path = self.path
        conn.busy_timeout_s = BUSY_TIMEOUT_S
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
        return conn

    def _conn(self) -> sqlite3.Connection:
        """The calling thread's connection (sqlite handles are not shared).

        A file that is not a sqlite database, or a truncated one, raises a
        :class:`ConfigurationError` naming the path.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            try:
                conn = self._connect()
                with self._init_lock:
                    if not self._initialised:
                        self._ensure_schema(conn)
                        self._initialised = True
            except sqlite3.DatabaseError as exc:
                if type(exc) is not sqlite3.DatabaseError:
                    raise  # locked, busy or a constraint: not damage
                raise ConfigurationError(
                    f"result store {self.path!r} is not a usable sqlite "
                    f"database ({exc}); move it aside to start a new "
                    f"store") from None
            self._local.conn = conn
        return conn

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        conn.executescript(_SCHEMA)
        row = conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'").fetchone()
        if row is None:
            conn.execute(
                "INSERT OR IGNORE INTO meta(key, value) VALUES(?, ?)",
                ("schema_version", str(STORE_SCHEMA_VERSION)))
            conn.commit()
            return
        version = int(row["value"])
        if version > STORE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"result store {self.path!r} has schema version {version}, "
                f"newer than this build's {STORE_SCHEMA_VERSION}; refusing "
                f"to open it")
        while version < STORE_SCHEMA_VERSION:
            migrate = MIGRATIONS.get(version)
            if migrate is None:
                raise ConfigurationError(
                    f"no migration from store schema version {version}")
            migrate(conn)
            version += 1
            conn.execute("UPDATE meta SET value=? WHERE key='schema_version'",
                         (str(version),))
            conn.commit()

    def close(self) -> None:
        """Close the calling thread's connection (other threads unaffected)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def schema_version(self) -> int:
        row = self._conn().execute(
            "SELECT value FROM meta WHERE key='schema_version'").fetchone()
        return int(row["value"])

    # -- keys ----------------------------------------------------------------
    def code_version(self) -> str:
        return self._code_version()

    def digest_for(self, key: Mapping[str, object]) -> str:
        """The 40-hex identity of a job key under the current code digest."""
        return stable_digest({"code_version": self.code_version(), **key},
                             length=DIGEST_LENGTH)

    # -- results -------------------------------------------------------------
    def get(self, key: Mapping[str, object]) -> Optional[Dict[str, object]]:
        """The stored payload for ``key`` under the current code version."""
        return self.get_by_digest(self.digest_for(key))

    def get_by_digest(self, digest: str) -> Optional[Dict[str, object]]:
        row = self._conn().execute(
            "SELECT payload_json FROM results WHERE digest=?",
            (digest,)).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row["payload_json"])
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def upsert(self, key: Mapping[str, object],
               payload: Mapping[str, object],
               job_key: Optional[str] = None) -> bool:
        """Atomically publish ``payload`` under ``key``; first writer wins.

        Returns ``True`` when this call inserted the row.  A concurrent
        writer that lost the race leaves the existing row untouched and
        gets ``False`` — the read-modify-write window of the directory
        cache's lookup-then-store sequence cannot reappear, because the
        decision happens inside one sqlite transaction.  The writer's
        execution claim (if any) is released in the same transaction.
        """
        digest = self.digest_for(key)
        conn = self._conn()
        with conn:
            cursor = conn.execute(
                "INSERT INTO results(digest, job_key, code_version, key_json,"
                " payload_json, writer, created_at) VALUES(?,?,?,?,?,?,?)"
                " ON CONFLICT(digest) DO NOTHING",
                (digest, job_key, self.code_version(), _encode(key),
                 _encode(payload), self.owner, time.time()))
            conn.execute("DELETE FROM claims WHERE digest=?", (digest,))
        return cursor.rowcount == 1

    def entry_count(self) -> int:
        row = self._conn().execute("SELECT COUNT(*) AS n FROM results").fetchone()
        return int(row["n"])

    def dump(self) -> List[Dict[str, object]]:
        """Every stored result, digest-ordered, without volatile columns.

        The concurrency tests compare the dump of an 8-writer run against
        a serial run — writer identity and timestamps are excluded exactly
        because they are the only columns allowed to differ.
        """
        rows = self._conn().execute(
            "SELECT digest, job_key, code_version, key_json, payload_json "
            "FROM results ORDER BY digest").fetchall()
        return [{"digest": r["digest"], "job_key": r["job_key"],
                 "code_version": r["code_version"],
                 "key": json.loads(r["key_json"]),
                 "payload": json.loads(r["payload_json"])} for r in rows]

    def job_key_versions(self, job_key: str) -> List[str]:
        """Code versions a job key has stored results under (refresh query)."""
        rows = self._conn().execute(
            "SELECT DISTINCT code_version FROM results WHERE job_key=?"
            " ORDER BY code_version", (job_key,)).fetchall()
        return [r["code_version"] for r in rows]

    def stale_entry_count(self) -> int:
        """Entries stored under a code version other than the current one."""
        row = self._conn().execute(
            "SELECT COUNT(*) AS n FROM results WHERE code_version<>?",
            (self.code_version(),)).fetchone()
        return int(row["n"])

    # -- tuned configurations (the tuning database) ---------------------------
    def put_tuned_config(self, scenario: str, architecture: str,
                         precision: str, size_class: str,
                         plan_kwargs: Mapping[str, int],
                         model_ms: Optional[float] = None,
                         default_model_ms: Optional[float] = None,
                         speedup: Optional[float] = None,
                         search: Optional[str] = None,
                         confirmed: Optional[bool] = None,
                         tune_digest: Optional[str] = None,
                         code_version: Optional[str] = None,
                         space: Optional[Mapping[str, object]] = None) -> None:
        """Upsert one cell's tuned configuration (last writer wins per key).

        ``space`` is the explored design space (the grid's ``describe()``
        mapping) and is part of the row key: a quick/reduced-space run and
        a full-space run keep separate rows, so the former can never
        overwrite — and silently degrade — the latter.  Within one key,
        unlike simulation payloads — pure functions of their key, where
        the first writer is canonical — a tuned row is a *recommendation*
        refreshed by every tuner run, so conflicts update in place.
        """
        if space is None:
            space_json, space_digest, space_size = None, "", 0
        else:
            described = {str(k): list(v) for k, v in dict(space).items()}
            space_json = canonical_json(described)
            space_digest = stable_digest(described)
            space_size = 1
            for values in described.values():
                space_size *= max(1, len(values))
        conn = self._conn()
        with conn:
            conn.execute(
                "INSERT INTO tuned_configs(scenario, architecture, precision,"
                " size_class, code_version, space_digest, space, space_size,"
                " plan_kwargs, model_ms,"
                " default_model_ms, speedup, search, confirmed, tune_digest,"
                " created_at) VALUES(?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)"
                " ON CONFLICT(scenario, architecture, precision, size_class,"
                " code_version, space_digest)"
                " DO UPDATE SET plan_kwargs=excluded.plan_kwargs,"
                " space=excluded.space, space_size=excluded.space_size,"
                " model_ms=excluded.model_ms,"
                " default_model_ms=excluded.default_model_ms,"
                " speedup=excluded.speedup, search=excluded.search,"
                " confirmed=excluded.confirmed,"
                " tune_digest=excluded.tune_digest,"
                " created_at=excluded.created_at",
                (scenario, architecture, precision, size_class,
                 code_version or self.code_version(),
                 space_digest, space_json, space_size,
                 canonical_json({str(k): int(v)
                                 for k, v in dict(plan_kwargs).items()}),
                 model_ms, default_model_ms, speedup, search,
                 None if confirmed is None else int(bool(confirmed)),
                 tune_digest, time.time()))

    @staticmethod
    def _tuned_row_to_dict(row: sqlite3.Row) -> Dict[str, object]:
        record = dict(row)
        record["plan_kwargs"] = {str(k): int(v) for k, v in
                                 json.loads(record["plan_kwargs"]).items()}
        if record.get("confirmed") is not None:
            record["confirmed"] = bool(record["confirmed"])
        if record.get("space") is not None:
            record["space"] = json.loads(record["space"])
        return record

    def best_config(self, scenario: str, architecture: str, precision: str,
                    size_class: str = "paper",
                    code_version: Optional[str] = None,
                    ) -> Optional[Dict[str, object]]:
        """The tuned configuration of one cell under one code version.

        ``None`` when the cell was never tuned at this (or the current)
        code version — the caller falls back to the paper defaults, exactly
        like the planners' resolution chain.  A cell tuned over several
        design spaces answers with its best row (lowest predicted time,
        larger space and freshest write breaking ties), so a quick re-run
        never shadows a full-space recommendation.
        """
        row = self._conn().execute(
            "SELECT scenario, architecture, precision, size_class,"
            " code_version, space_digest, space, space_size,"
            " plan_kwargs, model_ms, default_model_ms, speedup,"
            " search, confirmed, tune_digest, created_at FROM tuned_configs"
            " WHERE scenario=? AND architecture=? AND precision=?"
            " AND size_class=? AND code_version=?"
            " ORDER BY (model_ms IS NULL), model_ms, space_size DESC,"
            " created_at DESC, space_digest LIMIT 1",
            (scenario, architecture, precision, size_class,
             code_version or self.code_version())).fetchone()
        if row is None:
            return None
        try:
            return self._tuned_row_to_dict(row)
        except (ValueError, TypeError, AttributeError):
            return None

    def list_tuned_configs(self, current_only: bool = False,
                           ) -> List[Dict[str, object]]:
        """Every tuned row, key-ordered; optionally current code version only."""
        query = ("SELECT scenario, architecture, precision, size_class,"
                 " code_version, space_digest, space, space_size,"
                 " plan_kwargs, model_ms, default_model_ms,"
                 " speedup, search, confirmed, tune_digest, created_at"
                 " FROM tuned_configs")
        params: List[object] = []
        if current_only:
            query += " WHERE code_version=?"
            params.append(self.code_version())
        query += (" ORDER BY scenario, architecture, precision, size_class,"
                  " space_digest")
        rows = self._conn().execute(query, params).fetchall()
        out = []
        for row in rows:
            try:
                out.append(self._tuned_row_to_dict(row))
            except (ValueError, TypeError, AttributeError):
                continue
        return out

    def tuned_config_count(self) -> int:
        row = self._conn().execute(
            "SELECT COUNT(*) AS n FROM tuned_configs").fetchone()
        return int(row["n"])

    # -- static-verification reports ------------------------------------------
    def put_analysis_report(self, analysis: Mapping[str, object],
                            code_version: Optional[str] = None) -> None:
        """Cache one scenario's verification outcome (last writer wins).

        ``analysis`` is a :meth:`ScenarioAnalysis.to_dict` mapping; like a
        tuned row it is a refreshable derivative of the code version, not a
        canonical simulation payload, so conflicts update in place.
        """
        conn = self._conn()
        with conn:
            conn.execute(
                "INSERT INTO analysis_reports(scenario, architecture,"
                " precision, size, code_version, ok, findings,"
                " analysis_json, created_at) VALUES(?,?,?,?,?,?,?,?,?)"
                " ON CONFLICT(scenario, architecture, precision, size,"
                " code_version) DO UPDATE SET ok=excluded.ok,"
                " findings=excluded.findings,"
                " analysis_json=excluded.analysis_json,"
                " created_at=excluded.created_at",
                (analysis["scenario"], analysis["architecture"],
                 analysis["precision"], analysis["size"],
                 code_version or self.code_version(),
                 int(bool(analysis.get("ok"))),
                 sum(len(report.get("findings", []))
                     for report in analysis.get("reports", []))
                 + len(analysis.get("fallbacks", [])),
                 _encode(analysis), time.time()))

    def get_analysis_report(self, scenario: str, architecture: str,
                            precision: str = "float32",
                            size: Optional[str] = None,
                            code_version: Optional[str] = None,
                            ) -> Optional[Dict[str, object]]:
        """One cached verification report, freshest matching row.

        ``None`` when the cell was never analyzed at this (or the current)
        code version — the caller recomputes.  Without ``size`` the most
        recently analyzed size answers.
        """
        query = ("SELECT analysis_json FROM analysis_reports"
                 " WHERE scenario=? AND architecture=? AND precision=?"
                 " AND code_version=?")
        params: List[object] = [scenario, architecture, precision,
                                code_version or self.code_version()]
        if size is not None:
            query += " AND size=?"
            params.append(size)
        row = self._conn().execute(
            query + " ORDER BY created_at DESC, size LIMIT 1",
            params).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row["analysis_json"])
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def list_analysis_reports(self, current_only: bool = False,
                              ) -> List[Dict[str, object]]:
        """Summary rows of every cached report, key-ordered."""
        query = ("SELECT scenario, architecture, precision, size,"
                 " code_version, ok, findings, created_at"
                 " FROM analysis_reports")
        params: List[object] = []
        if current_only:
            query += " WHERE code_version=?"
            params.append(self.code_version())
        query += " ORDER BY scenario, architecture, precision, size"
        rows = self._conn().execute(query, params).fetchall()
        out = []
        for row in rows:
            record = dict(row)
            record["ok"] = bool(record["ok"])
            out.append(record)
        return out

    # -- claims (exactly-once execution) --------------------------------------
    def claim(self, key: Mapping[str, object],
              owner: Optional[str] = None) -> bool:
        """Try to acquire the execution lease for ``key``.

        ``True`` means the caller must execute the job and publish the
        payload with :meth:`upsert` (which releases the lease).  ``False``
        means the result already exists or another live process holds the
        lease — the caller should wait for the result to appear.  Leases
        older than ``claim_ttl`` (their owner died) are taken over.
        """
        digest = self.digest_for(key)
        owner = owner or self.owner
        now = time.time()
        conn = self._conn()
        # the result-existence guard rides inside each write statement:
        # a plain SELECT-then-INSERT would run the SELECT in autocommit
        # (python's sqlite3 only opens the transaction at the first write),
        # leaving a window where a concurrent upsert publishes the result
        # and releases its claim between our check and our insert — this
        # process would then claim, and re-execute, a finished job
        with conn:
            cursor = conn.execute(
                "INSERT INTO claims(digest, owner, acquired_at)"
                " SELECT ?, ?, ? WHERE NOT EXISTS"
                " (SELECT 1 FROM results WHERE digest=?)"
                " ON CONFLICT(digest) DO NOTHING",
                (digest, owner, now, digest))
            if cursor.rowcount == 1:
                return True
            cursor = conn.execute(
                "UPDATE claims SET owner=?, acquired_at=?"
                " WHERE digest=? AND acquired_at<? AND NOT EXISTS"
                " (SELECT 1 FROM results WHERE digest=?)",
                (owner, now, digest, now - self.claim_ttl, digest))
            return cursor.rowcount == 1

    def release_claim(self, key: Mapping[str, object],
                      owner: Optional[str] = None) -> None:
        """Drop an execution lease without publishing (worker failed)."""
        conn = self._conn()
        with conn:
            conn.execute("DELETE FROM claims WHERE digest=? AND owner=?",
                         (self.digest_for(key), owner or self.owner))

    def reap_dead_claims(self) -> int:
        """Release claims whose owning process on this host no longer exists.

        Claim owners are recorded as ``host:pid``; a SIGKILLed worker
        cannot release its leases, and without reaping, waiters would sit
        out the full ``claim_ttl`` before taking over.  Owners on other
        hosts are left to the TTL (their liveness is unknowable here).
        Returns the number of leases released.
        """
        node = os.uname().nodename
        conn = self._conn()
        rows = conn.execute("SELECT digest, owner FROM claims").fetchall()
        reaped = 0
        for row in rows:
            host, _, pid_text = row["owner"].rpartition(":")
            if host != node or not pid_text.isdigit():
                continue
            try:
                os.kill(int(pid_text), 0)
                continue  # alive (or at least present)
            except ProcessLookupError:
                pass
            except OSError:
                continue  # exists but not ours to signal
            with conn:
                cursor = conn.execute(
                    "DELETE FROM claims WHERE digest=? AND owner=?",
                    (row["digest"], row["owner"]))
            reaped += cursor.rowcount
        return reaped

    def claim_count(self) -> int:
        row = self._conn().execute("SELECT COUNT(*) AS n FROM claims").fetchone()
        return int(row["n"])

    # -- runs (checkpointed service submissions) ------------------------------
    def next_run_ordinal(self) -> int:
        row = self._conn().execute("SELECT COUNT(*) AS n FROM runs").fetchone()
        return int(row["n"]) + 1

    def create_run(self, run_id: str, kind: str, matrix: Mapping[str, object],
                   cells: Mapping[str, str], priority: int = 0,
                   name: Optional[str] = None,
                   cell_status: Optional[Mapping[str, str]] = None) -> None:
        """Checkpoint a new run and its per-cell ledger in one transaction."""
        conn = self._conn()
        statuses = cell_status or {}
        with conn:
            conn.execute(
                "INSERT INTO runs(run_id, kind, name, matrix_json, priority,"
                " status, code_version, total, submitted_at)"
                " VALUES(?,?,?,?,?,?,?,?,?)",
                (run_id, kind, name, canonical_json(matrix), int(priority),
                 "queued", self.code_version(), len(cells), time.time()))
            conn.executemany(
                "INSERT INTO run_cells(run_id, cell, digest, status)"
                " VALUES(?,?,?,?)",
                [(run_id, cell, digest, statuses.get(cell, "pending"))
                 for cell, digest in cells.items()])

    def add_run_cells(self, run_id: str, cells: Mapping[str, str],
                      status: str = "pending") -> None:
        """Append cells to an existing run's ledger (tune stages register
        their design points as they are generated).  Idempotent per cell —
        a resumed tune run re-registers the same cells harmlessly — and the
        run's ``total`` tracks the ledger size."""
        conn = self._conn()
        with conn:
            conn.executemany(
                "INSERT INTO run_cells(run_id, cell, digest, status)"
                " VALUES(?,?,?,?) ON CONFLICT(run_id, cell) DO NOTHING",
                [(run_id, cell, digest, status)
                 for cell, digest in cells.items()])
            conn.execute(
                "UPDATE runs SET total=(SELECT COUNT(*) FROM run_cells"
                " WHERE run_id=?) WHERE run_id=?", (run_id, run_id))

    def run_record(self, run_id: str) -> Dict[str, object]:
        row = self._conn().execute(
            "SELECT * FROM runs WHERE run_id=?", (run_id,)).fetchone()
        if row is None:
            raise ConfigurationError(f"unknown run {run_id!r}")
        record = dict(row)
        record["matrix"] = json.loads(record.pop("matrix_json"))
        return record

    def list_runs(self, status: Optional[Iterable[str]] = None
                  ) -> List[Dict[str, object]]:
        rows = self._conn().execute(
            "SELECT run_id, kind, name, priority, status, total,"
            " submitted_at, code_version FROM runs"
            " ORDER BY submitted_at, run_id").fetchall()
        records = [dict(r) for r in rows]
        if status is not None:
            wanted = set(status)
            records = [r for r in records if r["status"] in wanted]
        return records

    def set_run_status(self, run_id: str, status: str) -> None:
        conn = self._conn()
        with conn:
            conn.execute("UPDATE runs SET status=? WHERE run_id=?",
                         (status, run_id))

    def set_cell_status(self, run_id: str, cell: str, status: str,
                        detail: Optional[str] = None) -> None:
        conn = self._conn()
        with conn:
            conn.execute(
                "UPDATE run_cells SET status=?, detail=?"
                " WHERE run_id=? AND cell=?", (status, detail, run_id, cell))

    def run_cells(self, run_id: str,
                  status: Optional[str] = None) -> List[Dict[str, object]]:
        query = ("SELECT cell, digest, status, detail FROM run_cells"
                 " WHERE run_id=?")
        params: List[object] = [run_id]
        if status is not None:
            query += " AND status=?"
            params.append(status)
        rows = self._conn().execute(query + " ORDER BY cell", params).fetchall()
        return [dict(r) for r in rows]

    def run_progress(self, run_id: str) -> Dict[str, int]:
        """Per-status cell counts of one run (the status endpoint's body)."""
        rows = self._conn().execute(
            "SELECT status, COUNT(*) AS n FROM run_cells WHERE run_id=?"
            " GROUP BY status", (run_id,)).fetchall()
        counts = {r["status"]: int(r["n"]) for r in rows}
        counts["total"] = sum(counts.values())
        return counts

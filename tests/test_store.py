"""Unit tests for the shared result store (sqlite/WAL database).

Covers the store's contracts one at a time: schema versioning, the
first-writer-wins upsert (the fix for the directory cache's
read-modify-write race), execution claims with TTL takeover, the
checkpointed run ledger, and legacy directory-tree migration.  The
multi-process behaviour is exercised separately in
``test_store_concurrency.py`` and ``test_crash_recovery.py``.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cache import SimulationCache
from repro.service import store as store_mod
from repro.service.store import (
    DEFAULT_CLAIM_TTL,
    STORE_SCHEMA_VERSION,
    ResultStore,
)


@pytest.fixture
def store(tmp_path):
    st = ResultStore(str(tmp_path / "results.sqlite"),
                     code_version=lambda: "cv0")
    yield st
    st.close()


KEY_A = {"func": "worker", "params": {"x": 1}}
KEY_B = {"func": "worker", "params": {"x": 2}}


# ---------------------------------------------------------------- schema

def test_schema_version_is_stamped_on_creation(store):
    assert store.schema_version() == STORE_SCHEMA_VERSION


def test_newer_schema_versions_are_rejected(store, tmp_path):
    store.upsert(KEY_A, {"v": 1})
    store.close()
    with sqlite3.connect(str(tmp_path / "results.sqlite")) as conn:
        conn.execute("UPDATE meta SET value=? WHERE key='schema_version'",
                     (str(STORE_SCHEMA_VERSION + 1),))
    newer = ResultStore(str(tmp_path / "results.sqlite"))
    with pytest.raises(ConfigurationError, match="newer than this build"):
        newer.entry_count()


def test_unknown_older_schema_version_fails_loudly(store, tmp_path):
    store.upsert(KEY_A, {"v": 1})
    store.close()
    with sqlite3.connect(str(tmp_path / "results.sqlite")) as conn:
        conn.execute("UPDATE meta SET value='0' WHERE key='schema_version'")
    older = ResultStore(str(tmp_path / "results.sqlite"))
    with pytest.raises(ConfigurationError, match="no migration"):
        older.entry_count()


# ---------------------------------------------------------- damaged files

def _damaged_copy(store, tmp_path, damage):
    """A garbage file, or the first half of a populated store's file."""
    damaged = tmp_path / f"{damage}.sqlite"
    if damage == "garbage":
        damaged.write_bytes(b"not a database " * 256)
        return damaged
    for x in range(200):
        store.upsert({"func": "worker", "params": {"x": x}},
                     {"v": "p" * 1000})
    store.close()  # the last close checkpoints the WAL into the file
    data = (tmp_path / "results.sqlite").read_bytes()
    damaged.write_bytes(data[:len(data) // 2])
    return damaged


@pytest.mark.parametrize("damage", ["garbage", "truncated"])
def test_damaged_store_file_is_a_configuration_error(store, tmp_path,
                                                     damage):
    path = _damaged_copy(store, tmp_path, damage)
    damaged = ResultStore(str(path))
    with pytest.raises(ConfigurationError) as excinfo:
        damaged.entry_count()
    assert repr(str(path)) in str(excinfo.value)
    assert "not a usable sqlite database" in str(excinfo.value)


# ----------------------------------------------------------- locked files

def test_locked_store_is_a_configuration_error(store, monkeypatch):
    """A write that waits out the busy timeout on another connection's
    exclusive lock fails with one message naming the store and the wait;
    reads go on (WAL readers are not blocked) and writes resume once the
    lock is gone."""
    store.upsert(KEY_A, {"v": 1})
    store.close()
    monkeypatch.setattr(store_mod, "BUSY_TIMEOUT_S", 0.2)
    holder = sqlite3.connect(store.path, isolation_level=None)
    holder.execute("BEGIN EXCLUSIVE")
    locked = ResultStore(store.path, code_version=lambda: "cv0")
    try:
        assert locked.get(KEY_A) == {"v": 1}
        for write in (lambda: locked.upsert(KEY_B, {"v": 2}),
                      lambda: locked.claim(KEY_B)):
            with pytest.raises(ConfigurationError) as excinfo:
                write()
            message = str(excinfo.value)
            assert repr(store.path) in message
            assert "locked by another connection for 0.2 s" in message
    finally:
        holder.execute("ROLLBACK")
        holder.close()
    assert locked.upsert(KEY_B, {"v": 2}) is True
    locked.close()


def test_new_store_switches_to_wal_while_another_connection_writes(
        tmp_path):
    """Regression: switching a new file to WAL reads its header and then
    writes it within one statement, and sqlite reports a writer that holds
    the file meanwhile at once instead of waiting.  Two processes opening
    one new store hit this; the open now waits within the busy timeout."""
    path = str(tmp_path / "results.sqlite")
    holder = sqlite3.connect(path, isolation_level=None,
                             check_same_thread=False)
    holder.execute("CREATE TABLE other(x)")  # a rollback-journal file
    holder.execute("BEGIN IMMEDIATE")
    holder.execute("INSERT INTO other VALUES(1)")
    release = threading.Timer(0.3, lambda: holder.execute("COMMIT"))
    release.start()
    opened = ResultStore(path, code_version=lambda: "cv0")
    try:
        start = time.monotonic()
        assert opened.schema_version() == STORE_SCHEMA_VERSION
        assert time.monotonic() - start >= 0.25  # it waited for the writer
    finally:
        release.join()
        holder.close()
        opened.close()


def test_stale_snapshot_lock_reports_the_wait_that_happened(store):
    """A transaction that read an older WAL snapshot cannot write: sqlite
    reports the lock at once, without waiting.  The error gives the wait
    that actually happened, not the busy timeout."""
    store.upsert(KEY_A, {"v": 1})
    conn = store._conn()
    conn.execute("BEGIN")
    conn.execute("SELECT COUNT(*) FROM results").fetchone()
    other = ResultStore(store.path, code_version=lambda: "cv0")
    assert other.upsert(KEY_B, {"v": 2}) is True  # past the snapshot
    other.close()
    start = time.monotonic()
    with pytest.raises(ConfigurationError) as excinfo:
        conn.execute("INSERT INTO meta(key, value) VALUES('stale', '1')")
    assert time.monotonic() - start < 1.0
    conn.execute("ROLLBACK")
    message = str(excinfo.value)
    assert repr(store.path) in message
    assert "locked by another connection for 0.0 s" in message
    assert f"busy timeout {store_mod.BUSY_TIMEOUT_S:g} s" in message


# ------------------------------------------------------ first-writer-wins

def test_upsert_is_first_writer_wins(store):
    assert store.upsert(KEY_A, {"v": "first"}) is True
    assert store.upsert(KEY_A, {"v": "second"}) is False
    assert store.get(KEY_A) == {"v": "first"}
    assert store.entry_count() == 1


def test_distinct_keys_do_not_collide(store):
    store.upsert(KEY_A, {"v": 1})
    store.upsert(KEY_B, {"v": 2})
    assert store.entry_count() == 2
    assert store.get(KEY_A) == {"v": 1}
    assert store.get(KEY_B) == {"v": 2}


def test_code_version_changes_the_digest(tmp_path):
    version = ["cv0"]
    store = ResultStore(str(tmp_path / "s.sqlite"),
                        code_version=lambda: version[0])
    store.upsert(KEY_A, {"v": "old"})
    version[0] = "cv1"
    assert store.get(KEY_A) is None, "new code version must miss"
    store.upsert(KEY_A, {"v": "new"})
    assert store.get(KEY_A) == {"v": "new"}
    assert store.entry_count() == 2
    assert store.stale_entry_count() == 1
    store.close()


def test_dump_excludes_volatile_columns(store):
    store.upsert(KEY_A, {"v": 1}, job_key="job:a")
    dump = store.dump()
    assert len(dump) == 1
    assert set(dump[0]) == {"digest", "job_key", "code_version", "key",
                            "payload"}
    assert dump[0]["job_key"] == "job:a"
    assert dump[0]["payload"] == {"v": 1}


# ---------------------------------------------------------------- claims

def test_claim_is_exclusive_until_released(store):
    assert store.claim(KEY_A, owner="w1") is True
    assert store.claim(KEY_A, owner="w2") is False
    store.release_claim(KEY_A, owner="w1")
    assert store.claim(KEY_A, owner="w2") is True


def test_claim_refused_once_result_exists(store):
    store.upsert(KEY_A, {"v": 1})
    assert store.claim(KEY_A, owner="w1") is False


def test_upsert_releases_the_writers_claim(store):
    store.claim(KEY_A, owner=store.owner)
    assert store.claim_count() == 1
    store.upsert(KEY_A, {"v": 1})
    assert store.claim_count() == 0


def test_expired_claims_are_taken_over(tmp_path):
    fast = ResultStore(str(tmp_path / "s.sqlite"), claim_ttl=0.0,
                       code_version=lambda: "cv0")
    assert fast.claim(KEY_A, owner="dead-process") is True
    # ttl=0 means the lease is immediately stale: takeover succeeds and
    # records the new owner
    assert fast.claim(KEY_A, owner="survivor") is True
    assert fast.claim_count() == 1
    fast.close()


def test_live_claims_are_not_taken_over(store):
    assert store.claim_ttl == DEFAULT_CLAIM_TTL
    assert store.claim(KEY_A, owner="w1") is True
    assert store.claim(KEY_A, owner="w2") is False, \
        "a fresh lease must not be stolen"


# ---------------------------------------------------------------- runs

def test_run_ledger_round_trip(store):
    cells = {"cell:a": store.digest_for(KEY_A),
             "cell:b": store.digest_for(KEY_B)}
    store.create_run("run-1", "sweep", {"name": "tier1"}, cells,
                     priority=5, name="nightly",
                     cell_status={"cell:a": "cached"})
    record = store.run_record("run-1")
    assert record["kind"] == "sweep"
    assert record["matrix"] == {"name": "tier1"}
    assert record["priority"] == 5
    assert record["total"] == 2
    assert store.run_progress("run-1") == {"cached": 1, "pending": 1,
                                           "total": 2}
    store.set_cell_status("run-1", "cell:b", "failed", "boom")
    failed = store.run_cells("run-1", status="failed")
    assert [c["cell"] for c in failed] == ["cell:b"]
    assert failed[0]["detail"] == "boom"
    store.set_run_status("run-1", "failed")
    assert store.list_runs(status=["failed"])[0]["run_id"] == "run-1"
    assert store.list_runs(status=["done"]) == []
    with pytest.raises(ConfigurationError, match="unknown run"):
        store.run_record("run-없음")


def test_add_run_cells_is_idempotent_and_tracks_total(store):
    store.create_run("run-1", "tune", {}, {})
    assert store.run_record("run-1")["total"] == 0
    store.add_run_cells("run-1", {"c1": "d1", "c2": "d2"})
    store.add_run_cells("run-1", {"c2": "d2", "c3": "d3"})
    assert store.run_record("run-1")["total"] == 3
    assert [c["cell"] for c in store.run_cells("run-1")] == ["c1", "c2", "c3"]


def test_next_run_ordinal_counts_existing_runs(store):
    assert store.next_run_ordinal() == 1
    store.create_run("run-1", "sweep", {}, {})
    assert store.next_run_ordinal() == 2


# ---------------------------------------- cache store-back race (regression)

def test_two_writers_racing_one_key_store_exactly_one_row(tmp_path):
    """Regression for the directory cache's read-modify-write window.

    The legacy ``store()`` did lookup-then-write: two processes that both
    missed could both write, last-writer-wins, with a torn window in
    between.  Through the sqlite store the entire decision is one
    transaction — exactly one writer wins, the loser learns it lost, and
    every subsequent lookup serves the winner's payload.
    """
    key = {"func": "worker", "params": {"x": 1}}
    barrier = threading.Barrier(2)
    outcomes = {}

    def writer(name):
        cache = SimulationCache(str(tmp_path))  # own connection per thread
        barrier.wait()
        outcomes[name] = cache.store(key, {"written_by": name})

    threads = [threading.Thread(target=writer, args=(f"w{i}",))
               for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert sorted(outcomes.values()) == [False, True], \
        "exactly one writer must win the upsert"
    winner = next(name for name, won in outcomes.items() if won)
    survivor = SimulationCache(str(tmp_path))
    assert survivor.lookup(key) == {"written_by": winner}
    assert survivor.entry_count() == 1


# ------------------------------------------------------- tuned configs (v2)

TUNED_KEY = dict(scenario="conv2d", architecture="p100",
                 precision="float32", size_class="paper")


def test_v1_store_migrates_to_v2_with_tuned_configs(store, tmp_path):
    """A pre-tuning-database store upgrades in place through the migration
    hook: version stamped forward, ``tuned_configs`` present and usable."""
    store.upsert(KEY_A, {"v": 1})
    store.close()
    path = str(tmp_path / "results.sqlite")
    with sqlite3.connect(path) as conn:
        conn.execute("DROP TABLE tuned_configs")
        conn.execute("UPDATE meta SET value='1' WHERE key='schema_version'")
    upgraded = ResultStore(path, code_version=lambda: "cv0")
    assert upgraded.schema_version() == STORE_SCHEMA_VERSION
    assert upgraded.get(KEY_A) == {"v": 1}, "v1 rows survive the migration"
    upgraded.put_tuned_config(plan_kwargs={"block_threads": 256}, **TUNED_KEY)
    assert upgraded.tuned_config_count() == 1
    upgraded.close()


def test_tuned_config_round_trip(store):
    store.put_tuned_config(plan_kwargs={"outputs_per_thread": 2,
                                        "block_threads": 64},
                           model_ms=1.25, default_model_ms=2.5, speedup=2.0,
                           search="guided", confirmed=True,
                           tune_digest="t0", **TUNED_KEY)
    found = store.best_config("conv2d", "p100", "float32")
    assert found["plan_kwargs"] == {"outputs_per_thread": 2,
                                    "block_threads": 64}
    assert found["speedup"] == 2.0
    assert found["search"] == "guided"
    assert found["confirmed"] is True
    assert found["code_version"] == "cv0"
    assert found["created_at"] > 0
    assert store.best_config("conv2d", "v100", "float32") is None
    assert store.best_config("conv2d", "p100", "float32",
                             size_class="small") is None


def test_tuned_config_upsert_is_last_writer_wins(store):
    """Unlike simulation payloads, a tuned row is a recommendation — every
    tuner run refreshes it in place."""
    store.put_tuned_config(plan_kwargs={"block_threads": 64},
                           search="exhaustive", **TUNED_KEY)
    store.put_tuned_config(plan_kwargs={"block_threads": 256},
                           search="guided", **TUNED_KEY)
    assert store.tuned_config_count() == 1
    found = store.best_config("conv2d", "p100", "float32")
    assert found["plan_kwargs"] == {"block_threads": 256}
    assert found["search"] == "guided"


def test_reduced_space_rows_never_shadow_full_space_bests(store):
    """A quick (reduced-space) tune run against a shared store writes its
    own space-keyed row; lookups serve the best row of the cell, so the
    full-space recommendation survives — planners never silently resolve
    a degraded config because a --quick run came later."""
    full_space = {"outputs_per_thread": list(range(1, 9)),
                  "block_threads": [64, 128, 256, 512]}
    quick_space = {"outputs_per_thread": [2, 4], "block_threads": [128, 256]}
    store.put_tuned_config(plan_kwargs={"outputs_per_thread": 7,
                                        "block_threads": 64},
                           model_ms=1.0, search="exhaustive",
                           space=full_space, **TUNED_KEY)
    store.put_tuned_config(plan_kwargs={"outputs_per_thread": 2,
                                        "block_threads": 256},
                           model_ms=1.6, search="guided",
                           space=quick_space, **TUNED_KEY)
    assert store.tuned_config_count() == 2, "distinct spaces, distinct rows"
    found = store.best_config("conv2d", "p100", "float32")
    assert found["plan_kwargs"] == {"outputs_per_thread": 7,
                                    "block_threads": 64}
    assert found["space"] == full_space
    assert found["space_size"] == 32
    # re-running over the same space still refreshes that row in place
    store.put_tuned_config(plan_kwargs={"outputs_per_thread": 6,
                                        "block_threads": 64},
                           model_ms=0.9, search="guided",
                           space=full_space, **TUNED_KEY)
    assert store.tuned_config_count() == 2
    found = store.best_config("conv2d", "p100", "float32")
    assert found["plan_kwargs"] == {"outputs_per_thread": 6,
                                    "block_threads": 64}
    assert found["search"] == "guided"


def test_v2_store_migrates_to_v3_space_keyed(store, tmp_path):
    """A v2 (pre-space) store rebuilds its tuned_configs table in place:
    old rows survive under the empty space digest and rank below any row
    that records the space it explored."""
    store.upsert(KEY_A, {"v": 1})   # force schema creation before surgery
    store.close()
    path = str(tmp_path / "results.sqlite")
    with sqlite3.connect(path) as conn:
        conn.execute("DROP TABLE tuned_configs")
        conn.execute(
            "CREATE TABLE tuned_configs ("
            " scenario TEXT NOT NULL, architecture TEXT NOT NULL,"
            " precision TEXT NOT NULL, size_class TEXT NOT NULL,"
            " code_version TEXT NOT NULL, plan_kwargs TEXT NOT NULL,"
            " model_ms REAL, default_model_ms REAL, speedup REAL,"
            " search TEXT, confirmed INTEGER, tune_digest TEXT,"
            " created_at REAL NOT NULL,"
            " PRIMARY KEY (scenario, architecture, precision, size_class,"
            " code_version))")
        conn.execute(
            "INSERT INTO tuned_configs VALUES"
            " ('conv2d','p100','float32','paper','cv0',"
            " '{\"block_threads\": 64}',2.0,NULL,NULL,'exhaustive',NULL,"
            " NULL,1.0)")
        conn.execute("UPDATE meta SET value='2' WHERE key='schema_version'")
    upgraded = ResultStore(path, code_version=lambda: "cv0")
    assert upgraded.schema_version() == STORE_SCHEMA_VERSION
    found = upgraded.best_config("conv2d", "p100", "float32")
    assert found["plan_kwargs"] == {"block_threads": 64}
    assert found["space_digest"] == ""
    assert found["space"] is None and found["space_size"] == 0
    # a space-recording row with a better predicted time takes over
    upgraded.put_tuned_config(plan_kwargs={"block_threads": 128},
                              model_ms=1.5,
                              space={"block_threads": [64, 128, 256, 512]},
                              **TUNED_KEY)
    assert upgraded.tuned_config_count() == 2
    assert upgraded.best_config("conv2d", "p100",
                                "float32")["plan_kwargs"] == {
                                    "block_threads": 128}
    upgraded.close()


# ------------------------------------------------ the whole migration chain

#: tables every schema version has, as the v1 build created them
_V1_DDL = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE results (
    digest TEXT PRIMARY KEY, job_key TEXT, code_version TEXT NOT NULL,
    key_json TEXT NOT NULL, payload_json TEXT NOT NULL,
    writer TEXT NOT NULL, created_at REAL NOT NULL);
CREATE INDEX results_job_key ON results(job_key);
CREATE INDEX results_code_version ON results(code_version);
CREATE TABLE claims (
    digest TEXT PRIMARY KEY, owner TEXT NOT NULL, acquired_at REAL NOT NULL);
CREATE TABLE runs (
    run_id TEXT PRIMARY KEY, kind TEXT NOT NULL, name TEXT,
    matrix_json TEXT NOT NULL, priority INTEGER NOT NULL DEFAULT 0,
    status TEXT NOT NULL, code_version TEXT NOT NULL,
    total INTEGER NOT NULL, submitted_at REAL NOT NULL);
CREATE TABLE run_cells (
    run_id TEXT NOT NULL, cell TEXT NOT NULL, digest TEXT NOT NULL,
    status TEXT NOT NULL, detail TEXT, PRIMARY KEY (run_id, cell));
"""

#: ``tuned_configs`` of v2, keyed without the explored design space
_V2_TUNED_DDL = """
CREATE TABLE tuned_configs (
    scenario TEXT NOT NULL, architecture TEXT NOT NULL,
    precision TEXT NOT NULL, size_class TEXT NOT NULL,
    code_version TEXT NOT NULL, plan_kwargs TEXT NOT NULL, model_ms REAL,
    default_model_ms REAL, speedup REAL, search TEXT, confirmed INTEGER,
    tune_digest TEXT, created_at REAL NOT NULL,
    PRIMARY KEY (scenario, architecture, precision, size_class,
                 code_version));
"""

#: ``tuned_configs`` of v3: the space-keyed shape (v4 adds no column)
_V3_TUNED_DDL = """
CREATE TABLE tuned_configs (
    scenario TEXT NOT NULL, architecture TEXT NOT NULL,
    precision TEXT NOT NULL, size_class TEXT NOT NULL,
    code_version TEXT NOT NULL, space_digest TEXT NOT NULL DEFAULT '',
    space TEXT, space_size INTEGER NOT NULL DEFAULT 0,
    plan_kwargs TEXT NOT NULL, model_ms REAL, default_model_ms REAL,
    speedup REAL, search TEXT, confirmed INTEGER, tune_digest TEXT,
    created_at REAL NOT NULL,
    PRIMARY KEY (scenario, architecture, precision, size_class,
                 code_version, space_digest));
"""

FIXTURE_DDL = {1: _V1_DDL, 2: _V1_DDL + _V2_TUNED_DDL,
               3: _V1_DDL + _V3_TUNED_DDL}


def _write_fixture_store(path: str, version: int) -> None:
    """A store as the build of schema ``version`` left it, with one row in
    every table that version has."""
    digest = ResultStore(path, code_version=lambda: "cv0").digest_for(KEY_A)
    conn = sqlite3.connect(path)
    with conn:
        conn.executescript(FIXTURE_DDL[version])
        conn.execute("INSERT INTO meta VALUES('schema_version', ?)",
                     (str(version),))
        conn.execute(
            "INSERT INTO results VALUES(?, 'job-a', 'cv0', ?, '{\"v\":1}',"
            " 'old-build', 1.0)", (digest, json.dumps(KEY_A)))
        conn.execute("INSERT INTO claims VALUES('other', 'old-build', 1.0)")
        conn.execute(
            "INSERT INTO runs VALUES('run-1', 'sweep', 'nightly',"
            " '{\"name\":\"tier1\"}', 5, 'done', 'cv0', 1, 1.0)")
        conn.execute("INSERT INTO run_cells VALUES('run-1', 'cell:a', ?,"
                     " 'done', NULL)", (digest,))
        if version == 2:
            conn.execute(
                "INSERT INTO tuned_configs VALUES('conv2d', 'p100', 'float32',"
                " 'paper', 'cv0', '{\"block_threads\": 64}', 2.0, NULL,"
                " NULL, 'exhaustive', NULL, NULL, 1.0)")
        elif version == 3:
            conn.execute(
                "INSERT INTO tuned_configs VALUES('conv2d', 'p100', 'float32',"
                " 'paper', 'cv0', 'space-a', '{\"block_threads\": [64, 128]}',"
                " 2, '{\"block_threads\": 64}', 2.0, NULL, NULL, 'guided',"
                " NULL, NULL, 1.0)")
    conn.close()


@pytest.mark.parametrize("version", [1, 2, 3])
def test_old_store_migrates_through_the_whole_chain(tmp_path, version):
    """Every older on-disk version reaches the current one in a single
    open, and the rows of every table survive the chain."""
    path = str(tmp_path / f"v{version}.sqlite")
    _write_fixture_store(path, version)
    store = ResultStore(path, code_version=lambda: "cv0")
    assert store.schema_version() == STORE_SCHEMA_VERSION == 4
    assert store.get(KEY_A) == {"v": 1}
    assert store.job_key_versions("job-a") == ["cv0"]
    assert store.claim_count() == 1
    record = store.run_record("run-1")
    assert (record["matrix"], record["priority"], record["status"]) == (
        {"name": "tier1"}, 5, "done")
    assert [(c["cell"], c["status"]) for c in store.run_cells("run-1")] == [
        ("cell:a", "done")]
    tuned = store.list_tuned_configs()
    if version == 1:
        assert tuned == []
    else:
        assert [(r["plan_kwargs"], r["search"]) for r in tuned] == [
            ({"block_threads": 64},
             "exhaustive" if version == 2 else "guided")]
        assert tuned[0]["space_digest"] == ("" if version == 2 else "space-a")
    assert store.list_analysis_reports() == []
    store.put_tuned_config(plan_kwargs={"block_threads": 128}, model_ms=1.0,
                           space={"block_threads": [128]}, **TUNED_KEY)
    assert store.best_config("conv2d", "p100", "float32")["plan_kwargs"] == {
        "block_threads": 128}
    store.close()
    reopened = ResultStore(path, code_version=lambda: "cv0")
    assert reopened.schema_version() == STORE_SCHEMA_VERSION
    assert reopened.get(KEY_A) == {"v": 1}
    assert reopened.tuned_config_count() == (1 if version == 1 else 2)
    reopened.close()


def test_tuned_configs_are_code_version_scoped(tmp_path):
    version = ["cv0"]
    store = ResultStore(str(tmp_path / "s.sqlite"),
                        code_version=lambda: version[0])
    store.put_tuned_config(plan_kwargs={"block_threads": 64}, **TUNED_KEY)
    version[0] = "cv1"
    assert store.best_config("conv2d", "p100", "float32") is None, \
        "a stale digest must never be served"
    store.put_tuned_config(plan_kwargs={"block_threads": 128}, **TUNED_KEY)
    assert store.tuned_config_count() == 2
    current = store.list_tuned_configs(current_only=True)
    assert [r["code_version"] for r in current] == ["cv1"]
    assert len(store.list_tuned_configs()) == 2
    store.close()

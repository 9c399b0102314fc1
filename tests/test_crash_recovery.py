"""Crash recovery: SIGKILL a worker mid-sweep, restart, resume.

Two layers:

* **executor level** — a subprocess running synthetic logged jobs is
  SIGKILLed partway through; a second pass over the same matrix completes
  it, and the append-only execution log proves the second pass ran *only*
  the cells the store was missing (every cell stored before the kill is
  never executed again);
* **service level** — a subprocess daemon running the real ``tier1`` sweep
  is SIGKILLed mid-run; a fresh :class:`SweepService` resumes the
  checkpointed run, rows stored before the kill keep their original writer
  (never re-published), and the final JSON artifact is byte-identical to
  an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TOTAL_KEYS = 24


def _slow_worker(i: int) -> dict:
    fd = os.open(os.environ["CRASH_LOG"],
                 os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, f"executed:{i}\n".encode())
    finally:
        os.close(fd)
    time.sleep(0.05)  # slow enough that the kill lands mid-matrix
    return {"i": i, "value": i * 3}


def _jobs():
    from repro.experiments.jobs import SimulationJob

    return [
        SimulationJob(
            key=f"crash:{i}",
            func="tests.test_crash_recovery:_slow_worker",
            params={"i": i},
            cache_fields={"kernel": "crash", "i": i},
        )
        for i in range(TOTAL_KEYS)
    ]


def run_all(cache_dir: str) -> None:
    """Subprocess entry for the executor-level crash test."""
    from repro.experiments.cache import SimulationCache
    from repro.experiments.parallel import execute_jobs

    execute_jobs(_jobs(), cache=SimulationCache(cache_dir))


def _subprocess_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra)
    return env


def _wait_for_entries(cache_dir: str, minimum: int, timeout: float = 60.0) -> int:
    """Poll the store until it holds at least ``minimum`` rows."""
    from repro.experiments.cache import SimulationCache

    probe = SimulationCache(cache_dir)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        count = probe.entry_count()
        if count >= minimum:
            probe.close()
            return count
        time.sleep(0.02)
    raise AssertionError(f"store never reached {minimum} entries")


def test_sigkill_mid_sweep_resumes_only_the_missing_cells(tmp_path):
    cache_dir = str(tmp_path / "shared")
    log_path = str(tmp_path / "crash.log")

    code = (f"from tests.test_crash_recovery import run_all; "
            f"run_all({cache_dir!r})")
    victim = subprocess.Popen(
        [sys.executable, "-c", code], cwd=REPO_ROOT,
        env=_subprocess_env(CRASH_LOG=log_path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    _wait_for_entries(cache_dir, 1)
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)
    assert victim.returncode == -signal.SIGKILL

    from repro.experiments.cache import SimulationCache
    from repro.experiments.parallel import execute_jobs

    survivor = SimulationCache(cache_dir)
    stored_at_kill = {row["key"]["i"] for row in survivor.result_store().dump()}
    assert 0 < len(stored_at_kill) < TOTAL_KEYS, \
        "the kill must land mid-matrix for the test to mean anything"
    kill_offset = os.path.getsize(log_path)

    # second pass over the same matrix: completes, and executes only what
    # the store was missing
    os.environ["CRASH_LOG"] = log_path
    try:
        payloads = execute_jobs(_jobs(), cache=survivor)
    finally:
        del os.environ["CRASH_LOG"]
    assert len(payloads) == TOTAL_KEYS
    # a row's digest hashes the code version with the job key, so one key
    # stored twice means the victim hashed another source tree than this
    # process (``code_version`` is cached per process)
    version = survivor.result_store().code_version()
    rows = survivor.result_store().dump()
    foreign = sorted({row["code_version"] for row in rows} - {version})
    assert not foreign, (
        f"rows stored under code versions {foreign}, not this process's "
        f"{version}: a source file under src/repro was edited while the "
        f"test ran, so the victim and the survivor hashed different trees")
    assert sum(row["code_version"] == version for row in rows) == TOTAL_KEYS
    assert survivor.entry_count() == TOTAL_KEYS

    with open(log_path, "rb") as handle:
        handle.seek(kill_offset)
        resumed = {int(line.split(b":")[1]) for line in handle if line.strip()}
    missing_at_kill = set(range(TOTAL_KEYS)) - stored_at_kill
    # cells whose execution the kill interrupted before the store-back are
    # missing too, so they legitimately run again; stored cells must not
    assert resumed == missing_at_kill
    assert not (resumed & stored_at_kill), \
        "no cell stored before the kill may execute again"


def serve_tier1(cache_dir: str, marker_path: str) -> None:
    """Subprocess entry for the service-level crash test: submit the real
    tier1 sweep and block until done (the test kills us long before)."""
    from repro.experiments.cache import SimulationCache
    from repro.service.daemon import SweepService

    service = SweepService(SimulationCache(cache_dir), threads=1)
    run = service.submit_sweep("tier1")
    with open(marker_path, "w", encoding="utf-8") as handle:
        json.dump({"run_id": run["run_id"], "pid": os.getpid()}, handle)
    service.wait_for_run(run["run_id"], timeout=600)


def test_killed_daemon_resumes_to_a_byte_identical_artifact(tmp_path):
    # reference: one uninterrupted serve of the same matrix
    from repro.experiments.cache import SimulationCache
    from repro.service.daemon import SweepService

    reference_cache = SimulationCache(str(tmp_path / "reference"))
    reference = SweepService(reference_cache, threads=1)
    ref_run = reference.submit_sweep("tier1")
    reference.wait_for_run(ref_run["run_id"], timeout=600)
    ref_path = str(tmp_path / "reference.json")
    reference.run_results(ref_run["run_id"]).save(ref_path)
    reference.shutdown()
    total = reference.store.run_record(ref_run["run_id"])["total"]

    # victim: same matrix in a subprocess daemon, SIGKILLed mid-run
    cache_dir = str(tmp_path / "victim")
    marker = str(tmp_path / "victim.json")
    code = (f"from tests.test_crash_recovery import serve_tier1; "
            f"serve_tier1({cache_dir!r}, {marker!r})")
    victim = subprocess.Popen([sys.executable, "-c", code], cwd=REPO_ROOT,
                              env=_subprocess_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
    _wait_for_entries(cache_dir, max(2, total // 8))
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)

    with open(marker, "r", encoding="utf-8") as handle:
        run_id = json.load(handle)["run_id"]

    survivor_cache = SimulationCache(cache_dir)
    store = survivor_cache.result_store()
    rows_at_kill = {row["digest"]: row for row in store.dump()}
    assert 0 < len(rows_at_kill) < total, "kill must land mid-sweep"
    writers_at_kill = {
        r["digest"]: r["writer"] for r in store._conn().execute(
            "SELECT digest, writer FROM results")}

    # the run survived the crash as a checkpoint; resuming completes it
    resumed = SweepService(survivor_cache, threads=1)
    assert run_id in resumed.resume_pending()
    assert resumed.wait_for_run(run_id, timeout=600) == "done"

    # completed cells were never re-published: original writer intact
    writers_after = {
        r["digest"]: r["writer"] for r in store._conn().execute(
            "SELECT digest, writer FROM results")}
    for digest in rows_at_kill:
        assert writers_after[digest] == writers_at_kill[digest]
    own = f"{os.uname().nodename}:{os.getpid()}"
    fresh_rows = set(writers_after) - set(rows_at_kill)
    assert fresh_rows and all(writers_after[d] == own for d in fresh_rows)

    # and the artifact is byte-identical to the uninterrupted run's
    resumed_path = str(tmp_path / "resumed.json")
    resumed.run_results(run_id).save(resumed_path)
    resumed.shutdown()
    with open(ref_path, "rb") as a, open(resumed_path, "rb") as b:
        assert a.read() == b.read()

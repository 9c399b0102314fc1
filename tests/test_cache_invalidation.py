"""Cache-invalidation tests: the code-version digest and stale entries.

The persistent simulation cache folds a digest of every source file under
``src/repro`` into each entry key; these tests pin down the two promises
that digest makes — edits to the simulator always change it, and a changed
digest means previously stored entries are never served again.
"""

from __future__ import annotations

import pathlib


from repro.experiments import cache as cache_mod
from repro.experiments import table1
from repro.experiments.cache import SimulationCache, digest_source_tree
from repro.experiments.parallel import execute_jobs


def _write(root: pathlib.Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _tree(root: pathlib.Path, files: dict) -> str:
    for rel, text in files.items():
        _write(root, rel, text)
    return digest_source_tree(str(root))


BASE = {"pkg/__init__.py": "", "pkg/sim.py": "STATE = 1\n"}


def test_digest_is_stable_for_identical_trees(tmp_path):
    first = _tree(tmp_path / "a", BASE)
    second = _tree(tmp_path / "b", BASE)
    assert first == second
    # and repeatable on the same tree
    assert digest_source_tree(str(tmp_path / "a")) == first


def test_digest_tracks_edits_additions_and_renames(tmp_path):
    baseline = _tree(tmp_path / "base", BASE)
    edited = _tree(tmp_path / "edited",
                   {**BASE, "pkg/sim.py": "STATE = 2\n"})
    added = _tree(tmp_path / "added",
                  {**BASE, "pkg/extra.py": "STATE = 1\n"})
    renamed = _tree(tmp_path / "renamed",
                    {"pkg/__init__.py": "", "pkg/simulator.py": "STATE = 1\n"})
    digests = {baseline, edited, added, renamed}
    assert len(digests) == 4, "every source mutation must change the digest"


def test_digest_ignores_non_python_files(tmp_path):
    baseline = _tree(tmp_path / "a", BASE)
    with_docs = _tree(tmp_path / "b", {**BASE, "pkg/README.md": "notes\n"})
    assert baseline == with_docs


NESTED = {"pkg/__init__.py": "", "pkg/sub/__init__.py": "",
          "pkg/sub/deep/mod.py": "STATE = 3\n", "top.py": "X = 0\n"}


def test_digest_hashes_posix_relative_paths(tmp_path):
    """The digest identity of a nested tree is its ``/``-separated paths.

    Recomputing the hash by hand with explicit posix separators pins the
    normalisation: a platform whose ``os.path.relpath`` yields another
    separator must still produce this exact digest.
    """
    import hashlib

    digest = _tree(tmp_path / "t", NESTED)
    # walk order: each directory's files sorted, then subdirectories sorted
    expected = hashlib.sha256()
    for rel in ["top.py", "pkg/__init__.py", "pkg/sub/__init__.py",
                "pkg/sub/deep/mod.py"]:
        expected.update(rel.encode())
        expected.update((tmp_path / "t" / rel).read_bytes())
    assert digest == expected.hexdigest()[:16]


def test_digest_normalises_windows_separators(tmp_path, monkeypatch):
    """A native separator other than ``/`` must not change the digest."""
    import os

    baseline = _tree(tmp_path / "t", NESTED)
    real_relpath = os.path.relpath
    monkeypatch.setattr(
        cache_mod.os.path, "relpath",
        lambda path, start: real_relpath(path, start).replace("/", "\\"))
    assert digest_source_tree(str(tmp_path / "t")) == baseline


def test_code_version_is_memoised_and_fed_from_the_package():
    assert cache_mod.code_version() == cache_mod.code_version()
    package_root = pathlib.Path(cache_mod.__file__).resolve().parent.parent
    assert cache_mod.code_version() == digest_source_tree(str(package_root))


def test_mutated_code_version_invalidates_stored_entries(tmp_path, monkeypatch):
    cache = SimulationCache(str(tmp_path))
    key = {"func": "worker", "params": {"x": 1}}
    cache.store(key, {"value": 42})
    assert cache.lookup(key) == {"value": 42}
    before = cache.result_store().digest_for(key)

    monkeypatch.setattr(cache_mod, "code_version", lambda: "f" * 16)
    stale_cache = SimulationCache(str(tmp_path))
    # the same logical key now addresses a different entry: a guaranteed miss
    assert stale_cache.result_store().digest_for(key) != before
    assert stale_cache.lookup(key) is None
    assert stale_cache.stats()["misses"] == 1


def test_stale_entries_are_never_served_by_the_pipeline(tmp_path, monkeypatch):
    jobs = table1.jobs(quick=True)
    cold = SimulationCache(str(tmp_path))
    payloads = execute_jobs(jobs, cache=cold)
    assert cold.stores == len(jobs)

    warm = SimulationCache(str(tmp_path))
    assert execute_jobs(jobs, cache=warm) == payloads
    assert warm.hits == len(jobs) and warm.misses == 0

    # a code change (simulated by mutating the digest) must force a full
    # recomputation: zero hits, every job re-executed and re-stored
    monkeypatch.setattr(cache_mod, "code_version", lambda: "0" * 16)
    invalidated = SimulationCache(str(tmp_path))
    assert execute_jobs(jobs, cache=invalidated) == payloads
    assert invalidated.hits == 0
    assert invalidated.misses == len(jobs)
    assert invalidated.stores == len(jobs)


def test_a_leftover_directory_tree_is_never_served(tmp_path):
    """A one-JSON-per-entry tree beside the store is neither read nor
    touched: its entry, filed under the current digest, still misses."""
    import json

    cache = SimulationCache(str(tmp_path))
    key = {"func": "worker", "params": {"x": 7}}
    digest = cache.result_store().digest_for(key)
    cache.close()
    leftover = tmp_path / "v1" / digest[:2] / f"{digest}.json"
    leftover.parent.mkdir(parents=True)
    body = json.dumps({"format": 1, "key": key, "payload": {"value": 99}})
    leftover.write_text(body, encoding="utf-8")

    reopened = SimulationCache(str(tmp_path))
    assert reopened.lookup(key) is None
    assert reopened.entry_count() == 0
    assert leftover.read_text(encoding="utf-8") == body
    reopened.store(key, {"value": 1})
    assert reopened.lookup(key) == {"value": 1}


def test_corrupted_entries_read_as_misses(tmp_path):
    import sqlite3

    cache = SimulationCache(str(tmp_path))
    key = {"func": "worker", "params": {}}
    cache.store(key, {"value": 1})
    digest = cache.result_store().digest_for(key)
    cache.close()
    with sqlite3.connect(cache.store_path) as conn:
        conn.execute("UPDATE results SET payload_json=? WHERE digest=?",
                     ("{not json", digest))
    fresh = SimulationCache(str(tmp_path))
    assert fresh.lookup(key) is None
    # entries whose payload is not a mapping are equally invalid
    fresh.close()
    with sqlite3.connect(cache.store_path) as conn:
        conn.execute("UPDATE results SET payload_json=? WHERE digest=?",
                     ("[1, 2]", digest))
    assert fresh.lookup(key) is None
    assert fresh.stats()["misses"] == 2

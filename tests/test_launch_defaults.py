"""Tests for the launch-default resolution chain (explicit -> tuned -> paper).

Covers every fallback of the chain one at a time — no database, database
file missing, row missing, row stale under a different code digest,
explicit overrides beating tuned rows — plus the activation mechanics
(``SSAM_TUNED_DB`` environment variable and the :func:`tuning_database`
context manager), the planner integration that records the resolution
source on result records, and the determinism of sharded sweeps while a
tuning database is active.
"""

from __future__ import annotations

import pytest

from repro.core.launch_defaults import (
    PAPER_LAUNCH_DEFAULTS,
    TUNED_DB_ENV,
    active_tuning_database,
    clear_lookup_cache,
    lookup_tuned_config,
    resolve_launch_defaults,
    tuning_database,
)
from repro.errors import ConfigurationError
from repro.scenarios import get_scenario
from repro.scenarios.registry import LAUNCH_DEFAULTS_SOURCE_KEY
from repro.scenarios.sweep import run_sweep
from repro.service.store import ResultStore

TUNED_KWARGS = {"outputs_per_thread": 2, "block_threads": 64}


@pytest.fixture(autouse=True)
def no_ambient_database(monkeypatch):
    """Shield every test from a tuning database leaking in from outside."""
    monkeypatch.delenv(TUNED_DB_ENV, raising=False)
    clear_lookup_cache()
    yield
    clear_lookup_cache()


@pytest.fixture
def tuned_db(tmp_path):
    """A result store holding one tuned conv2d cell, at the current digest."""
    path = str(tmp_path / "results.sqlite")
    store = ResultStore(path)
    store.put_tuned_config("conv2d", "p100", "float32", "paper",
                           TUNED_KWARGS, model_ms=1.5, default_model_ms=3.0,
                           speedup=2.0, search="guided", confirmed=True)
    store.close()
    return path


# -------------------------------------------------------------- chain steps

def test_no_database_resolves_to_the_paper_constants():
    resolved = resolve_launch_defaults(
        ("outputs_per_thread", "block_threads"), architecture="p100",
        precision="float32", scenario="conv2d")
    assert resolved.values == {"outputs_per_thread": 4, "block_threads": 128}
    assert resolved.source == "paper"
    assert resolved.tuned_ms is None


def test_explicit_values_always_win(tuned_db):
    with tuning_database(tuned_db):
        resolved = resolve_launch_defaults(
            ("outputs_per_thread", "block_threads"), architecture="p100",
            precision="float32", scenario="conv2d",
            explicit={"outputs_per_thread": 8, "block_threads": 512})
    assert resolved.values == {"outputs_per_thread": 8, "block_threads": 512}
    assert resolved.source == "explicit"


def test_tuned_row_resolves_through_the_chain(tuned_db):
    with tuning_database(tuned_db):
        resolved = resolve_launch_defaults(
            ("outputs_per_thread", "block_threads"), architecture="p100",
            precision="float32", scenario="conv2d")
    assert resolved.values == TUNED_KWARGS
    assert resolved.source == "tuned"
    assert resolved.tuned_ms == 1.5


def test_partial_explicit_pins_remaining_axes_to_paper(tuned_db):
    """The tuned step is all-or-nothing: any explicit value keeps tuned
    rows out entirely, so a partially specified point (e.g. a canonical
    R-elided tuner candidate) executes exactly the configuration its label
    claims — unspecified axes resolve from the paper constants, never from
    the database."""
    with tuning_database(tuned_db):
        resolved = resolve_launch_defaults(
            ("outputs_per_thread", "block_threads", "block_rows"),
            architecture="p100", precision="float32", scenario="conv2d",
            explicit={"outputs_per_thread": 6, "block_rows": None})
    assert resolved.values == {"outputs_per_thread": 6, "block_threads": 128,
                               "block_rows": 1}
    assert resolved.sources == {"outputs_per_thread": "explicit",
                                "block_threads": "paper",
                                "block_rows": "paper"}
    assert resolved.source == "explicit+paper"


def test_explicit_candidate_points_keep_their_identity(tuned_db):
    """A canonical R-elided explicit point {P, B} must not pick up tuned
    values on its elided axes — the regression the all-or-nothing rule
    exists for (tuner re-runs and sweep grids would otherwise silently
    measure different configurations than their case ids claim)."""
    with tuning_database(tuned_db):
        resolved = resolve_launch_defaults(
            ("outputs_per_thread", "block_threads", "block_rows"),
            architecture="p100", precision="float32", scenario="conv2d",
            explicit={"outputs_per_thread": 4, "block_threads": 128})
    assert resolved.values == {"outputs_per_thread": 4, "block_threads": 128,
                               "block_rows": 1}
    assert "tuned" not in resolved.source


def test_missing_database_file_falls_back_to_paper(tmp_path):
    with tuning_database(str(tmp_path / "does-not-exist.sqlite")):
        resolved = resolve_launch_defaults(
            ("block_threads",), architecture="p100", precision="float32",
            scenario="conv2d")
    assert resolved.values == {"block_threads": 128}
    assert resolved.source == "paper"


def test_untuned_cell_falls_back_to_paper(tuned_db):
    with tuning_database(tuned_db):
        resolved = resolve_launch_defaults(
            ("outputs_per_thread",), architecture="h100",
            precision="float64", scenario="conv2d")
    assert resolved.source == "paper"


def test_stale_code_digest_is_never_served(tmp_path):
    path = str(tmp_path / "results.sqlite")
    store = ResultStore(path)
    store.put_tuned_config("conv2d", "p100", "float32", "paper",
                           TUNED_KWARGS, code_version="someone-elses-tree")
    store.close()
    with tuning_database(path):
        assert lookup_tuned_config("conv2d", "p100", "float32") is None
        resolved = resolve_launch_defaults(
            ("outputs_per_thread", "block_threads"), architecture="p100",
            precision="float32", scenario="conv2d")
    assert resolved.source == "paper"
    assert resolved.values == {"outputs_per_thread": 4, "block_threads": 128}


def test_no_scenario_identity_means_paper_regardless_of_database(tuned_db):
    """Direct kernel calls carry no scenario key; ambient state must not
    change what they compute."""
    with tuning_database(tuned_db):
        resolved = resolve_launch_defaults(
            ("outputs_per_thread", "block_threads"), architecture="p100",
            precision="float32", scenario=None)
    assert resolved.values == {"outputs_per_thread": 4, "block_threads": 128}
    assert resolved.source == "paper"


def test_unknown_parameter_raises():
    with pytest.raises(ConfigurationError, match="unknown launch parameter"):
        resolve_launch_defaults(("warp_speed",))


# -------------------------------------------------------------- activation

def test_env_var_activates_a_cache_directory(tuned_db, tmp_path, monkeypatch):
    # the env var accepts the cache directory, not just the sqlite file
    monkeypatch.setenv(TUNED_DB_ENV, str(tmp_path))
    clear_lookup_cache()
    assert active_tuning_database() == str(tmp_path)
    found = lookup_tuned_config("conv2d", "p100", "float32")
    assert found is not None
    assert found["plan_kwargs"] == TUNED_KWARGS
    assert found["search"] == "guided"
    assert found["confirmed"] is True


def test_context_manager_restores_prior_state(tuned_db, monkeypatch):
    monkeypatch.setenv(TUNED_DB_ENV, "ambient.sqlite")
    with tuning_database(tuned_db):
        assert active_tuning_database() == tuned_db
        # None deactivates, shielding a block from the ambient variable
        with tuning_database(None):
            assert active_tuning_database() is None
        assert active_tuning_database() == tuned_db
    assert active_tuning_database() == "ambient.sqlite"


# ------------------------------------------------------ planner integration

def test_planner_consumes_tuned_defaults(tuned_db):
    conv2d = get_scenario("conv2d")
    baseline = conv2d.build_plan("tiny", "p100", "float32")
    assert baseline.outputs_per_thread == PAPER_LAUNCH_DEFAULTS[
        "outputs_per_thread"]
    assert baseline.block_threads == PAPER_LAUNCH_DEFAULTS["block_threads"]
    with tuning_database(tuned_db):
        tuned = conv2d.build_plan("tiny", "p100", "float32")
        # explicit plan_kwargs keep the database out entirely: the pinned
        # P rides with the paper B, not the tuned one (all-or-nothing)
        pinned = conv2d.build_plan("tiny", "p100", "float32",
                                   plan_kwargs={"outputs_per_thread": 8})
    assert tuned.outputs_per_thread == 2
    assert tuned.block_threads == 64
    assert pinned.outputs_per_thread == 8
    assert pinned.block_threads == PAPER_LAUNCH_DEFAULTS["block_threads"]


def test_resolution_source_is_recorded_on_the_params(tuned_db):
    conv2d = get_scenario("conv2d")
    plain = conv2d.resolve_tunable_defaults({}, "p100", "float32")
    assert plain[LAUNCH_DEFAULTS_SOURCE_KEY] == "paper"
    with tuning_database(tuned_db):
        tuned = conv2d.resolve_tunable_defaults({}, "p100", "float32")
        other = conv2d.resolve_tunable_defaults({}, "v100", "float32")
    # canonical tuned rows never spell out block_rows=1, so conv2d's R axis
    # still resolves from the paper constant
    assert tuned[LAUNCH_DEFAULTS_SOURCE_KEY] == "tuned+paper"
    assert tuned["outputs_per_thread"] == 2
    assert other[LAUNCH_DEFAULTS_SOURCE_KEY] == "paper"


def test_cached_payloads_replay_with_current_provenance(tmp_path):
    """A tuned row whose values equal the paper constants builds a
    byte-identical plan (same cache key), so payloads cached without a
    database replay under an active one.  Provenance is computed at
    assemble time from current state — a cached cell must not report a
    stale ``"paper"`` label once a database is active (or vice versa)."""
    import os

    from repro.experiments.cache import SimulationCache

    cache_dir = str(tmp_path)
    store = ResultStore(os.path.join(cache_dir, "results.sqlite"))
    store.put_tuned_config(
        "conv2d", "p100", "float32", "paper",
        {"outputs_per_thread": PAPER_LAUNCH_DEFAULTS["outputs_per_thread"],
         "block_threads": PAPER_LAUNCH_DEFAULTS["block_threads"]})
    store.close()
    matrix = {"scenarios": ["conv2d"], "architectures": ["p100"],
              "precisions": ["float32"], "engines": ["batched"],
              "sizes": ["tiny"]}
    cold_cache = SimulationCache(cache_dir)
    cold = run_sweep(matrix, cache=cold_cache)
    assert cold_cache.misses > 0
    for measurement in cold.measurements:
        assert measurement.extra["launch_defaults_source"] == "paper"
    warm_cache = SimulationCache(cache_dir)
    with tuning_database(cache_dir):
        warm = run_sweep(matrix, cache=warm_cache)
    # same plan, same cache identity: the warm run executes nothing new
    assert warm_cache.misses == 0 and warm_cache.hits == cold_cache.misses
    for measurement in warm.measurements:
        assert measurement.extra["launch_defaults_source"] == "tuned+paper"


def test_sweeps_record_the_source_and_stay_deterministic_across_workers(
        tuned_db):
    matrix = {"scenarios": ["conv2d"], "architectures": ["p100"],
              "precisions": ["float32"], "engines": ["batched", "replay"],
              "sizes": ["tiny"]}
    with tuning_database(tuned_db):
        serial = run_sweep(matrix, workers=1)
        # the env var rides into pool workers, so shards resolve identically
        sharded = run_sweep(matrix, workers=2)
    ambient_free = run_sweep(matrix, workers=1)
    assert serial == sharded
    for measurement in serial.measurements:
        assert measurement.extra["launch_defaults_source"] == "tuned+paper"
    for measurement in ambient_free.measurements:
        assert measurement.extra["launch_defaults_source"] == "paper"
    # the tuned plan really is a different kernel configuration
    assert serial != ambient_free

"""Unit tests for the typed-results layer and the simulation cache."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.convolution.spec import ConvolutionSpec
from repro.core.plan import plan_convolution
from repro.errors import ConfigurationError
from repro.experiments.cache import SimulationCache, code_version
from repro.experiments.jobs import SimulationJob, dedupe_jobs, execute_job, resolve_worker
from repro.experiments.parallel import execute_jobs
from repro.experiments.results import (
    SCHEMA_VERSION,
    ExperimentResult,
    Measurement,
    load_result,
)
from repro.serialization import (
    atomic_write_json,
    canonical_json,
    jsonify,
    stable_digest,
)
from repro.stencils.catalog import CATALOG


# ----------------------------------------------------------- serialization

def test_jsonify_normalises_tuples_and_numpy_types():
    value = {"a": (1, 2), "b": np.float64(1.5), "c": np.int32(3),
             "d": np.array([1.0, 2.0]), "e": np.bool_(True)}
    normal = jsonify(value)
    assert normal == {"a": [1, 2], "b": 1.5, "c": 3, "d": [1.0, 2.0], "e": True}
    assert type(normal["b"]) is float and type(normal["c"]) is int


def test_jsonify_rejects_unserialisable_values():
    with pytest.raises(TypeError):
        jsonify(object())


def test_stable_digest_is_order_insensitive():
    assert stable_digest({"x": 1, "y": (2, 3)}) == stable_digest({"y": [2, 3], "x": 1})
    assert stable_digest({"x": 1}) != stable_digest({"x": 2})
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_spec_fingerprints_are_stable_and_content_addressed():
    a = ConvolutionSpec.gaussian(5)
    b = ConvolutionSpec.gaussian(5)
    c = ConvolutionSpec.gaussian(7)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert a == b and hash(a) == hash(b)
    stencil = CATALOG["2d5pt"].spec
    assert stencil.fingerprint() == CATALOG["2d5pt"].spec.fingerprint()
    assert stencil.fingerprint() != CATALOG["3d7pt"].spec.fingerprint()


def test_plan_and_launch_config_serialise():
    plan = plan_convolution(ConvolutionSpec.gaussian(5))
    config = plan.launch_config(512, 512)
    assert config.to_dict()["precision"] == "float32"
    assert config.fingerprint() == config.fingerprint()
    assert plan.to_dict()["problem"] == plan.problem.fingerprint()
    assert len(plan.fingerprint()) == 16


# ------------------------------------------------------------------ results

def _sample_result():
    measurements = [
        Measurement(kernel="ssam", architecture="p100", workload="3x3",
                    config={"grid_dim": (4, 4, 1)}, counters={"fma": 10.0},
                    milliseconds=1.25, value=1.25, unit="ms",
                    extra={"matches_paper": True}),
        Measurement(kernel="npp", architecture="p100", workload="3x3",
                    value=None),
    ]
    return ExperimentResult(experiment="demo", title="Demo", quick=True,
                            measurements=measurements,
                            metadata={"panels": {"a": {"sizes": (3,)}}})


def test_result_round_trips_through_json(tmp_path):
    result = _sample_result()
    path = str(tmp_path / "demo.json")
    result.save(path)
    loaded = load_result(path)
    assert loaded == result
    assert loaded.measurements[0].config["grid_dim"] == [4, 4, 1]
    assert loaded.series_value("ssam", "p100", "3x3") == 1.25
    assert loaded.rows()[0] == {"matches_paper": True}


@pytest.fixture(scope="module")
def artifact_results():
    """A sweep, a tune and a figure result, as the runner saves them."""
    from repro.experiments.runner import run_experiment_results
    from repro.scenarios.sweep import run_sweep
    from repro.tuning.tuner import run_tuning

    return {
        "sweep": run_sweep({"scenarios": ["conv2d", "scan"],
                            "architectures": ["p100"],
                            "precisions": ["float32"],
                            "engines": ["model", "batched"],
                            "sizes": ["tiny"]}),
        "tune": run_tuning(quick=True, scenarios=["conv2d"],
                           architectures=["p100"], precisions=["float32"],
                           confirm=False),
        "figure4": run_experiment_results("figure4", quick=True)["figure4"],
    }


@pytest.mark.parametrize("name", ["sweep", "tune", "figure4"])
def test_artifacts_round_trip_one_measurement_per_line(tmp_path, name,
                                                       artifact_results):
    result = artifact_results[name]
    path = result.save(str(tmp_path / f"{name}.json"))
    assert load_result(path).to_dict() == result.to_dict()
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert text.endswith("}\n")
    lines = text.splitlines()
    rows = [json.loads(line.strip().rstrip(","))
            for line in lines[lines.index('  "measurements": [') + 1:]
            if line.startswith("    {")]
    assert rows == [m.to_dict() for m in result.measurements]


def test_artifact_round_trips_non_finite_and_non_ascii_values(tmp_path):
    measurements = [
        Measurement(kernel="ssam", value=float("nan"), milliseconds=float("inf"),
                    extra={"low": float("-inf"), "label": "\u00b5s \u2014 Gr\u00f6\u00dfe"}),
        Measurement(kernel="npp", workload="\u03c3=1"),
    ]
    result = ExperimentResult(experiment="demo", title="Caf\u00e9", quick=False,
                              measurements=measurements,
                              metadata={"nested": {"deep": {"deeper": [float("nan")]}},
                                        "empty": [], "none": {}})
    path = result.save(str(tmp_path / "demo.json"))
    with open(path, "rb") as handle:
        raw = handle.read()
    raw.decode("ascii")  # non-ASCII text stays \uXXXX-escaped
    assert b"\\u00e9" in raw and b"NaN" in raw and b"-Infinity" in raw
    # NaN never equals itself, so compare the canonical texts
    assert canonical_json(load_result(path).to_dict()) == canonical_json(
        result.to_dict())

    empty = ExperimentResult(experiment="empty", title="", quick=True)
    path = empty.save(str(tmp_path / "empty.json"))
    assert load_result(path).to_dict() == empty.to_dict()
    with open(path, "r", encoding="utf-8") as handle:
        assert '  "measurements": [],\n' in handle.read()


def test_compact_json_bytes_are_unchanged(tmp_path):
    value = {"pid": 12, "url": "http://127.0.0.1:8037", "t": 1.5,
             "nested": {"a": [1, 2.0, None, True]}, "s": "\u00e9"}
    path = atomic_write_json(str(tmp_path / "endpoint.json"), value)
    with open(path, "rb") as handle:
        assert handle.read() == json.dumps(
            value, separators=(",", ":")).encode("ascii")


def test_result_rejects_unknown_schema_version(tmp_path):
    bad = dict(_sample_result().to_dict(), schema_version=SCHEMA_VERSION + 1)
    with pytest.raises(ConfigurationError):
        ExperimentResult.from_dict(bad)


# --------------------------------------------------------------------- jobs

def _echo_worker(**params):
    return {"echo": params}


def test_execute_job_resolves_and_normalises():
    job = SimulationJob(key="t:1", func="tests.test_results_and_cache:_echo_worker",
                        params={"x": (1, 2)})
    key, payload = execute_job(job)
    assert key == "t:1"
    assert payload == {"echo": {"x": [1, 2]}}
    assert resolve_worker("repro.experiments.table1:_measure_rows")


def test_resolve_worker_rejects_bad_paths():
    with pytest.raises(ConfigurationError):
        resolve_worker("no-colon")
    with pytest.raises(ConfigurationError):
        resolve_worker("repro.experiments.table1:nope")


def test_dedupe_jobs_detects_conflicts():
    a = SimulationJob(key="k", func="m:f", params={"x": 1})
    same = SimulationJob(key="k", func="m:f", params={"x": 1})
    conflict = SimulationJob(key="k", func="m:f", params={"x": 2})
    assert dedupe_jobs([a, same]) == [a]
    with pytest.raises(ConfigurationError):
        dedupe_jobs([a, conflict])


# -------------------------------------------------------------------- cache

def test_cache_lookup_store_round_trip(tmp_path):
    cache = SimulationCache(str(tmp_path / "c"))
    key = {"func": "f", "params": {"n": 1}, "kernel": "k"}
    assert cache.lookup(key) is None
    cache.store(key, {"value": 1.5})
    assert cache.lookup(key) == {"value": 1.5}
    assert cache.lookup({**key, "kernel": "other"}) is None
    assert cache.stats() == {"hits": 1, "misses": 2, "stores": 1}
    assert cache.entry_count() == 1


def test_cache_disabled_stores_nothing(tmp_path):
    cache = SimulationCache(str(tmp_path / "c"), enabled=False)
    cache.store({"k": 1}, {"v": 2})
    assert cache.lookup({"k": 1}) is None
    assert cache.entry_count() == 0


def test_cache_key_includes_code_version(tmp_path):
    cache = SimulationCache(str(tmp_path / "c"))
    assert code_version() == code_version()
    digest = cache.result_store().digest_for({"func": "f"})
    assert digest == stable_digest({"code_version": code_version(),
                                    "func": "f"}, length=40)


def test_execute_jobs_uses_cache_and_preserves_payloads(tmp_path):
    cache = SimulationCache(str(tmp_path / "c"))
    jobs = [SimulationJob(key=f"t:{i}",
                          func="tests.test_results_and_cache:_echo_worker",
                          params={"i": i}) for i in range(3)]
    first = execute_jobs(jobs, workers=1, cache=cache)
    assert cache.stats()["stores"] == 3
    second = execute_jobs(jobs, workers=1, cache=cache)
    assert second == first
    assert cache.stats()["hits"] == 3


def test_parallel_pool_payloads_store_back_under_the_correct_keys(tmp_path):
    """Payloads computed by pool workers must land in the persistent cache.

    The workers run in separate processes, so the store-back happens in the
    parent after the pool drains; a warm rerun with ``workers > 1`` must be
    a 100% hit, and every payload must be retrievable under its own job's
    ``cache_key()``.
    """
    cache = SimulationCache(str(tmp_path / "c"))
    jobs = [SimulationJob(key=f"p:{i}",
                          func="tests.test_results_and_cache:_echo_worker",
                          params={"i": i},
                          cache_fields={"kernel": "echo", "cell": i})
            for i in range(6)]
    cold = execute_jobs(jobs, workers=3, cache=cache)
    assert cache.stats() == {"hits": 0, "misses": 6, "stores": 6}
    # each payload sits under its own key — not swapped, not merged
    for job in jobs:
        assert cache.lookup(job.cache_key()) == cold[job.key]

    warm_cache = SimulationCache(str(tmp_path / "c"))
    warm = execute_jobs(jobs, workers=3, cache=warm_cache)
    assert warm == cold
    assert warm_cache.stats() == {"hits": 6, "misses": 0, "stores": 0}


# ------------------------------------------------- execute_job contract

def test_execute_job_accepts_only_simulation_jobs():
    """One calling convention: the legacy ``(key, func, params)`` tuple is
    rejected, so the inline and pool paths cannot silently diverge."""
    with pytest.raises(ConfigurationError):
        execute_job(("t:1", "tests.test_results_and_cache:_echo_worker", {}))


def test_single_miss_with_many_workers_runs_through_the_same_contract(tmp_path):
    """``workers > 1`` with exactly one miss skips the pool on purpose —
    but the inline shortcut must produce the same payload (and store it
    back) as the pool path would."""
    cache = SimulationCache(str(tmp_path / "c"))
    jobs = [SimulationJob(key=f"s:{i}",
                          func="tests.test_results_and_cache:_echo_worker",
                          params={"i": i}) for i in range(2)]
    # prime one of the two jobs so the next run has a single miss
    first = execute_jobs(jobs[:1], workers=1, cache=cache)
    assert cache.stats()["stores"] == 1

    mixed = execute_jobs(jobs, workers=4, cache=cache)
    assert mixed["s:0"] == first["s:0"]
    assert mixed["s:1"] == {"echo": {"i": 1}}
    assert cache.stats()["hits"] == 1 and cache.stats()["stores"] == 2

    # the warm rerun serves both from the cache regardless of worker count
    warm_cache = SimulationCache(str(tmp_path / "c"))
    assert execute_jobs(jobs, workers=4, cache=warm_cache) == mixed
    assert warm_cache.stats() == {"hits": 2, "misses": 0, "stores": 0}

"""Sweep engine tests: expansion -> jobs -> cached pipeline -> artifacts."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import load_result, runner
from repro.experiments.cache import SimulationCache
from repro.scenarios import expand_matrix
from repro.scenarios.sweep import (
    MATRICES,
    jobs,
    load_matrix,
    render,
    run_sweep,
)


def test_load_matrix_presets_and_files(tmp_path):
    preset = load_matrix("tier1")
    assert preset["name"] == "tier1"
    # presets are copied: mutating the result must not corrupt the table
    preset["scenarios"] = "baseline"
    assert MATRICES["tier1"]["scenarios"] == "ssam"
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({"scenarios": ["scan"],
                                "architectures": ["p100"],
                                "precisions": ["float32"],
                                "engines": ["batched"],
                                "sizes": ["tiny"]}))
    from_file = load_matrix(str(path))
    assert from_file["name"] == "custom"
    assert [c.case_id for c in expand_matrix(from_file)] == \
        ["scan:p100:float32:batched:tiny"]
    with pytest.raises(ConfigurationError):
        load_matrix("no-such-preset")
    with pytest.raises(ConfigurationError):
        load_matrix("no-such-file.json")  # typo'd paths fail cleanly too
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(ConfigurationError):
        load_matrix(str(bad))


def test_jobs_have_unique_keys_and_scenario_cache_fields():
    pending = jobs("tier1")
    keys = [job.key for job in pending]
    # 10 SSAM kernels x 4 architectures x 2 precisions x 2 engines
    assert len(keys) == len(set(keys)) == 160
    for job in pending:
        assert job.func == "repro.scenarios.sweep:_measure_case"
        fields = dict(job.cache_fields)
        assert {"kernel", "architecture", "precision", "engine",
                "size"} <= set(fields)
    # the SSAM conv2d cells carry their plan fingerprint in the cache key
    conv2d = [dict(j.cache_fields) for j in pending
              if dict(j.cache_fields)["kernel"] == "conv2d"]
    assert conv2d and all("plan" in f for f in conv2d)


def test_sweep_is_deterministic_and_artifacts_round_trip(tmp_path):
    first = run_sweep("smoke")
    second = run_sweep("smoke")
    assert first == second
    assert render(first) == render(second)
    path = first.save(str(tmp_path / "sweep.json"))
    assert load_result(path) == first
    assert render(load_result(path)) == render(first)


def test_sweep_parallel_matches_serial():
    serial = run_sweep("smoke", workers=1)
    parallel = run_sweep("smoke", workers=2)
    assert parallel == serial


def test_sweep_reuses_the_persistent_cache(tmp_path):
    cache = SimulationCache(str(tmp_path / "cache"))
    cold = run_sweep("smoke", cache=cache)
    assert cache.misses == len(jobs("smoke")) and cache.hits == 0
    warm_cache = SimulationCache(str(tmp_path / "cache"))
    warm = run_sweep("smoke", cache=warm_cache)
    assert warm_cache.misses == 0
    assert warm_cache.hits == len(jobs("smoke"))
    assert warm == cold
    assert render(warm) == render(cold)


def test_paper_matrix_is_closed_form_and_covers_all_kernels():
    cases = expand_matrix(load_matrix("paper"))
    assert cases and all(c.engine in ("analytic", "model") for c in cases)
    all_ssam = {"conv1d", "conv2d", "stencil2d", "stencil3d", "scan",
                "stencil2d-order4", "stencil2d-order6", "stencil2d-varcoef",
                "stencil2d-masked", "conv2d-pipeline"}
    assert {c.scenario for c in cases} == all_ssam
    # the model engine unlocks paper scale for every SSAM kernel
    assert {c.scenario for c in cases if c.engine == "model"} == all_ssam
    # paper scale spans the post-paper architecture axis too
    assert {c.architecture for c in cases} == {"p100", "v100", "a100", "h100"}
    from repro.scenarios.sweep import _measure_case

    payload = _measure_case("conv2d", "p100", "float32", "analytic", "paper")
    assert payload["output_digest"] is None
    assert payload["milliseconds"] > 0
    assert "oracle_max_abs_error" not in payload


def test_model_cells_run_closed_form_with_model_metadata():
    from repro.scenarios.sweep import _measure_case

    payload = _measure_case("scan", "v100", "float64", "model", "paper")
    assert payload["output_digest"] is None
    assert payload["milliseconds"] > 0
    assert payload["kernel_name"] == "ssam_scan_model"
    assert payload["parameters"]["engine"] == "model"
    assert payload["parameters"]["scheme"] == "register_cache"
    assert payload["parameters"]["occupancy"] > 0


def test_functional_cells_record_oracle_error():
    from repro.scenarios.sweep import _measure_case

    payload = _measure_case("stencil2d", "p100", "float64", "batched", "tiny")
    assert payload["output_digest"] is not None
    assert payload["oracle_max_abs_error"] <= 1e-9


# --------------------------------------------------------------- CLI path

def _main(args, capsys):
    code = runner.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_cli_produces_deterministic_json_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    cache_dir = tmp_path / "cache"
    args = ["--experiment", "sweep", "--matrix", "smoke",
            "--cache-dir", str(cache_dir), "--output-dir", str(out_dir)]
    code, first_out, _ = _main(args, capsys)
    assert code == 0
    assert "Scenario sweep" in first_out
    artifact = out_dir / "sweep.json"
    assert artifact.exists()
    first_bytes = artifact.read_bytes()
    loaded = load_result(str(artifact))
    assert runner.render_result("sweep", loaded) in first_out
    # warm rerun: identical text, identical artifact bytes, served from cache
    code, second_out, err = _main(args, capsys)
    assert code == 0
    assert second_out == first_out
    assert "0 misses" in err
    assert artifact.read_bytes() == first_bytes


def test_sweep_cli_quick_defaults_to_smoke_matrix(capsys):
    code, out, _ = _main(["--experiment", "sweep", "--quick", "--no-cache"],
                         capsys)
    assert code == 0
    assert "matrix 'smoke'" in out


def test_sweep_cli_accepts_matrix_files(tmp_path, capsys):
    path = tmp_path / "mine.json"
    path.write_text(json.dumps({"scenarios": ["scan"],
                                "architectures": ["v100"],
                                "precisions": ["float32"],
                                "engines": ["batched"],
                                "sizes": ["tiny"]}))
    code, out, _ = _main(["--experiment", "sweep", "--matrix", str(path),
                          "--no-cache"], capsys)
    assert code == 0
    assert "matrix 'mine'" in out
    assert "scan:v100:float32:batched:tiny" in out


def test_matrix_flag_requires_sweep_experiment(capsys):
    with pytest.raises(SystemExit) as excinfo:
        runner.main(["--experiment", "table1", "--matrix", "smoke"])
    assert excinfo.value.code == 2
    assert "--matrix requires" in capsys.readouterr().err

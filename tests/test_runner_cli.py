"""CLI tests for ``ssam-repro`` (the experiment runner).

Covers exit codes, unknown experiment names, ``--quick``, ``--jobs``,
``--no-cache``/``--cache-dir`` and JSON artifact emission, exercising the
whole pipeline through the same argument surface CI uses.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.experiments import load_result, runner
from repro.experiments.cache import STORE_FILENAME
from repro.experiments.parallel import resolve_workers
from repro.errors import ConfigurationError
from repro.service import store as store_mod
from repro.service.store import ResultStore


def _main(args, capsys):
    code = runner.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_single_experiment_exit_code_and_output(capsys, tmp_path):
    code, out, _ = _main(["--experiment", "table1", "--no-cache"], capsys)
    assert code == 0
    assert "Table 1" in out
    assert "Tesla V100" in out


def test_unknown_experiment_name_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        runner.main(["--experiment", "table99"])
    assert excinfo.value.code == 2  # argparse usage error
    assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        runner.run_experiment("table99")


def test_invalid_jobs_value_rejected(capsys):
    with pytest.raises(SystemExit):
        runner.main(["--experiment", "table1", "--jobs", "-3"])
    with pytest.raises(ConfigurationError):
        resolve_workers(-3)
    assert resolve_workers(0) >= 1


def test_quick_all_runs_every_section(capsys, tmp_path):
    code, out, _ = _main(["--experiment", "all", "--quick", "--no-cache"], capsys)
    assert code == 0
    for section in ("Table 1", "Table 2", "Table 3", "Figure 4a", "Figure 5d",
                    "Figure 6c", "performance-model validation"):
        assert section in out, section


def test_quick_reduces_the_sweeps():
    quick = runner.run_experiment("figure4", quick=True)
    full_sizes = runner.EXPERIMENTS["figure4"].FILTER_SIZES
    quick_sizes = runner.EXPERIMENTS["figure4"].QUICK_FILTER_SIZES
    assert len(quick_sizes) < len(full_sizes)
    assert f"{quick_sizes[-1]}x{quick_sizes[-1]}" in quick
    assert "4x4" not in quick  # 4 is only in the full sweep


def test_quick_is_honored_by_every_experiment():
    """``run_experiment('all', quick=True)`` must thread --quick uniformly:
    the experiments with real simulation work shrink it, and even the
    static tables see the flag (their results are tagged quick)."""
    results = runner.run_experiment_results("all", quick=True)
    assert all(result.quick for result in results.values())
    # table2: shorter dependent chains, same measured latency
    assert results["table2"].metadata["chain_length"] == \
        runner.table2.QUICK_CHAIN_LENGTH
    # model: reduced sweep and claim extent, same verdicts
    assert results["model"].metadata["claim_max_extent"] == \
        runner.model_validation.QUICK_CLAIM_MAX_EXTENT
    assert all(results["model"].metadata["claims"].values())
    full_rows = runner.run_experiment_results("model")["model"].rows(
        kernel="register_cache_advantage")
    quick_rows = results["model"].rows(kernel="register_cache_advantage")
    assert len(quick_rows) < len(full_rows)
    # the cross-engine cells shrink too: tiny instead of small
    assert results["model"].metadata["cross_engine"]["size"] == "tiny"


def test_jobs_flag_produces_identical_output(capsys, tmp_path):
    _, serial, _ = _main(["--experiment", "all", "--quick", "--no-cache"], capsys)
    _, parallel, _ = _main(["--experiment", "all", "--quick", "--no-cache",
                            "--jobs", "2"], capsys)
    assert parallel == serial


def test_json_artifact_emission_and_round_trip(capsys, tmp_path):
    out_dir = tmp_path / "artifacts"
    code, out, err = _main(["--experiment", "all", "--quick", "--no-cache",
                            "--output-dir", str(out_dir)], capsys)
    assert code == 0
    names = sorted(runner.EXPERIMENTS)
    assert sorted(p.name for p in out_dir.iterdir()) == \
        [f"{name}.json" for name in names]
    # every artifact loads back losslessly and re-renders the exact text
    results = runner.run_experiment_results("all", quick=True)
    for name in names:
        loaded = load_result(str(out_dir / f"{name}.json"))
        assert loaded == results[name]
        module = runner.EXPERIMENTS[name]
        assert module.render(loaded) == module.render(results[name])
        assert module.render(loaded) in out


def test_cache_dir_controls(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    _, first, _ = _main(["--experiment", "table2", "--quick",
                         "--cache-dir", str(cache_dir)], capsys)
    from repro.experiments.cache import SimulationCache

    populated = SimulationCache(str(cache_dir))
    assert populated.entry_count() > 0, "cache population expected"
    entry = populated.result_store().dump()[0]
    assert "payload" in entry and "key" in entry
    # a second run must serve from cache and print identical text
    _, second, err = _main(["--experiment", "table2", "--quick",
                            "--cache-dir", str(cache_dir)], capsys)
    assert second == first
    assert "0 misses" in err
    # --no-cache leaves the directory untouched
    no_cache_dir = tmp_path / "never"
    _main(["--experiment", "table2", "--quick", "--no-cache",
           "--cache-dir", str(no_cache_dir)], capsys)
    assert not no_cache_dir.exists()


@pytest.mark.parametrize("damage", ["garbage", "truncated"])
def test_sweep_on_a_damaged_store_prints_one_error_line(capsys, tmp_path,
                                                        damage):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    path = cache_dir / STORE_FILENAME
    if damage == "garbage":
        path.write_bytes(b"not a database " * 256)
    else:
        real = ResultStore(str(tmp_path / "real.sqlite"))
        for x in range(200):
            real.upsert({"func": "worker", "params": {"x": x}},
                        {"v": "p" * 1000})
        real.close()
        data = (tmp_path / "real.sqlite").read_bytes()
        path.write_bytes(data[:len(data) // 2])
    code, out, err = _main(["--experiment", "sweep", "--matrix", "smoke",
                            "--cache-dir", str(cache_dir)], capsys)
    assert code != 0
    assert out == ""
    (line,) = err.strip().splitlines()
    assert line.startswith(f"error: result store {str(path)!r} is not a "
                           f"usable sqlite database")


def test_sweep_on_a_locked_store_prints_one_error_line(capsys, tmp_path,
                                                       monkeypatch):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    path = cache_dir / STORE_FILENAME
    ResultStore(str(path)).close()
    monkeypatch.setattr(store_mod, "BUSY_TIMEOUT_S", 0.2)
    holder = sqlite3.connect(str(path), isolation_level=None)
    holder.execute("BEGIN EXCLUSIVE")
    try:
        code, out, err = _main(["--experiment", "sweep", "--matrix", "smoke",
                                "--cache-dir", str(cache_dir)], capsys)
    finally:
        holder.execute("ROLLBACK")
        holder.close()
    assert code == 1
    assert out == ""
    (line,) = err.strip().splitlines()
    assert line.startswith(f"error: result store {str(path)!r} stayed "
                           f"locked by another connection for 0.2 s")


def test_tune_experiment_cli_path(capsys, tmp_path):
    """``--experiment tune`` runs the two-stage autotuner end to end: report
    on stdout, JSON artifact on disk, warm rerun served from the cache."""
    out_dir = tmp_path / "artifacts"
    cache_dir = tmp_path / "cache"
    code, out, _ = _main(["--experiment", "tune", "--quick",
                          "--cache-dir", str(cache_dir),
                          "--output-dir", str(out_dir)], capsys)
    assert code == 0
    assert "Launch-configuration autotuner" in out
    assert "tune digest:" in out
    artifact = load_result(str(out_dir / "tune.json"))
    assert artifact.experiment == "tune"
    # 10 kernels x 4 architectures x 2 precisions
    assert len(artifact.measurements) == 80
    _, warm_out, warm_err = _main(["--experiment", "tune", "--quick",
                                   "--cache-dir", str(cache_dir)], capsys)
    # artifact emission goes to stderr, so stdout is byte-identical warm
    assert warm_out == out
    assert "0 misses" in warm_err


# ------------------------------------------------------ service CLI surface

def test_serve_rejects_no_cache(capsys):
    """The daemon IS the shared cache; serving without one is nonsense."""
    with pytest.raises(SystemExit) as excinfo:
        runner.main(["--experiment", "serve", "--no-cache"])
    assert excinfo.value.code == 2
    assert "--no-cache" in capsys.readouterr().err


def test_submit_flag_validation(capsys):
    for bad in (["submit", "--tune", "--matrix", "tier1"],
                ["submit", "--tune", "--refresh"],
                ["submit", "--quick"]):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(bad)
        assert excinfo.value.code == 2, bad
        capsys.readouterr()


def test_submit_without_a_running_daemon_is_a_clear_error(tmp_path):
    with pytest.raises(ConfigurationError, match="no running service"):
        runner.main(["submit", "--matrix", "smoke",
                     "--cache-dir", str(tmp_path)])


def test_submit_end_to_end_against_a_live_daemon(capsys, tmp_path):
    """``ssam-repro submit --wait`` renders the same sweep report the batch
    CLI would, from a daemon reached by explicit ``--url``."""
    import threading

    from repro.experiments.cache import SimulationCache
    from repro.service.daemon import serve

    cache = SimulationCache(str(tmp_path / "cache"))
    server, core = serve(cache, port=0, threads=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"
    out_dir = tmp_path / "artifacts"
    try:
        code, out, err = _main(["submit", "--matrix", "smoke", "--wait",
                                "--url", url, "--output-dir", str(out_dir)],
                               capsys)
        assert code == 0
        assert "submitted sweep-" in err
        assert "sweep digest:" in out
        artifacts = list(out_dir.iterdir())
        assert len(artifacts) == 1
        assert load_result(str(artifacts[0])).experiment == "sweep"
        # fire-and-forget resubmit: run id on stdout, everything cached
        code, out, err = _main(["submit", "--matrix", "smoke",
                                "--url", url], capsys)
        assert code == 0
        assert out.strip().startswith("sweep-")
        assert " 0 queued" in err
    finally:
        server.shutdown()
        server.server_close()
        core.shutdown()

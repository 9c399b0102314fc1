"""Integration tests for the table/figure experiment harnesses and the CLI."""

import pytest

from repro.analysis import (
    crossover_points,
    format_series,
    format_table,
    gcells_per_second,
    geometric_mean,
    gflops,
    speedup,
    winner,
)
from repro.errors import ConfigurationError
from repro.experiments import figure4, figure5, figure6, model_validation, table1, table3
from repro.experiments.runner import main as runner_main
from repro.experiments.runner import run_experiment, run_experiment_results


# --- analysis helpers ----------------------------------------------------------------

def test_metric_conversions():
    assert gcells_per_second(1_000_000_000, 2, 1.0) == 2.0
    assert gflops(1_000_000_000, 1, 9, 1.0) == 9.0
    assert speedup(2.0, 1.0) == 2.0
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert winner({"a": 2.0, "b": 1.0}) == "b"
    with pytest.raises(ConfigurationError):
        gcells_per_second(1, 1, 0.0)
    with pytest.raises(ConfigurationError):
        geometric_mean([])


def test_crossover_detection():
    xs = [1, 2, 3, 4]
    assert crossover_points(xs, [1, 2, 3, 4], [4, 3, 2, 1]) == [2.5]
    assert crossover_points(xs, [1, 1, 1, 1], [2, 2, 2, 2]) == []
    with pytest.raises(ConfigurationError):
        crossover_points([1], [1, 2], [1, 2])


def test_table_formatting():
    text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
    assert "a" in text and "10" in text and "0.12" in text
    assert format_table([]) == "(no data)"
    series = format_series("demo", "x", [1, 2], {"s": [1.0, None]})
    assert "demo" in series


# --- tables ---------------------------------------------------------------------------

def _result(name):
    """One experiment's full (non-quick) result, read through the pipeline."""
    return run_experiment_results(name)[name]


def test_table1_matches_paper():
    result = _result("table1")
    rows = result.rows()
    assert len(rows) == 4
    assert all(row["matches_paper"] for row in rows)
    assert "Table 1" in table1.render(result)


def test_table2_matches_paper():
    rows = _result("table2").rows()
    assert len(rows) == 6
    assert all(row["matches_paper"] for row in rows)


def test_table3_matches_paper():
    result = _result("table3")
    rows = result.rows()
    assert len(rows) == 15
    assert all(row["matches_paper"] for row in rows)
    assert "8192" in table3.render(result)


# --- figures (assertions select their points from the full results) --------------------

def _figure4_series(architecture, sizes):
    return _result("figure4").series(figure4.IMPLEMENTATIONS, architecture,
                                     [f"{s}x{s}" for s in sizes])


def _figure5_series(panel, benchmarks):
    return _result("figure5").series(figure5.IMPLEMENTATIONS, panel, benchmarks)


def test_figure4_panel_structure_and_claims():
    series = _figure4_series("p100", (3, 7, 11, 15))
    assert set(series) == set(figure4.IMPLEMENTATIONS)
    assert len(series["ssam"]) == 4
    summary = figure4.summarize(series)
    assert summary["ssam_vs_npp_geomean_speedup"] > 1.5
    assert summary["ssam_fastest_fraction"] >= 0.75


def test_figure4_arrayfire_series_has_gaps_above_16():
    series = _figure4_series("v100", (15, 16, 17, 20))
    assert series["arrayfire"][2] is None
    assert series["arrayfire"][0] is not None


def test_figure5_ssam_wins_most_benchmarks():
    series = _figure5_series("p100:float32",
                             ("2d5pt", "2d9pt", "2d25pt", "3d7pt", "poisson"))
    assert figure5.ssam_wins(series) >= 4
    throughput = series["ssam"][0]
    assert 30.0 < throughput < 95.0   # paper: ~60 GCells/s for 2d5pt on P100


def test_figure5_double_precision_roughly_halves_throughput():
    single = _figure5_series("p100:float32", ("2d5pt",))
    double = _figure5_series("p100:float64", ("2d5pt",))
    ratio = single["ssam"][0] / double["ssam"][0]
    assert 1.5 < ratio < 2.6


def test_figure5_v100_faster_than_p100():
    p100 = _figure5_series("p100:float32", ("2d5pt",))
    v100 = _figure5_series("v100:float32", ("2d5pt",))
    assert v100["ssam"][0] > p100["ssam"][0]


def test_figure6_panel_contains_published_references():
    series = _result("figure6").series(figure6.IMPLEMENTATIONS, "p100:float32",
                                       ("2d5pt", "3d7pt"))
    assert series["diffusion"][1] == pytest.approx(92.7)
    assert series["bricks"][1] == pytest.approx(41.4)
    assert series["ssam"][0] > 0


def test_model_validation_claims_hold():
    claims = model_validation.claims()
    assert claims["eq5_advantage_positive_for_all_M_N_ge_2"]
    assert claims["halo_adjusted_advantage_grows_with_filter"]
    assert claims["halo_adjusted_advantage_positive_for_M_ge_5"]
    assert claims["halo_adjusted_advantage_positive_for_M_ge_6_on_modern"]
    # the advantage sweep covers the paper parts plus ampere/hopper
    assert len(_result("model").rows(kernel="register_cache_advantage")) == 32


def test_paper_positivity_claim_does_not_extrapolate_to_hopper():
    """H100's DRAM latency flips the M=5 halo-adjusted advantage negative."""
    claims = model_validation.claims(architectures=("h100",))
    assert claims["eq5_advantage_positive_for_all_M_N_ge_2"]
    assert claims["halo_adjusted_advantage_grows_with_filter"]
    assert not claims["halo_adjusted_advantage_positive_for_M_ge_5"]
    assert model_validation.claims(architectures=("a100",))[
        "halo_adjusted_advantage_positive_for_M_ge_5"]


# --- runner / CLI ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["table1", "table2", "table3", "model"])
def test_run_experiment_by_name(name):
    assert len(run_experiment(name)) > 50


def test_run_experiment_unknown_name():
    with pytest.raises(SystemExit):
        run_experiment("table99")


def test_cli_quick_figure(capsys):
    assert runner_main(["--experiment", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out

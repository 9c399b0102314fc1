"""Tests for the trace-IR static verifier (repro.analysis).

Covers the fixture-kernel acceptance gate — each deliberately planted
defect is flagged with the right category and located at the right phase
and access node — the all-scenarios-clean gate over the registry, the
static-vs-dynamic counter cross-check, the dynamic race-checking
confirmation mode, and the analyze experiment surface (CLI result, golden
report, store + daemon endpoint).
"""

from __future__ import annotations

import os
import pathlib

import pytest

import repro.scenarios.builtin  # noqa: F401  (populate the registry)
from repro.analysis.ranges import Interval
from repro.analysis.report import BOUNDS, COVERAGE, DIVERGENCE, ERROR, PERF, RACE, WARNING
from repro.analysis.scenario import analyze_scenario, render, run_analyze, supports_analysis
from repro.analysis.verify import verify_trace
from repro.errors import SimulationError
from repro.gpu.check import SharedMemoryRaceError, shared_race_checking
from repro.scenarios.registry import all_scenarios

from fixtures_kernels import (
    build_fixed_stencil,
    build_oob_conv,
    build_racy_stencil,
    build_strided_scan,
    record_fixture_trace,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _verify_fixture(builder, **kwargs):
    kernel, config, args = builder()
    trace, chunk, counters = record_fixture_trace(kernel, config, args,
                                                  **kwargs)
    return verify_trace(trace, config.grid_dim, "p100", chunk_blocks=chunk,
                        dynamic_counters=counters,
                        kernel_name=kernel.name), trace


# ------------------------------------------------------------ interval sanity

def test_interval_basics():
    a = Interval(0, 10)
    b = Interval(5, 20)
    assert a.overlaps(b)
    assert a.intersect(b).to_tuple() == (5.0, 10.0)
    assert a.hull(b).to_tuple() == (0.0, 20.0)
    assert Interval(3, 1).empty
    assert not a.contains(11)


# ------------------------------------------------------------ fixture kernels

def test_racy_stencil_is_flagged_as_race_with_location():
    report, trace = _verify_fixture(build_racy_stencil)
    races = report.by_category().get(RACE)
    assert races, report.render()
    finding = next(f for f in report.findings if f.category == RACE)
    assert finding.severity == ERROR
    assert finding.phase == 0, "the missing barrier leaves both accesses in phase 0"
    assert finding.detail["kind"] in ("read-write", "write-read")
    assert trace.nodes[finding.node].op in ("load_shared", "store_shared")
    assert finding.detail["buffer"] == "tile"


def test_fixed_stencil_is_clean():
    report, _ = _verify_fixture(build_fixed_stencil)
    assert report.ok, report.render()
    assert report.phases == 2, "one barrier splits the kernel into two phases"


def test_oob_conv_is_flagged_with_block_and_index():
    # recording block 0 succeeds — the off-by-one halo only trips in the
    # last block, which the static concrete check covers anyway
    report, trace = _verify_fixture(build_oob_conv)
    finding = next(f for f in report.findings if f.category == BOUNDS)
    assert finding.severity == ERROR
    assert trace.nodes[finding.node].op == "load_global"
    assert finding.detail["buffer"] == "src"
    # length = 4 blocks * 64 threads; the violating index is src[length]
    assert finding.detail["index"] == 4 * 64
    assert finding.detail["block"] == 3
    assert finding.detail["thread"] == 63
    # no other defect classes fire
    fired = {k for k, v in report.by_category().items() if v}
    assert fired == {BOUNDS}


def test_oob_conv_dynamic_confirmation():
    """The engine itself faults once the faulty block actually executes."""
    kernel, config, args = build_oob_conv()
    with pytest.raises(SimulationError):
        kernel.launch(config, args, architecture="p100")


def test_strided_scan_is_flagged_as_bank_conflict_lint():
    report, trace = _verify_fixture(build_strided_scan)
    perfs = [f for f in report.findings if f.category == PERF]
    assert perfs, report.render()
    smem = [f for f in perfs if "bank" in f.message]
    assert smem and all(f.severity == WARNING for f in smem)
    assert smem[0].detail["worst_degree"] == 32
    assert trace.nodes[smem[0].node].op in ("load_shared", "store_shared")
    # the lint is advisory: no correctness errors, and the static counter
    # prediction still matches the dynamic engine exactly
    assert not report.errors, report.render()
    assert report.by_category()[DIVERGENCE] == 0


def test_cross_check_flags_counter_divergence():
    kernel, config, args = build_fixed_stencil()
    trace, chunk, counters = record_fixture_trace(kernel, config, args)
    counters = dict(counters)
    counters["smem_load"] += 7.0  # simulate an accounting drift
    report = verify_trace(trace, config.grid_dim, "p100", chunk_blocks=chunk,
                          dynamic_counters=counters, kernel_name=kernel.name)
    divergent = [f for f in report.findings if f.category == DIVERGENCE]
    assert len(divergent) == 1 and divergent[0].severity == ERROR
    assert divergent[0].detail["field"] == "smem_load"


def test_sampled_grids_carry_a_coverage_finding():
    kernel, config, args = build_fixed_stencil()
    trace, _, _ = record_fixture_trace(kernel, config, args)
    report = verify_trace(trace, config.grid_dim, "p100",
                          max_concrete_blocks=2, kernel_name=kernel.name)
    assert not report.full_concrete_coverage
    assert report.by_category()[COVERAGE] > 0


# --------------------------------------------------- dynamic race checking

def test_dynamic_checker_confirms_the_static_race():
    kernel, config, args = build_racy_stencil()
    with shared_race_checking() as checker:
        kernel.launch(config, args, architecture="p100")
    assert checker.events
    event = checker.events[0]
    assert event["kind"] == "read-after-write"
    assert event["shared"] == "tile"
    assert event["phase"] == 0


@pytest.mark.parametrize("num_blocks, batch_size", [(1, "auto"), (4, 1)],
                         ids=["one-block-grid", "batch-of-one"])
def test_dynamic_checker_sees_single_block_launches(num_blocks, batch_size):
    """Every launch that runs one block at a time is race-checked too."""
    kernel, config, args = build_racy_stencil(num_blocks=num_blocks)
    with shared_race_checking() as checker:
        kernel.launch(config, args, "p100", batch_size=batch_size)
    assert checker.events
    assert {(e["kind"], e["shared"]) for e in checker.events} == \
        {("read-after-write", "tile")}


def test_dynamic_checker_raises_when_not_record_only():
    kernel, config, args = build_racy_stencil()
    with pytest.raises(SharedMemoryRaceError):
        with shared_race_checking(record_only=False):
            kernel.launch(config, args, architecture="p100")


def test_dynamic_checker_is_quiet_on_the_fixed_stencil():
    kernel, config, args = build_fixed_stencil()
    with shared_race_checking() as checker:
        kernel.launch(config, args, architecture="p100")
    assert checker.events == []


def test_dynamic_checker_is_quiet_on_a_real_scenario():
    from repro.scenarios.registry import ScenarioCase, get_scenario

    with shared_race_checking() as checker:
        get_scenario("scan").run_case(
            ScenarioCase("scan", "p100", "float32", "batched", "tiny"))
    assert checker.events == []


# ----------------------------------------------------- the registry gate

@pytest.mark.parametrize("name", [s.name for s in all_scenarios()
                                  if supports_analysis(s)])
def test_every_replay_capable_scenario_verifies_clean(name):
    analysis = analyze_scenario(name)
    assert analysis.ok, analysis.render()
    assert analysis.reports, "at least one trace must be captured"
    for report in analysis.reports:
        assert report.dynamic_counters is not None
        assert report.predicted_counters


def test_scenario_analysis_method_is_the_same_surface():
    from repro.scenarios.registry import get_scenario

    analysis = get_scenario("conv1d").analysis()
    assert analysis.ok and analysis.scenario == "conv1d"


def test_scenario_analysis_round_trips():
    from repro.analysis.scenario import ScenarioAnalysis

    analysis = analyze_scenario("scan")
    clone = ScenarioAnalysis.from_dict(analysis.to_dict())
    assert clone.to_dict() == analysis.to_dict()
    assert clone.ok == analysis.ok


# ------------------------------------------------------- experiment surface

@pytest.fixture(scope="module")
def quick_analyze():
    return run_analyze(quick=True)


def test_quick_analyze_result_shape(quick_analyze):
    result = quick_analyze
    assert result.experiment == "analyze"
    names = {m.kernel for m in result.measurements}
    expected = {s.name for s in all_scenarios() if supports_analysis(s)}
    assert names == expected
    for m in result.measurements:
        assert m.unit == "findings"
        assert m.value == 0.0
        assert m.extra["ok"] is True
        assert m.milliseconds is not None and m.milliseconds > 0


def test_analyze_artifact_round_trips(quick_analyze, tmp_path):
    from repro.experiments.results import load_result

    path = quick_analyze.save(str(tmp_path / "analyze.json"))
    assert load_result(path) == quick_analyze


def test_quick_analyze_report_matches_golden(quick_analyze):
    text = render(quick_analyze) + "\n"
    assert "cells clean" in text
    path = GOLDEN_DIR / "analyze.txt"
    if os.environ.get("SSAM_UPDATE_GOLDENS"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with SSAM_UPDATE_GOLDENS=1")
    assert text == path.read_text(encoding="utf-8"), (
        "quick analyze report drifted from its committed golden fixture; "
        "if the change is intentional, regenerate with SSAM_UPDATE_GOLDENS=1")


def test_runner_dispatches_analyze(quick_analyze):
    from repro.experiments import runner

    assert runner.render_result("analyze", quick_analyze) == render(quick_analyze)


# ------------------------------------------------------------ store + daemon

def test_store_analysis_report_round_trip(tmp_path):
    from repro.service.store import ResultStore

    store = ResultStore(str(tmp_path / "store.sqlite"))
    assert store.schema_version() == 4
    analysis = analyze_scenario("scan")
    store.put_analysis_report(analysis.to_dict())
    got = store.get_analysis_report("scan", "p100")
    assert got == analysis.to_dict()
    assert store.get_analysis_report("scan", "v100") is None
    rows = store.list_analysis_reports(current_only=True)
    assert len(rows) == 1 and rows[0]["ok"] is True


def test_store_analysis_report_last_writer_wins(tmp_path):
    from repro.service.store import ResultStore

    store = ResultStore(str(tmp_path / "store.sqlite"))
    analysis = analyze_scenario("scan").to_dict()
    store.put_analysis_report(analysis)
    refreshed = dict(analysis)
    refreshed["fallbacks"] = [{"kernel": "x", "reason": "test refresh"}]
    store.put_analysis_report(refreshed)
    assert store.get_analysis_report("scan", "p100") == refreshed
    assert len(store.list_analysis_reports()) == 1


def test_service_analysis_endpoint_computes_then_serves(tmp_path):
    from repro.experiments.cache import SimulationCache
    from repro.service.daemon import SweepService

    service = SweepService(SimulationCache(str(tmp_path)), threads=1)
    try:
        first = service.analysis("conv1d")
        assert first["source"] == "computed"
        assert first["analysis"]["ok"] is True
        second = service.analysis("conv1d")
        assert second["source"] == "store"
        assert second["analysis"] == first["analysis"]
        index = service.analysis_index()
        assert index["count"] == 1
        assert index["analysis_reports"][0]["scenario"] == "conv1d"
    finally:
        service.shutdown()


# -------------------------------------------------- sweep fallback surfacing

def test_sweep_payload_reports_replay_fallbacks():
    from repro.scenarios.sweep import _measure_case

    payload = _measure_case("scan", "p100", "float32", "replay", "tiny")
    assert payload["replay_fallback"] == []
    batched = _measure_case("scan", "p100", "float32", "batched", "tiny")
    assert "replay_fallback" not in batched


def test_sweep_render_surfaces_fallbacks():
    from repro.experiments.results import ExperimentResult, Measurement
    from repro.scenarios.sweep import render as sweep_render

    measurement = Measurement(
        kernel="scan", architecture="p100", workload="tiny/replay/float32",
        value=1.0, unit="ms", milliseconds=1.0,
        extra={"case_id": "scan:p100:float32:replay:tiny",
               "replay_fallback": [{"kernel": "k", "reason": "because"}]})
    result = ExperimentResult(
        experiment="sweep", title="t", quick=True,
        measurements=[measurement],
        metadata={"scenarios": ["scan"], "sweep_digest": "d"})
    text = sweep_render(result)
    assert "replay fallback: scan:p100:float32:replay:tiny: k: because" in text


def test_capture_records_fallbacks_as_coverage_findings(monkeypatch):
    """An untraceable kernel surfaces as a coverage finding, not silence."""
    from repro.trace.replay import capture_traces, record_fallback

    with capture_traces() as capture:
        record_fallback("fake_kernel", "misc op not traceable")
    assert capture.fallbacks == [
        {"kernel": "fake_kernel", "reason": "misc op not traceable"}]

"""Tests for the launch-configuration autotuner (design space + tuner).

Covers the space pre-filtering invariants, the two-stage pipeline's
determinism across worker counts and cache states, the acceptance property
that the best-found configuration never predicts slower than the paper's
default, and a golden ``--quick`` tune report fixture (regenerate with
``SSAM_UPDATE_GOLDENS=1``).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cache import SimulationCache
from repro.scenarios import get_scenario
from repro.tuning import (
    FULL_SPACE,
    PAPER_DEFAULT,
    QUICK_SPACE,
    DesignSpace,
    paper_default_for,
    point_is_valid,
    valid_points,
)
from repro.tuning.tuner import render, run_tuning, tune_cells

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


# ------------------------------------------------------------- design space

def test_space_candidates_project_onto_the_tunable_envelope():
    space = DesignSpace(outputs_per_thread=(4, 2), block_threads=(256, 128))
    both = space.candidates(("outputs_per_thread", "block_threads"))
    assert len(both) == 4
    assert {"outputs_per_thread": 2, "block_threads": 128} in both
    # a B-only kernel sees each block size exactly once, with no P axis
    b_only = space.candidates(("block_threads",))
    assert b_only == [{"block_threads": 128}, {"block_threads": 256}]
    assert space.candidates(()) == [{}]
    with pytest.raises(ConfigurationError):
        DesignSpace(outputs_per_thread=(), block_threads=(128,))


def test_invalid_block_sizes_are_filtered_out():
    conv2d = get_scenario("conv2d")
    bad = DesignSpace(outputs_per_thread=(4,), block_threads=(100, 2048, 128))
    points = valid_points(conv2d, "tiny", "p100", "float32", bad)
    # 100 (not a warp multiple) and 2048 (over the limit) are dropped
    assert points == [{"block_threads": 128, "outputs_per_thread": 4}]
    assert not point_is_valid(conv2d, "tiny", "p100", "float32",
                              {"outputs_per_thread": 4, "block_threads": 100})


def test_clamped_register_requests_are_filtered_out():
    """A P that the register budget clamps resolves to the same plan as the
    smaller request, so the space must not enumerate it twice."""
    conv2d = get_scenario("conv2d")
    huge = DesignSpace(outputs_per_thread=(4, 64), block_threads=(128,))
    points = valid_points(conv2d, "tiny", "p100", "float64", huge)
    assert {"outputs_per_thread": 64, "block_threads": 128} not in points
    assert {"outputs_per_thread": 4, "block_threads": 128} in points


def test_paper_default_is_always_part_of_the_evaluated_set():
    for name in ("conv1d", "conv2d", "stencil2d", "stencil3d", "scan"):
        scenario = get_scenario(name)
        default = paper_default_for(scenario)
        assert set(default) == set(scenario.tunables) & set(PAPER_DEFAULT)
        # even a space that does not contain the default must evaluate it
        narrow = DesignSpace(outputs_per_thread=(8,), block_threads=(512,))
        points = valid_points(scenario, "tiny", "p100", "float32", narrow)
        assert default in points


def test_full_space_is_the_section_7_1_grid():
    assert FULL_SPACE.outputs_per_thread == (1, 2, 3, 4, 5, 6, 7, 8)
    assert FULL_SPACE.block_threads == (64, 128, 256, 512)
    assert FULL_SPACE.size == 32
    assert QUICK_SPACE.size == 4


# ------------------------------------------------------------------- tuner

TUNED_KERNELS = ("conv1d", "conv2d", "stencil2d", "stencil3d", "scan",
                 "stencil2d-order4", "stencil2d-order6", "stencil2d-varcoef",
                 "stencil2d-masked", "conv2d-pipeline")
TUNED_ARCHITECTURES = ("p100", "v100", "a100", "h100")


def test_tune_cells_cover_the_paper_matrix():
    cells = tune_cells()
    ids = [cell.cell_id for cell in cells]
    # 10 kernels x 4 architectures x 2 precisions
    assert len(ids) == 80
    for kernel in TUNED_KERNELS:
        for arch in TUNED_ARCHITECTURES:
            for prec in ("float32", "float64"):
                assert f"{kernel}:{arch}:{prec}" in ids
    with pytest.raises(ConfigurationError):
        tune_cells(scenarios=["conv2d-npp"])  # baselines declare no tunables


@pytest.fixture(scope="module")
def quick_tuning(tmp_path_factory):
    """One quick tune through the cached pipeline: cold, warm and sharded."""
    cache = SimulationCache(str(tmp_path_factory.mktemp("tune-cache")))
    cold = run_tuning(quick=True, workers=1, cache=cache)
    assert cache.misses > 0 and cache.hits == 0

    warm_cache = SimulationCache(cache.directory)
    warm = run_tuning(quick=True, workers=1, cache=warm_cache)
    # the warm rerun is 100% cache hits across both stages
    assert warm_cache.misses == 0 and warm_cache.hits == cache.misses

    sharded_cache = SimulationCache(str(tmp_path_factory.mktemp("tune-cache-p")))
    sharded = run_tuning(quick=True, workers=3, cache=sharded_cache)
    return cold, warm, sharded


def test_quick_tune_is_deterministic_across_workers_and_cache(quick_tuning):
    cold, warm, sharded = quick_tuning
    assert warm == cold
    assert sharded == cold
    assert render(sharded) == render(cold)


def test_best_found_never_predicts_slower_than_the_paper_default(quick_tuning):
    cold, _, _ = quick_tuning
    assert len(cold.measurements) == 80
    for measurement in cold.measurements:
        extra = measurement.extra
        assert extra["best_model_ms"] <= extra["default_model_ms"], extra["cell_id"]
        assert extra["model_speedup"] >= 1.0
        assert extra["points"] >= 1


def test_model_and_simulator_agree_on_an_unambiguous_space(tmp_path):
    """On a space where the ranking is clear-cut (P=4 vs the reuse-free
    P=1), the model stage's winner must also win the batched confirmation."""
    cache = SimulationCache(str(tmp_path / "c"))
    result = run_tuning(scenarios=["conv2d"], architectures=["p100"],
                        precisions=["float32"],
                        space=DesignSpace(outputs_per_thread=(1, 4),
                                          block_threads=(128,)),
                        confirm_size="small", top_k=2, cache=cache)
    (measurement,) = result.measurements
    assert measurement.extra["best"] == "P4,B128"
    assert measurement.extra["confirm_best"] == "P4,B128"
    assert measurement.extra["confirm_agrees"] is True
    (cell,) = result.metadata["cells"]
    # both stages rank the sliding-window configuration first
    assert [row["label"] for row in cell["explored"]][0] == "P4,B128"
    assert [row["label"] for row in cell["confirmed"]][0] == "P4,B128"
    # the confirmation runs are functionally correct, not just fast
    for row in cell["confirmed"]:
        assert row["oracle_max_abs_error"] < 1e-5


def test_tune_artifact_round_trips(quick_tuning, tmp_path):
    from repro.experiments.results import load_result

    cold, _, _ = quick_tuning
    path = cold.save(str(tmp_path / "tune.json"))
    assert load_result(path) == cold


# ------------------------------------------------------------------- golden

def test_quick_tune_report_matches_golden(quick_tuning):
    cold, _, _ = quick_tuning
    text = render(cold) + "\n"
    # the golden report pins the post-paper architecture legs too
    assert "conv2d:h100:float32" in text
    assert "stencil2d-masked:a100:float64" in text
    path = GOLDEN_DIR / "tune.txt"
    if os.environ.get("SSAM_UPDATE_GOLDENS"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with SSAM_UPDATE_GOLDENS=1")
    assert text == path.read_text(encoding="utf-8"), (
        "quick tune report drifted from its committed golden fixture; "
        "if the change is intentional, regenerate with SSAM_UPDATE_GOLDENS=1")


# ----------------------------------------------------------- search layer

def test_get_strategy_resolves_names_and_instances():
    from repro.tuning import ExhaustiveSearch, GuidedSearch, get_strategy

    assert isinstance(get_strategy("exhaustive"), ExhaustiveSearch)
    assert isinstance(get_strategy("guided"), GuidedSearch)
    custom = GuidedSearch(budget_fraction=0.25)
    assert get_strategy(custom) is custom
    with pytest.raises(ConfigurationError, match="unknown search strategy"):
        get_strategy("simulated-annealing")
    with pytest.raises(ConfigurationError, match="budget_fraction"):
        GuidedSearch(budget_fraction=0.0)


def test_budget_for_caps_large_spaces_and_exhausts_small_ones():
    from repro.tuning import budget_for

    assert budget_for(4) == 4          # at or under the threshold: exhaust
    assert budget_for(8) == 8
    assert budget_for(32) == 12        # floor(0.4 * 32)
    assert budget_for(96) == 38
    assert budget_for(9, budget_fraction=0.1) == 1   # never below one point


def test_session_protocol_rejects_misuse():
    from repro.tuning.search import ExhaustiveSearch, point_key

    points = [{"block_threads": b} for b in (64, 128)]
    session = ExhaustiveSearch().session(points)
    batch = session.propose()
    assert batch == points
    with pytest.raises(ConfigurationError, match="observations outstanding"):
        session.propose()
    with pytest.raises(ConfigurationError, match="no observation"):
        session.observe({point_key(points[0]): 1.0})
    session.observe({point_key(p): float(i) for i, p in enumerate(batch)})
    assert session.propose() == []
    best_point, best_ms = session.best()
    assert (best_point, best_ms) == ({"block_threads": 64}, 0.0)


def test_guided_session_walks_to_the_optimum_within_budget():
    """On a separable landscape, coordinate descent from the paper default
    must reach the global best with far fewer evaluations than the grid."""
    from repro.tuning.search import GuidedSearch, point_key

    space = DesignSpace()          # the 8x4 Section 7.1 grid, 32 points
    points = space.candidates(("outputs_per_thread", "block_threads"))

    def model_ms(point):           # separable bowl, optimum at P=6, B=256
        return ((point["outputs_per_thread"] - 6) ** 2
                + (point["block_threads"] / 256 - 1) ** 2 + 1.0)

    session = GuidedSearch().session(points, seed=PAPER_DEFAULT)
    while True:
        batch = session.propose()
        if not batch:
            break
        session.observe({point_key(p): model_ms(p) for p in batch})
    best_point, _ = session.best()
    assert best_point == {"outputs_per_thread": 6, "block_threads": 256}
    assert session.evaluations <= 12   # floor(0.4 * 32)


def test_guided_budget_smaller_than_first_sweep_still_evaluates_the_seed():
    """When the per-cell budget is smaller than the opening axis sweep, the
    seed leads the batch so truncation can never cut it off — best() then
    always has the (clamped) paper default to fall back on."""
    from repro.tuning.search import GuidedSearch, point_key

    space = DesignSpace()          # 32 points; opening P sweep has 8
    points = space.candidates(("outputs_per_thread", "block_threads"))
    session = GuidedSearch(budget_fraction=4 / 32).session(points,
                                                           seed=PAPER_DEFAULT)
    batch = session.propose()
    assert len(batch) == 4, "the budget caps the opening sweep"
    assert batch[0] == PAPER_DEFAULT, "the seed must survive truncation"
    session.observe({point_key(p): 1.0 for p in batch})
    assert session.propose() == []          # budget exhausted
    assert PAPER_DEFAULT in session.evaluated_points()


def test_guided_matches_the_exhaustive_oracle_on_pinned_cells(tmp_path):
    """Acceptance: on a pinned cell subset the guided search lands on the
    same best configuration as exhaustive enumeration while spending at
    most 40% of its model evaluations."""
    kwargs = dict(scenarios=["conv2d", "stencil2d", "scan"],
                  architectures=["p100", "h100"], precisions=["float32"],
                  confirm=False, cache=None)
    oracle = run_tuning(search="exhaustive", **kwargs)
    guided = run_tuning(search="guided", **kwargs)
    oracle_best = {m.extra["cell_id"]: (m.extra["best"],
                                        m.extra["best_model_ms"])
                   for m in oracle.measurements}
    for measurement in guided.measurements:
        extra = measurement.extra
        assert (extra["best"],
                extra["best_model_ms"]) == oracle_best[extra["cell_id"]]
        if extra["space_points"] > 8:
            assert extra["evaluated"] <= int(0.4 * extra["space_points"])
        else:
            # tiny spaces are exhausted outright — budgeting them adds noise
            assert extra["evaluated"] == extra["space_points"]
    searched = [m.extra for m in guided.measurements
                if m.extra["space_points"] > 8]
    assert searched, "the pinned subset must include searchable spaces"
    assert (sum(e["evaluated"] for e in searched)
            <= 0.4 * sum(e["space_points"] for e in searched))
    assert guided.metadata["search"] == "guided"
    assert "search=guided" in render(guided)


def test_exhaustive_remains_the_default_and_reports_full_coverage():
    result = run_tuning(scenarios=["scan"], architectures=["p100"],
                        precisions=["float32"], confirm=False, cache=None)
    assert result.metadata["search"] == "exhaustive"
    totals = result.metadata["evaluations"]
    assert totals["evaluated"] == totals["space"]


# ------------------------------------------------------ extended space (R)

def test_extended_space_adds_the_block_rows_axis():
    from repro.tuning import EXTENDED_SPACE, canonical_point

    assert EXTENDED_SPACE.block_rows == (1, 2, 4)
    assert EXTENDED_SPACE.size == 8 * 6 * 3
    assert "block_rows" in EXTENDED_SPACE.describe()
    # the classic space never mentions the axis it does not span
    assert "block_rows" not in FULL_SPACE.describe()
    points = EXTENDED_SPACE.candidates(
        ("outputs_per_thread", "block_threads", "block_rows"))
    # R=1 is canonical: never spelled out, so classic points keep their
    # historical identity (case ids, cache keys, plan fingerprints)
    assert {"outputs_per_thread": 4, "block_threads": 128} in points
    assert all("block_rows" not in p or p["block_rows"] > 1 for p in points)
    assert {"outputs_per_thread": 4, "block_threads": 128,
            "block_rows": 2} in points
    assert canonical_point({"block_threads": 128, "block_rows": 1}) == {
        "block_threads": 128}
    # scenarios that do not tune R see the same projection as before
    b_only = EXTENDED_SPACE.candidates(("block_threads",))
    assert all(set(p) == {"block_threads"} for p in b_only)


def test_extended_space_points_are_valid_or_filtered():
    from repro.tuning import EXTENDED_SPACE

    conv2d = get_scenario("conv2d")
    points = valid_points(conv2d, "tiny", "p100", "float32", EXTENDED_SPACE)
    for point in points:
        rows = point.get("block_rows", 1)
        warps = point.get("block_threads", 128) // 32
        assert warps % rows == 0, point


def test_paper_default_clamps_through_the_validity_filter():
    """Where the raw paper default is invalid for a cell, the seed is the
    clamped equivalent — the plan the default would actually build."""
    conv2d = get_scenario("conv2d")
    raw = paper_default_for(conv2d)
    clamped = paper_default_for(conv2d, "tiny", "p100", "float64")
    plan = conv2d.build_plan("tiny", "p100", "float64")
    assert clamped["outputs_per_thread"] == plan.outputs_per_thread
    assert clamped["block_threads"] == raw["block_threads"]
    assert point_is_valid(conv2d, "tiny", "p100", "float64", clamped)


# ------------------------------------------------------ block_rows kernels

def test_block_rows_execution_matches_oracle_and_replay():
    from repro.scenarios.sweep import run_sweep

    matrix = {"scenarios": ["conv2d", "stencil2d"],
              "architectures": ["p100"], "precisions": ["float32"],
              "engines": ["batched", "replay"], "sizes": ["tiny"],
              "plan_kwargs": [{"block_rows": 2}]}
    result = run_sweep(matrix)
    rows = {(m.kernel, m.extra["engine"]): m for m in result.measurements}
    assert len(rows) == 4
    for (scenario, engine), measurement in rows.items():
        assert measurement.extra["oracle_max_abs_error"] < 1e-5, (scenario,
                                                                  engine)
    for scenario in ("conv2d", "stencil2d"):
        batched = rows[(scenario, "batched")]
        replay = rows[(scenario, "replay")]
        # replay counters are bit-identical to batched, so simulated times
        # must match exactly for the banded block shape too
        assert replay.value == batched.value


def test_block_rows_must_divide_the_warp_count():
    conv2d = get_scenario("conv2d")
    bad = {"block_threads": 128, "block_rows": 3}   # 4 warps, 3 bands
    with pytest.raises(ConfigurationError, match="block rows"):
        conv2d.build_plan("tiny", "p100", "float32", plan_kwargs=bad)
    assert not point_is_valid(conv2d, "tiny", "p100", "float32", bad)


# ----------------------------------------------------- tuning database I/O

def test_run_tuning_persists_rows_the_resolver_serves(tmp_path):
    from repro.core.launch_defaults import (
        lookup_tuned_config,
        tuning_database,
    )

    cache = SimulationCache(str(tmp_path / "c"))
    result = run_tuning(scenarios=["conv2d"], architectures=["p100"],
                        precisions=["float32"],
                        space=DesignSpace(outputs_per_thread=(1, 4),
                                          block_threads=(128,)),
                        confirm=False, cache=cache)
    (measurement,) = result.measurements
    with tuning_database(cache.directory):
        found = lookup_tuned_config("conv2d", "p100", "float32")
    assert found is not None
    assert found["plan_kwargs"] == measurement.extra["best_plan_kwargs"]
    assert found["search"] == "exhaustive"
    assert found["model_ms"] == measurement.extra["best_model_ms"]
    # outside the context manager the database is invisible again
    assert lookup_tuned_config("conv2d", "p100", "float32") is None


def test_quick_rerun_never_clobbers_a_full_space_recommendation(tmp_path):
    """A --quick (reduced-space) tune against the same shared cache writes
    its own space-keyed row; the resolver keeps serving the full-space
    best, so planner defaults never silently degrade."""
    from repro.core.launch_defaults import (
        lookup_tuned_config,
        tuning_database,
    )

    cache = SimulationCache(str(tmp_path / "c"))
    kwargs = dict(scenarios=["conv2d"], architectures=["p100"],
                  precisions=["float32"], confirm=False, cache=cache)
    full = run_tuning(**kwargs)
    (full_m,) = full.measurements
    # a degenerate space: only the paper default, so its best can never
    # beat the full grid's
    run_tuning(space=DesignSpace(outputs_per_thread=(4,),
                                 block_threads=(128,)), **kwargs)
    with tuning_database(cache.directory):
        found = lookup_tuned_config("conv2d", "p100", "float32")
    assert found is not None
    assert found["plan_kwargs"] == full_m.extra["best_plan_kwargs"]
    assert found["model_ms"] == full_m.extra["best_model_ms"]
    store = cache.result_store()
    assert store.tuned_config_count() == 2, (
        "the reduced-space run keeps its own row instead of clobbering")


def test_uncached_tuning_runs_persist_nothing(tmp_path):
    result = run_tuning(scenarios=["scan"], architectures=["p100"],
                        precisions=["float32"], confirm=False, cache=None)
    assert len(result.measurements) == 1
    assert not list(tmp_path.iterdir())

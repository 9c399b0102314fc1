"""Tests for the SSAM core: register cache, blocking, J=(O,D,X,Y), Section 5 model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.convolution.spec import ConvolutionSpec
from repro.core.blocking import OverlappedBlocking, SharedMemoryBlocking
from repro.core.dependency import (
    compare_dependencies,
    convolution_dependency,
    critical_path_cycles,
    horizontal_transfer_fraction,
    scan_dependency,
    shuffle_count,
    shuffle_schedule,
    stencil_dependency,
    validate_dependency,
)
from repro.core.model import Operation, RegisterBinding, SystolicProgram
from repro.core.performance_model import (
    average_advantage,
    compare_latencies,
    halo_ratio,
    halo_ratio_upper_bound,
    latency_advantage,
    predicted_speedup,
    register_cache_latency,
    shared_memory_latency,
)
from repro.core.plan import plan_convolution, plan_stencil
from repro.core.register_cache import RegisterCachePlan, choose_plan, max_outputs_per_thread
from repro.errors import ConfigurationError, DependencyError, ResourceExhaustedError
from repro.stencils.catalog import get_stencil


# --- register cache (Equation 3) -------------------------------------------------

@pytest.mark.parametrize("n, p, c", [(3, 4, 6), (5, 4, 8), (1, 1, 1), (20, 4, 23)])
def test_cache_values_equation3(n, p, c):
    assert RegisterCachePlan(filter_height=n, outputs_per_thread=p).cache_values == c


def test_register_plan_double_precision_uses_twice_the_registers():
    single = RegisterCachePlan(5, 4, precision="float32")
    double = RegisterCachePlan(5, 4, precision="float64")
    assert double.registers_per_thread - 18 == 2 * (single.registers_per_thread - 18)


def test_register_plan_validation_and_spill():
    ok = RegisterCachePlan(5, 4).validate("p100")
    assert ok.fits("p100")
    huge = RegisterCachePlan(200, 40, precision="float64")
    assert not huge.fits("p100")
    with pytest.raises(ResourceExhaustedError):
        huge.validate("p100")


def test_register_plan_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        RegisterCachePlan(0, 4)
    with pytest.raises(ConfigurationError):
        RegisterCachePlan(3, 0)


def test_choose_plan_prefers_paper_default_p4():
    plan = choose_plan(5, "p100", "float32", requested_outputs=4)
    assert plan.outputs_per_thread == 4
    assert plan.fits("p100")


def test_choose_plan_shrinks_p_when_registers_tight():
    plan = choose_plan(100, "p100", "float64", requested_outputs=64)
    assert plan.outputs_per_thread < 64
    assert plan.fits("p100")


def test_max_outputs_per_thread_monotone_in_filter_height():
    assert max_outputs_per_thread(3, "p100") >= max_outputs_per_thread(21, "p100")


def test_warp_cache_bytes():
    plan = RegisterCachePlan(5, 4)
    assert plan.warp_cache_bytes == 8 * 32 * 4
    assert plan.reuse_factor == pytest.approx(4 * 5 / 8)


# --- overlapped blocking (Sections 4.5/4.7/5.3) ------------------------------------

def test_valid_outputs_per_warp():
    blocking = OverlappedBlocking(filter_width=5, filter_height=5, outputs_per_thread=4)
    assert blocking.valid_outputs_x == 28
    assert blocking.valid_outputs_per_warp == 112
    assert blocking.cached_elements_per_warp == 32 * 8


def test_grid_dimensions_match_section47():
    blocking = OverlappedBlocking(filter_width=5, filter_height=5, outputs_per_thread=4,
                                  block_threads=128)
    # GridDim.x = ceil(W / (WarpCount*(WarpSize-M+1))), GridDim.y = ceil(H/P)
    assert blocking.grid_dim(8192, 8192) == (math_ceil(8192, 4 * 28), math_ceil(8192, 4), 1)


def math_ceil(a, b):
    return -(-a // b)


def test_halo_ratio_formula_and_bound():
    blocking = OverlappedBlocking(filter_width=5, filter_height=5, outputs_per_thread=4)
    s, c, m, n = 32, 8, 5, 5
    expected = (s * c - (s - m) * (c - n)) / (s * c)
    assert blocking.halo_ratio == pytest.approx(expected)
    assert blocking.halo_ratio < blocking.halo_ratio_upper_bound


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=1, max_value=20), n=st.integers(min_value=1, max_value=20),
       p=st.integers(min_value=1, max_value=16))
def test_halo_ratio_is_a_valid_fraction(m, n, p):
    blocking = OverlappedBlocking(filter_width=m, filter_height=n, outputs_per_thread=p)
    assert 0.0 <= blocking.halo_ratio <= 1.0
    assert blocking.load_redundancy >= 1.0
    assert blocking.compute_redundancy_x >= 1.0


def test_blocking_rejects_filters_wider_than_warp():
    with pytest.raises(ConfigurationError):
        OverlappedBlocking(filter_width=33, filter_height=3, outputs_per_thread=4)


def test_blocking_traffic_summary_increases_with_halo():
    small = OverlappedBlocking(3, 3, 4).traffic_summary(1024, 1024)
    large = OverlappedBlocking(15, 15, 4).traffic_summary(1024, 1024)
    assert large["read_amplification"] > small["read_amplification"]
    assert small["write_bytes"] == 1024 * 1024 * 4


def test_shared_memory_blocking_halo_smaller_than_register_halo():
    register = OverlappedBlocking(5, 5, 4)
    shared = SharedMemoryBlocking(tile_width=32, tile_height=32, halo_x=4, halo_y=4)
    assert shared.halo_ratio < register.halo_ratio  # HR_smc << HR_rc (Section 5.3)
    assert shared.shared_bytes("float32") == 36 * 36 * 4


# --- dependency graphs ---------------------------------------------------------------

def test_convolution_dependency_structure():
    graph = convolution_dependency(5)
    validate_dependency(graph)
    assert shuffle_schedule(graph) == [1, 1, 1, 1]
    assert shuffle_count(graph) == 4


def test_stencil_dependency_deltas():
    graph = stencil_dependency([-2, 0, 1])
    assert shuffle_schedule(graph) == [2, 1]


def test_scan_dependency_is_kogge_stone():
    graph = scan_dependency(32)
    assert shuffle_schedule(graph) == [1, 2, 4, 8, 16]
    validate_dependency(graph)  # acyclic, warp-local, one delta per stage


def test_dependency_validation_errors():
    with pytest.raises(DependencyError):
        stencil_dependency([1, 0])           # unsorted
    with pytest.raises(DependencyError):
        stencil_dependency([0, 0])           # duplicates
    with pytest.raises(DependencyError):
        convolution_dependency(40)           # wider than a warp
    bad = convolution_dependency(3)
    bad.add_edge((0, 0), (5, 1), kind="shuffle", delta=5)  # second delta in one stage
    with pytest.raises(DependencyError):
        validate_dependency(bad)


def _broken(edit):
    graph = convolution_dependency(3)
    edit(graph)
    return graph


@pytest.mark.parametrize("graph, message", [
    (type(convolution_dependency(1))(), "empty"),
    (_broken(lambda g: g.add_edge((1, 1), (0, 0), kind="shuffle", delta=-1)), "cycle"),
    (_broken(lambda g: g.add_edge((4, 0), (4, 1), kind="shuffle", delta=0)),
     "zero lane delta"),
    (_broken(lambda g: g.add_edge((6, 0), (4, 1), kind="local", delta=0)),
     "local edge changes lanes"),
    (_broken(lambda g: g.add_edge((2, 0), (2, 2), kind="local", delta=0)),
     "consecutive stages"),
    (_broken(lambda g: g.add_node((40, 0), lane=40, stage=0, mads=1)),
     "outside the warp"),
], ids=["empty", "cycle", "zero-delta-shuffle", "local-lane-change",
        "skipped-stage", "lane-outside-warp"])
def test_validate_dependency_rejects(graph, message):
    with pytest.raises(DependencyError, match=message):
        validate_dependency(graph)


def _stencil_graph(name):
    columns = get_stencil(name).columns()
    return stencil_dependency(list(columns),
                              taps_per_column=[len(p) for p in columns.values()])


# critical-path cycles on (p100, v100), the shuffle schedule and |V|, |E|
@pytest.mark.parametrize("build, p100, v100, schedule, nodes, edges", [
    (lambda: convolution_dependency(3), 84.0, 56.0, [1, 1], 96, 62),
    (lambda: convolution_dependency(9), 318.0, 212.0, [1] * 8, 288, 248),
    (lambda: _stencil_graph("2d5pt"), 96.0, 64.0, [1, 1], 96, 62),
    (lambda: scan_dependency(32), 201.0, 134.0, [1, 2, 4, 8, 16], 192, 289),
], ids=["conv3", "conv9", "2d5pt", "scan32"])
def test_dependency_analysis_is_pinned(build, p100, v100, schedule, nodes, edges):
    graph = build()
    assert critical_path_cycles(graph, "p100") == p100
    assert critical_path_cycles(graph, "v100") == v100
    assert shuffle_schedule(graph) == schedule
    assert (graph.number_of_nodes(), graph.number_of_edges()) == (nodes, edges)


def test_critical_path_grows_with_filter_width():
    short = critical_path_cycles(convolution_dependency(3, mads_per_stage=3), "p100")
    long = critical_path_cycles(convolution_dependency(9, mads_per_stage=9), "p100")
    assert long > short


def test_compare_dependencies_prefers_fewer_shuffles():
    ranked = compare_dependencies({
        "narrow": convolution_dependency(3),
        "wide": convolution_dependency(11),
    }, "p100")
    assert ranked[0][0] == "narrow"
    assert horizontal_transfer_fraction(convolution_dependency(3)) == 1.0


# --- J = (O, D, X, Y) programs ----------------------------------------------------------

def test_program_from_convolution():
    spec = ConvolutionSpec.gaussian(5)
    plan = choose_plan(5, "p100")
    program = SystolicProgram.from_convolution(spec, plan)
    assert program.stage_count == 5
    assert program.shuffles_per_pass == 4
    assert program.input_values_per_thread == plan.cache_values
    assert program.output_values_per_thread == plan.outputs_per_thread
    assert program.critical_path_cycles("p100") > 0
    assert "stages" in program.describe()


def test_program_from_stencil_matches_columns():
    spec = get_stencil("2d5pt")
    plan = choose_plan(spec.footprint_height, "v100")
    program = SystolicProgram.from_stencil(spec, plan)
    assert program.stage_count == 3              # West | North,Current,South | East
    assert program.shuffles_per_pass == 2        # exactly the two shuffles of Listing 2
    assert program.shuffle_deltas == [1, 1]


def test_program_kogge_stone_scan():
    program = SystolicProgram.kogge_stone_scan()
    assert program.stage_count == 6
    assert program.shuffles_per_pass == 5


def test_program_validation_errors():
    with pytest.raises(Exception):
        SystolicProgram(name="bad", operations=(), dependency=convolution_dependency(3),
                        inputs=(RegisterBinding("x", 1, "input"),),
                        outputs=(RegisterBinding("y", 1, "output"),))
    with pytest.raises(Exception):
        RegisterBinding("x", 1, "inout")
    with pytest.raises(Exception):
        Operation("neg", count_per_stage=-1)


# --- Section 5 performance model -----------------------------------------------------------

@pytest.mark.parametrize("arch", ["p100", "v100"])
@pytest.mark.parametrize("m", range(2, 21, 3))
@pytest.mark.parametrize("n", range(2, 21, 3))
def test_equation5_advantage_positive(arch, m, n):
    assert latency_advantage(arch, m, n) > 0


@pytest.mark.parametrize("arch", ["p100", "v100"])
def test_latency_comparison_consistency(arch):
    comparison = compare_latencies(arch, 5, 5)
    assert comparison.shared_memory_cycles == pytest.approx(shared_memory_latency(arch, 5, 5))
    assert comparison.register_cache_cycles == pytest.approx(register_cache_latency(arch, 5, 5))
    assert comparison.advantage_cycles == pytest.approx(latency_advantage(arch, 5, 5))
    assert 1.0 < comparison.speedup < 3.0


def test_halo_ratio_matches_blocking_module():
    assert halo_ratio(5, 5, 4) == pytest.approx(OverlappedBlocking(5, 5, 4, 32).halo_ratio)
    assert halo_ratio(5, 5, 4) < halo_ratio_upper_bound(5, 5, 4)


@pytest.mark.parametrize("arch", ["p100", "v100"])
def test_average_advantage_grows_with_filter_size(arch):
    values = [average_advantage(arch, size, size, 4) for size in range(2, 21)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(value > 0 for value in values[3:])


def test_predicted_speedup_greater_than_one():
    assert predicted_speedup("p100", 7, 7) > 1.0


# --- plans -------------------------------------------------------------------------------

def test_plan_convolution_paper_defaults():
    plan = plan_convolution(ConvolutionSpec.gaussian(5), "p100")
    described = plan.describe()
    assert described["P"] == 4 and described["block_threads"] == 128 and described["C"] == 8
    config = plan.launch_config(8192, 8192)
    assert config.grid_dim == (-(-8192 // (4 * 28)), 2048, 1)
    assert plan.shared_bytes_per_block == 25 * 4


def test_plan_stencil_no_shared_memory():
    plan = plan_stencil(get_stencil("2d9pt"), "v100")
    assert plan.shared_bytes_per_block == 0
    assert plan.occupancy().occupancy > 0.5

"""Correctness and cost tests for the SSAM kernels (Listings 1 and 2, Sec. 4.9, scan)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.convolution.spec import ConvolutionSpec
from repro.core.plan import plan_convolution, plan_stencil
from repro.errors import ConfigurationError
from repro.kernels.conv1d_ssam import ssam_convolve1d, reference_convolve1d
from repro.kernels.conv2d_ssam import analytic_counters as conv_analytic_counters
from repro.kernels.conv2d_ssam import analytic_launch as conv_analytic_launch
from repro.kernels.conv2d_ssam import ssam_convolve2d, ssam_convolve2d_chain
from repro.kernels.scan_ssam import reference_scan, ssam_scan
from repro.kernels.stencil2d_ssam import analytic_counters as st2_analytic_counters
from repro.kernels.stencil2d_masked import ssam_stencil2d_masked
from repro.kernels.stencil2d_ssam import ssam_stencil2d
from repro.kernels.stencil3d_ssam import analytic_counters as st3_analytic_counters
from repro.kernels.stencil3d_ssam import launch_geometry, ssam_stencil3d
from repro.stencils.catalog import get_stencil
from repro.workloads import random_grid_3d, random_image, sequence

TOL32 = dict(rtol=2e-5, atol=2e-5)


# --- 2-D convolution (Listing 1) --------------------------------------------------

@pytest.mark.parametrize("size", [2, 3, 4, 5, 7, 9, 12])
def test_conv2d_matches_reference_square_filters(size):
    spec = ConvolutionSpec.random(size, seed=size)
    image = random_image(83, 61, seed=1)
    result = ssam_convolve2d(image, spec, "p100")
    np.testing.assert_allclose(result.output, spec.reference(image), **TOL32)


@pytest.mark.parametrize("width, height", [(5, 3), (3, 7), (9, 2)])
def test_conv2d_matches_reference_rectangular_filters(width, height):
    spec = ConvolutionSpec.random(width, height, seed=width * height)
    image = random_image(70, 50, seed=2)
    result = ssam_convolve2d(image, spec, "v100")
    np.testing.assert_allclose(result.output, spec.reference(image), **TOL32)


def test_conv2d_double_precision():
    spec = ConvolutionSpec.gaussian(5)
    image = random_image(64, 48, precision="float64", seed=3)
    result = ssam_convolve2d(image, spec, "p100", precision="float64")
    np.testing.assert_allclose(result.output, spec.reference(image), rtol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 4, 6])
def test_conv2d_any_sliding_window_depth(p):
    spec = ConvolutionSpec.random(4, seed=7)
    image = random_image(60, 45, seed=4)
    result = ssam_convolve2d(image, spec, "p100", outputs_per_thread=p)
    np.testing.assert_allclose(result.output, spec.reference(image), **TOL32)
    assert result.parameters["P"] == p


def test_conv2d_image_smaller_than_one_warp_tile():
    spec = ConvolutionSpec.random(3, seed=5)
    image = random_image(17, 9, seed=5)
    result = ssam_convolve2d(image, spec, "p100")
    np.testing.assert_allclose(result.output, spec.reference(image), **TOL32)


#: the four 2-D wrappers, as ``run(image, plan, **part)`` on a float32 image
PLANNED_WRAPPERS = {
    "conv2d": lambda image, plan, **part: ssam_convolve2d(image, plan.problem,
                                                          plan=plan, **part),
    "conv2d_chain": lambda image, plan, **part: ssam_convolve2d_chain(
        image, plan.problem, plan=plan, **part),
    "stencil2d": lambda image, plan, **part: ssam_stencil2d(image, plan.problem,
                                                            plan=plan, **part),
    "stencil2d_masked": lambda image, plan, **part: ssam_stencil2d_masked(
        image, plan.problem, plan=plan, **part),
}


def _v100_float64_plan(wrapper):
    if wrapper.startswith("conv2d"):
        return plan_convolution(ConvolutionSpec.gaussian(3), "v100", "float64")
    return plan_stencil(get_stencil("2d5pt"), "v100", "float64")


@pytest.mark.parametrize("wrapper", sorted(PLANNED_WRAPPERS))
def test_a_wrapper_runs_its_plans_part_and_precision(wrapper):
    """Given a V100 float64 plan, the buffers are float64 and the launch runs
    on V100 under that plan's config; a disagreeing part or precision is
    refused rather than mixed into the launch."""
    plan = _v100_float64_plan(wrapper)
    image = random_image(40, 24, seed=31)
    run = PLANNED_WRAPPERS[wrapper]
    result = run(image, plan)
    assert result.output.dtype == np.float64
    assert result.launch.architecture is plan.architecture
    assert result.launch.config == plan.launch_config(40, 24)
    assert result.parameters["architecture"] == "Tesla V100"
    assert result.parameters["precision"] == "float64"
    # an explicit part or precision that agrees with the plan is accepted
    assert run(image, plan, architecture="v100",
               precision="float64").launch.config == result.launch.config
    for part in ({"architecture": "p100"}, {"precision": "float32"}):
        with pytest.raises(ConfigurationError):
            run(image, plan, **part)


@pytest.mark.parametrize("wrapper", sorted(PLANNED_WRAPPERS))
def test_a_wrapper_refuses_launch_parameters_its_plan_overrides(wrapper):
    """A plan fixes P, B and R: an explicit value that agrees with it is
    accepted, one that disagrees is refused rather than silently dropped
    (the launch would otherwise report the plan's P=4, B=128)."""
    plan = _v100_float64_plan(wrapper)
    image = random_image(40, 24, seed=33)
    run = PLANNED_WRAPPERS[wrapper]
    agreeing = {"outputs_per_thread": plan.outputs_per_thread,
                "block_threads": plan.block_threads,
                "block_rows": plan.block_rows}
    assert (run(image, plan, **agreeing).launch.config
            == plan.launch_config(40, 24))
    for name, value in (("outputs_per_thread", plan.outputs_per_thread * 2),
                        ("block_threads", plan.block_threads * 2),
                        ("block_rows", plan.block_rows + 1)):
        with pytest.raises(ConfigurationError, match=name):
            run(image, plan, **{name: value})


def test_a_wrapper_refuses_another_problems_plan():
    """A 3x3 filter's plan shapes a grid too narrow for a 9x9 filter's
    valid lanes; run anyway, the right-hand columns stay unwritten."""
    plan = plan_convolution(ConvolutionSpec.gaussian(3), "p100")
    image = random_image(512, 32, seed=32)
    with pytest.raises(ConfigurationError):
        ssam_convolve2d(image, ConvolutionSpec.gaussian(9), plan=plan)
    # an equal spec built separately is the same problem
    assert ssam_convolve2d(image, ConvolutionSpec.gaussian(3),
                           plan=plan).launch.config == plan.launch_config(512, 32)


def test_conv2d_rejects_non_edge_boundary():
    spec = ConvolutionSpec(weights=np.ones((3, 3)) / 9.0, boundary="wrap")
    with pytest.raises(ConfigurationError):
        ssam_convolve2d(random_image(32, 32), spec)


def test_conv2d_counters_follow_listing1():
    spec = ConvolutionSpec.random(5, seed=6)
    image = random_image(224, 64, seed=6)      # 2 x-blocks, 16 y-blocks
    result = ssam_convolve2d(image, spec, "p100")
    plan = plan_convolution(spec, "p100")
    blocks = plan.blocking.total_blocks(224, 64)
    warps = blocks * 4
    counters = result.launch.counters
    assert counters.fma == warps * plan.outputs_per_thread * spec.taps
    assert counters.shfl == warps * plan.outputs_per_thread * (spec.filter_width - 1)
    assert counters.smem_broadcast == counters.fma
    assert counters.dram_write_bytes == pytest.approx(224 * 64 * 4)


@pytest.mark.parametrize("size", [3, 8, 15])
def test_conv2d_analytic_profile_close_to_counted(size):
    spec = ConvolutionSpec.random(size, seed=size)
    image = random_image(448, 96, seed=7)
    plan = plan_convolution(spec, "p100")
    counted = ssam_convolve2d(image, spec, "p100", plan=plan).launch.counters
    analytic = conv_analytic_counters(448, 96, plan)
    assert analytic.fma == counted.fma
    assert analytic.shfl == counted.shfl
    assert analytic.smem_broadcast == counted.smem_broadcast
    assert analytic.gmem_load == counted.gmem_load
    assert analytic.gmem_store == pytest.approx(counted.gmem_store, rel=0.20)
    assert analytic.dram_read_bytes == pytest.approx(counted.dram_read_bytes, rel=0.45)
    assert analytic.dram_write_bytes == pytest.approx(counted.dram_write_bytes, rel=0.01)


def test_conv2d_analytic_launch_paper_scale_is_memory_or_compute_bound():
    small, large = (conv_analytic_launch(8192, 8192, plan_convolution(spec, "p100"))
                    for spec in (ConvolutionSpec.gaussian(3), ConvolutionSpec.gaussian(20)))
    assert small.launch.timing.bottleneck == "dram"
    assert large.milliseconds > small.milliseconds
    assert 0.5 < small.milliseconds < 5.0


@settings(max_examples=10, deadline=None)
@given(size=st.integers(min_value=2, max_value=10), seed=st.integers(0, 1000))
def test_conv2d_property_random_filters(size, seed):
    """Property: the systolic kernel equals the direct sum for any filter."""
    spec = ConvolutionSpec.random(size, seed=seed)
    image = random_image(49, 37, seed=seed)
    result = ssam_convolve2d(image, spec, "v100")
    np.testing.assert_allclose(result.output, spec.reference(image), rtol=5e-5, atol=5e-5)


# --- 2-D stencils (Listing 2, generalised) ------------------------------------------

@pytest.mark.parametrize("name", ["2d5pt", "2d9pt", "2d13pt", "2d17pt", "2d21pt",
                                  "2ds25pt", "2d25pt", "2d64pt", "2d81pt", "2d121pt"])
def test_stencil2d_matches_reference(name):
    spec = get_stencil(name)
    grid = random_image(77, 53, seed=11)
    result = ssam_stencil2d(grid, spec, iterations=1, architecture="p100")
    np.testing.assert_allclose(result.output, spec.reference(grid), **TOL32)


@pytest.mark.parametrize("iterations", [1, 2, 5])
def test_stencil2d_iterations(iterations):
    spec = get_stencil("2d5pt")
    grid = random_image(65, 47, seed=12)
    result = ssam_stencil2d(grid, spec, iterations=iterations, architecture="v100")
    np.testing.assert_allclose(result.output, spec.reference(grid, iterations),
                               rtol=1e-4, atol=1e-4)
    assert result.parameters["iterations"] == iterations


def test_stencil2d_double_precision():
    spec = get_stencil("2d9pt")
    grid = random_image(60, 44, precision="float64", seed=13)
    result = ssam_stencil2d(grid, spec, 2, "p100", precision="float64")
    np.testing.assert_allclose(result.output, spec.reference(grid, 2), rtol=1e-12)


def test_stencil2d_rejects_3d_spec_and_bad_iterations():
    with pytest.raises(ConfigurationError):
        ssam_stencil2d(random_image(32, 32), get_stencil("3d7pt"))
    with pytest.raises(ConfigurationError):
        ssam_stencil2d(random_image(32, 32), get_stencil("2d5pt"), iterations=0)


def test_stencil2d_shuffle_count_matches_program():
    spec = get_stencil("2d5pt")
    grid = random_image(140, 16, seed=14)
    plan = plan_stencil(spec, "p100")
    result = ssam_stencil2d(grid, spec, 1, "p100", plan=plan)
    warps = plan.blocking.total_blocks(140, 16) * plan.blocking.warps_per_block
    assert result.launch.counters.shfl == warps * plan.outputs_per_thread * 2


@pytest.mark.parametrize("name", ["2d5pt", "2d25pt", "2d121pt"])
def test_stencil2d_analytic_profile_instruction_exact(name):
    spec = get_stencil(name)
    plan = plan_stencil(spec, "v100")
    grid = random_image(200, 60, seed=15)
    counted = ssam_stencil2d(grid, spec, 2, "v100", plan=plan).launch.counters
    analytic = st2_analytic_counters(200, 60, plan, iterations=2)
    assert analytic.fma == counted.fma
    assert analytic.shfl == counted.shfl
    assert analytic.gmem_load == counted.gmem_load
    assert analytic.dram_read_bytes == pytest.approx(counted.dram_read_bytes, rel=0.6)


# --- 3-D stencils (Section 4.9) --------------------------------------------------------

@pytest.mark.parametrize("name", ["3d7pt", "3d13pt", "3d27pt", "3d125pt", "poisson"])
def test_stencil3d_matches_reference(name):
    spec = get_stencil(name)
    grid = random_grid_3d(38, 27, 9, seed=21)
    result = ssam_stencil3d(grid, spec, iterations=1, architecture="p100")
    np.testing.assert_allclose(result.output, spec.reference(grid), **TOL32)


def test_stencil3d_two_iterations_and_double():
    spec = get_stencil("3d7pt")
    grid = random_grid_3d(33, 21, 10, precision="float64", seed=22)
    result = ssam_stencil3d(grid, spec, 2, "v100", precision="float64")
    np.testing.assert_allclose(result.output, spec.reference(grid, 2), rtol=1e-12)


def test_stencil3d_uses_shared_memory_for_interwarp_axial_taps():
    spec = get_stencil("3d7pt")
    grid = random_grid_3d(40, 24, 12, seed=23)
    result = ssam_stencil3d(grid, spec, 1, "p100")
    counters = result.launch.counters
    assert counters.smem_store > 0       # slice centre rows published
    assert counters.smem_load > 0        # neighbour slices consumed
    assert counters.shfl > 0             # in-plane systolic shuffles


def test_stencil3d_rejects_2d_spec():
    with pytest.raises(ConfigurationError):
        ssam_stencil3d(random_grid_3d(16, 16, 4), get_stencil("2d5pt"))


def test_stencil3d_analytic_profile_matches_fma_and_shfl():
    spec = get_stencil("3d7pt")
    grid = random_grid_3d(60, 16, 8, seed=24)
    counted = ssam_stencil3d(grid, spec, 1, "p100").launch.counters
    analytic = st3_analytic_counters(launch_geometry(spec, 60, 16, 8, "p100"))
    assert analytic.fma == counted.fma
    assert analytic.shfl == counted.shfl
    assert analytic.gmem_store == pytest.approx(counted.gmem_store, rel=0.20)


# --- scan and 1-D convolution -------------------------------------------------------------

@pytest.mark.parametrize("length", [1, 31, 32, 33, 500, 4096])
def test_scan_matches_cumsum(length):
    data = sequence(length, seed=length)
    result = ssam_scan(data, "p100")
    np.testing.assert_allclose(result.output, reference_scan(data), rtol=1e-4, atol=1e-4)


def test_scan_counts_kogge_stone_shuffles():
    data = sequence(128, seed=1)
    result = ssam_scan(data, "v100", block_threads=128)
    # 5 shuffle stages x 4 warps in the single block
    assert result.launch.counters.shfl == 20
    with pytest.raises(ConfigurationError):
        ssam_scan(np.zeros((2, 2)))


@pytest.mark.parametrize("taps", [1, 2, 3, 5, 9, 15])
def test_conv1d_matches_reference(taps):
    data = sequence(777, seed=taps)
    filt = np.random.default_rng(taps).standard_normal(taps)
    result = ssam_convolve1d(data, filt, architecture="p100")
    np.testing.assert_allclose(result.output, reference_convolve1d(data, filt),
                               rtol=1e-4, atol=1e-4)


def test_conv1d_validation():
    with pytest.raises(ConfigurationError):
        ssam_convolve1d(sequence(10), np.ones(40))
    with pytest.raises(ConfigurationError):
        ssam_convolve1d(sequence(10), np.ones(3), anchor=5)

"""Correctness and cost-shape tests for the baseline implementations."""

import functools

import numpy as np
import pytest

from repro.baselines import (
    ARRAYFIRE_MAX_FILTER,
    arrayfire_like_convolve2d,
    arrayfire_like_convolve2d_analytic,
    cudnn_like_convolve2d,
    cudnn_like_convolve2d_analytic,
    cufft_like_convolve2d,
    cufft_like_convolve2d_analytic,
    halide_like_convolve2d,
    halide_like_convolve2d_analytic,
    halide_like_stencil2d,
    npp_like_convolve2d,
    npp_like_convolve2d_analytic,
    original_stencil2d,
    original_stencil2d_analytic,
    original_stencil3d,
    ppcg_like_stencil2d,
    published_reference,
    reordered_stencil2d,
    shared_stencil3d,
    ssam_temporal_stencil,
    stencilgen_like_stencil,
    unrolled_stencil2d,
)
from repro.baselines.cpu_reference import convolve2d_fft_reference
from repro.convolution.spec import ConvolutionSpec
from repro.errors import ConfigurationError
from repro.scenarios import ScenarioCase, get_scenario
from repro.stencils.catalog import get_stencil
from repro.workloads import random_grid_3d, random_image

TOL32 = dict(rtol=3e-5, atol=3e-5)


# --- convolution baselines: functional correctness ----------------------------------

@pytest.mark.parametrize("impl", [npp_like_convolve2d, arrayfire_like_convolve2d,
                                  halide_like_convolve2d])
@pytest.mark.parametrize("size", [3, 5, 8])
def test_conv_baselines_match_reference(impl, size):
    spec = ConvolutionSpec.random(size, seed=size)
    image = random_image(73, 49, seed=31)
    result = impl(image, spec, "p100")
    np.testing.assert_allclose(result.output, spec.reference(image), **TOL32)


def test_cudnn_like_output_matches_reference():
    spec = ConvolutionSpec.random(5, seed=2)
    image = random_image(40, 30, seed=32)
    result = cudnn_like_convolve2d(image, spec, "v100")
    np.testing.assert_allclose(result.output, spec.reference(image), rtol=1e-4, atol=1e-4)


def test_cufft_like_matches_reference_in_the_interior():
    spec = ConvolutionSpec.random(5, seed=3)
    image = random_image(64, 64, seed=33)
    result = cufft_like_convolve2d(image, spec, "p100")
    interior = (slice(8, -8), slice(8, -8))
    np.testing.assert_allclose(result.output[interior], spec.reference(image)[interior],
                               rtol=1e-3, atol=1e-3)
    np.testing.assert_allclose(convolve2d_fft_reference(image, spec)[interior],
                               spec.reference(image)[interior], rtol=1e-3, atol=1e-3)


def test_arrayfire_filter_size_limit_enforced():
    spec = ConvolutionSpec.gaussian(17)
    with pytest.raises(ConfigurationError):
        arrayfire_like_convolve2d(random_image(64, 64), spec, "p100")
    assert ARRAYFIRE_MAX_FILTER == 16


# --- convolution baselines: paper-scale cost shape (Figure 4 claims) ------------------

def _fig4_times(architecture, size):
    spec = ConvolutionSpec.gaussian(size)
    from repro.core.plan import plan_convolution
    from repro.kernels.conv2d_ssam import analytic_launch

    times = {
        "ssam": analytic_launch(8192, 8192,
                                plan_convolution(spec, architecture)).milliseconds,
        "npp": npp_like_convolve2d_analytic(spec, 8192, 8192, architecture).milliseconds,
        "halide": halide_like_convolve2d_analytic(spec, 8192, 8192,
                                                  architecture).milliseconds,
        "cudnn": cudnn_like_convolve2d_analytic(spec, 8192, 8192,
                                                architecture).milliseconds,
        "cufft": cufft_like_convolve2d_analytic(spec, 8192, 8192,
                                                architecture).milliseconds,
    }
    if size <= ARRAYFIRE_MAX_FILTER:
        times["arrayfire"] = arrayfire_like_convolve2d_analytic(
            spec, 8192, 8192, architecture).milliseconds
    return times


@pytest.mark.parametrize("architecture", ["p100", "v100"])
@pytest.mark.parametrize("size", [5, 7, 11, 15])
def test_ssam_fastest_direct_method_for_moderate_filters(architecture, size):
    times = _fig4_times(architecture, size)
    assert times["ssam"] <= min(times["npp"], times["cudnn"], times["cufft"])
    assert times["ssam"] <= times["arrayfire"] * 1.05


@pytest.mark.parametrize("architecture", ["p100", "v100"])
def test_small_filters_are_bandwidth_bound_for_every_direct_method(architecture):
    # at 3x3 every direct scheme sits near the DRAM roofline, so the times
    # bunch together (the paper's Figure 4 shows the gap opening with size)
    times = _fig4_times(architecture, 3)
    direct = [times["ssam"], times["npp"], times["arrayfire"], times["halide"]]
    assert max(direct) / min(direct) < 3.0


@pytest.mark.parametrize("architecture", ["p100", "v100"])
def test_npp_substantially_slower_than_ssam_on_average(architecture):
    ratios = []
    for size in (5, 9, 13, 17, 20):
        times = _fig4_times(architecture, size)
        ratios.append(times["npp"] / times["ssam"])
    geomean = np.prod(ratios) ** (1 / len(ratios))
    assert geomean > 1.5  # paper reports ~2.5x on average


def test_cufft_cost_flat_in_filter_size():
    t3 = _fig4_times("p100", 3)["cufft"]
    t20 = _fig4_times("p100", 20)["cufft"]
    assert t3 == pytest.approx(t20, rel=0.01)
    assert t3 > 100.0  # hundreds of milliseconds, as measured in the paper


def test_v100_narrows_the_gap_over_p100():
    # Section 7.1: the Volta cache improvements shrink SSAM's advantage
    p100 = _fig4_times("p100", 9)
    v100 = _fig4_times("v100", 9)
    assert (p100["npp"] / p100["ssam"]) > (v100["npp"] / v100["ssam"])


# --- stencil baselines ------------------------------------------------------------------

@pytest.mark.parametrize("impl", [original_stencil2d, ppcg_like_stencil2d,
                                  halide_like_stencil2d])
@pytest.mark.parametrize("name", ["2d5pt", "2d9pt", "2d25pt"])
def test_stencil2d_baselines_match_reference(impl, name):
    spec = get_stencil(name)
    grid = random_image(69, 47, seed=41)
    result = impl(grid, spec, 2, "p100")
    np.testing.assert_allclose(result.output, spec.reference(grid, 2), **TOL32)


def test_stencil3d_naive_matches_reference():
    spec = get_stencil("3d7pt")
    grid = random_grid_3d(30, 20, 8, seed=42)
    result = original_stencil3d(grid, spec, 2, "v100")
    np.testing.assert_allclose(result.output, spec.reference(grid, 2), **TOL32)


def test_stencil_baselines_reject_wrong_dimensionality():
    with pytest.raises(ConfigurationError):
        original_stencil2d(random_image(16, 16), get_stencil("3d7pt"))
    with pytest.raises(ConfigurationError):
        original_stencil3d(random_grid_3d(8, 8, 8), get_stencil("2d5pt"))


@pytest.mark.parametrize("impl", [original_stencil2d, ppcg_like_stencil2d,
                                  halide_like_stencil2d, original_stencil3d])
def test_stencil_baselines_reject_zero_iterations(impl):
    # no step would run, so there would be no launch to report
    grid, stencil = ((random_grid_3d(8, 8, 8), "3d7pt") if impl is original_stencil3d
                     else (random_image(16, 16), "2d5pt"))
    with pytest.raises(ConfigurationError, match="iterations"):
        impl(grid, get_stencil(stencil), iterations=0)


# --- direct baselines: closed forms against counted runs ----------------------------

#: the scenarios whose kernels run the naive or shared scheme of ``direct``
DIRECT_BASELINES = ("conv2d-npp", "conv2d-arrayfire", "conv2d-halide",
                    "stencil2d-original", "stencil2d-ppcg", "stencil2d-halide",
                    "stencil3d-original")

#: counters on which a closed form and a counted run agree exactly (the
#: transaction counts differ: a closed form charges every warp full sectors)
EXACT_FIELDS = ("fma", "misc", "smem_load", "smem_store", "gmem_load",
                "gmem_store", "sync", "blocks_executed", "warps_executed")


@functools.lru_cache(maxsize=None)
def _direct_counters(name, size, precision, engine):
    case = ScenarioCase(name, "p100", precision, engine, size)
    return get_scenario(name).run_case(case).launch.counters


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("size", ["tiny", "small"])
@pytest.mark.parametrize("name", DIRECT_BASELINES)
def test_direct_closed_forms_match_counted_runs(name, size, precision):
    analytic = _direct_counters(name, size, precision, "analytic")
    counted = _direct_counters(name, size, precision, "batched")
    assert counted.fma > 0
    for field in EXACT_FIELDS:
        assert getattr(analytic, field) == getattr(counted, field), field


@pytest.mark.parametrize("size", ["tiny", "small"])
@pytest.mark.parametrize("name", ["conv2d-arrayfire", "stencil2d-ppcg"])
def test_direct_closed_forms_count_float64_shared_loads(name, size):
    # a float64 warp's shared load spans twice the banks: two accesses
    analytic = _direct_counters(name, size, "float64", "analytic")
    counted = _direct_counters(name, size, "float64", "batched")
    assert analytic.smem_load == counted.smem_load
    assert analytic.smem_load == 2 * _direct_counters(name, size, "float32",
                                                      "analytic").smem_load


@pytest.mark.parametrize("architecture", ["p100", "v100"])
@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("name", ["2d5pt", "2d9pt"])
def test_ssam_beats_naive_stencil_at_paper_scale(architecture, precision, name):
    from repro.core.plan import plan_stencil
    from repro.kernels.stencil2d_ssam import analytic_launch

    spec = get_stencil(name)
    ssam = analytic_launch(8192, 8192,
                           plan_stencil(spec, architecture, precision)).seconds
    naive = original_stencil2d_analytic(spec, 8192, 8192, 1, architecture,
                                        precision).seconds
    assert naive / ssam > 1.3


def test_register_scheme_models_have_higher_register_pressure_for_high_order():
    low = reordered_stencil2d(get_stencil("2d5pt"), 8192, 8192)
    high = reordered_stencil2d(get_stencil("2d121pt"), 8192, 8192)
    assert high.launch.config.registers_per_thread > low.launch.config.registers_per_thread
    assert unrolled_stencil2d(get_stencil("2d5pt"), 8192, 8192).seconds > 0


def test_shared_stencil3d_cost_positive():
    result = shared_stencil3d(get_stencil("3d7pt"), 512, 512, 512)
    assert result.seconds > 0
    assert result.launch.counters.smem_load > 0


# --- temporal blocking (Figure 6) ----------------------------------------------------------

def test_temporal_blocking_beats_single_pass_throughput():
    from repro.core.plan import plan_stencil
    from repro.kernels.stencil2d_ssam import analytic_launch

    spec = get_stencil("2d5pt")
    cells = 8192 * 8192
    single = analytic_launch(8192, 8192,
                             plan_stencil(spec, "p100")).gcells_per_second(cells, 1)
    temporal = ssam_temporal_stencil(spec, 8192, 8192, time_steps=64,
                                     architecture="p100").gcells_per_second(cells, 64)
    assert temporal > 1.5 * single


def test_stencilgen_like_and_ssam_temporal_comparable():
    spec = get_stencil("2d5pt")
    cells = 8192 * 8192
    sg = stencilgen_like_stencil(spec, 8192, 8192, time_steps=64,
                                 architecture="p100").gcells_per_second(cells, 64)
    ss = ssam_temporal_stencil(spec, 8192, 8192, time_steps=64,
                               architecture="p100").gcells_per_second(cells, 64)
    assert 0.4 < ss / sg < 5.0


def test_published_reference_values():
    assert published_reference("diffusion", "p100", "float32") == pytest.approx(92.7)
    assert published_reference("bricks", "v100", "float32") is None
    assert published_reference("unknown", "p100") is None


def test_temporal_depth_validation():
    with pytest.raises(ConfigurationError):
        stencilgen_like_stencil(get_stencil("2d5pt"), 512, 512, temporal_depth=0)

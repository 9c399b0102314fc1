"""Tests for convolution/stencil specifications, the Table 3 catalog and workloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import correlate

from repro.convolution.spec import ConvolutionSpec
from repro.dtypes import FLOAT32, FLOAT64, resolve_precision
from repro.errors import ConfigurationError, SpecificationError
from repro.stencils.catalog import (
    CATALOG,
    DOMAIN_2D,
    DOMAIN_3D,
    FIGURE5_BENCHMARKS,
    FIGURE6_BENCHMARKS,
    get_benchmark,
    get_stencil,
    table3_rows,
)
from repro.stencils.spec import StencilPoint, StencilSpec, box2d, diffusion2d, star2d, star3d
from repro.workloads import (
    checkerboard_image,
    gradient_image,
    hotspot_grid,
    impulse_image,
    random_grid_3d,
    random_image,
    sequence,
)


# --- precision handling -------------------------------------------------------

@pytest.mark.parametrize("alias", ["float32", "fp32", "single", np.float32])
def test_precision_aliases_single(alias):
    assert resolve_precision(alias) is FLOAT32 or resolve_precision(alias).itemsize == 4


@pytest.mark.parametrize("alias", ["float64", "fp64", "double", np.float64])
def test_precision_aliases_double(alias):
    assert resolve_precision(alias).itemsize == 8


def test_precision_rejects_unknown():
    with pytest.raises(ConfigurationError):
        resolve_precision("float16")


def test_precision_register_cost():
    assert FLOAT32.registers_per_value == 1
    assert FLOAT64.registers_per_value == 2


# --- convolution specs -----------------------------------------------------------

def test_convolution_spec_geometry():
    spec = ConvolutionSpec(weights=np.ones((3, 7)))
    assert spec.filter_width == 7 and spec.filter_height == 3
    assert spec.shape == (7, 3)
    assert spec.taps == 21
    assert spec.anchor == (3, 1)
    assert spec.flops_per_output == 41
    np.testing.assert_array_equal(spec.weight_column(2), np.ones(3))


def test_convolution_spec_validation():
    with pytest.raises(SpecificationError):
        ConvolutionSpec(weights=np.ones(5))
    with pytest.raises(SpecificationError):
        ConvolutionSpec(weights=np.ones((3, 3)), boundary="mirror")
    with pytest.raises(SpecificationError):
        ConvolutionSpec(weights=np.ones((3, 3)), anchor=(5, 5))


def test_gaussian_and_box_filters_normalised():
    assert ConvolutionSpec.gaussian(7).weights.sum() == pytest.approx(1.0)
    assert ConvolutionSpec.box(4, 6).weights.sum() == pytest.approx(1.0)
    assert ConvolutionSpec.sobel_x().weights.sum() == pytest.approx(0.0)
    assert ConvolutionSpec.sharpen().weights.sum() == pytest.approx(1.0)


def test_reference_matches_scipy_for_odd_centered_filters():
    rng = np.random.default_rng(0)
    image = rng.standard_normal((40, 37))
    spec = ConvolutionSpec.random(5, seed=3)
    ours = spec.reference(image)
    scipy_result = correlate(image, spec.weights, mode="nearest")
    np.testing.assert_allclose(ours, scipy_result, rtol=1e-10, atol=1e-10)


def test_reference_impulse_recovers_filter():
    spec = ConvolutionSpec.random(3, seed=1)
    image = impulse_image(15, 11)
    out = spec.reference(image.astype(np.float64))
    centre_y, centre_x = 11 // 2, 15 // 2
    # correlation flips the kernel around the impulse
    region = out[centre_y - 1:centre_y + 2, centre_x - 1:centre_x + 2]
    np.testing.assert_allclose(region, spec.weights[::-1, ::-1], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(width=st.integers(2, 9), height=st.integers(2, 9))
def test_reference_constant_image_invariant(width, height):
    """Property: a normalised filter leaves a constant image unchanged."""
    spec = ConvolutionSpec.box(width, height)
    image = np.full((23, 29), 3.5)
    np.testing.assert_allclose(spec.reference(image), image, rtol=1e-12)


def test_non_square_filters_supported():
    spec = ConvolutionSpec.random(7, 3, seed=9)
    image = random_image(50, 40, seed=4)
    assert spec.reference(image).shape == image.shape


def test_convolution_spec_keeps_its_own_weights():
    """A spec's fingerprint keys the plan cache and the result store, so a
    write to the caller's array must not reach the spec behind it."""
    weights = np.ones((3, 3))
    spec = ConvolutionSpec(weights)
    fingerprint = spec.fingerprint()
    weights[1, 1] = 7.0
    assert spec.weights[1, 1] == 1.0
    assert spec.fingerprint() == fingerprint == ConvolutionSpec(
        np.ones((3, 3))).fingerprint()
    # the caller's array and its flags are untouched; the spec's is read-only
    assert weights.flags.writeable and weights[1, 1] == 7.0
    with pytest.raises(ValueError):
        spec.weights[0, 0] = 2.0


# --- stencil specs ------------------------------------------------------------------

def test_stencil_spec_geometry_2d5pt():
    spec = diffusion2d()
    assert spec.num_points == 5
    assert spec.order == 1
    assert spec.footprint_width == 3 and spec.footprint_height == 3
    assert spec.is_star
    assert sorted(spec.columns().keys()) == [-1, 0, 1]
    assert len(spec.columns()[0]) == 3


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_stencil_extents_match_a_scan_of_the_taps(name):
    spec = get_stencil(name)
    for _ in range(2):  # computed once, served again unchanged
        for axis, (lo, hi) in zip("xyz", (spec.x_range, spec.y_range,
                                          spec.z_range)):
            offsets = [getattr(p, f"d{axis}") for p in spec.points]
            assert (lo, hi) == (min(offsets), max(offsets))
        assert spec.reach == tuple(max(abs(getattr(p, f"d{axis}"))
                                       for p in spec.points)
                                   for axis in "xyz")
        assert spec.order == max(spec.reach)
        assert spec.footprint_width == spec.x_range[1] - spec.x_range[0] + 1
        assert spec.footprint_height == spec.y_range[1] - spec.y_range[0] + 1
        assert spec.footprint_depth == spec.z_range[1] - spec.z_range[0] + 1


def test_stencil_duplicate_offsets_rejected():
    with pytest.raises(SpecificationError):
        StencilSpec(name="dup", points=(StencilPoint(0, 0), StencilPoint(0, 0)), dims=2)


def test_stencil_dims_validation():
    with pytest.raises(SpecificationError):
        StencilSpec(name="bad", points=(StencilPoint(0, 0, 1),), dims=2)
    with pytest.raises(SpecificationError):
        StencilSpec(name="bad", points=(), dims=2)


def test_star_and_box_constructors():
    assert star2d(3).num_points == 13
    assert box2d(2).num_points == 25
    assert box2d(4, asymmetric=True).num_points == 64
    assert star3d(2).num_points == 13


def test_stencil_reference_constant_preserved_by_normalised_weights():
    spec = diffusion2d()
    grid = np.full((30, 40), 7.0)
    np.testing.assert_allclose(spec.reference(grid, iterations=3), grid, rtol=1e-12)


def test_stencil_reference_dimension_check():
    with pytest.raises(SpecificationError):
        diffusion2d().reference(np.zeros((4, 4, 4)))


def test_stencil_to_convolution_equivalence():
    spec = get_stencil("2d9pt")
    conv = spec.to_convolution()
    image = random_image(33, 29, seed=8).astype(np.float64)
    np.testing.assert_allclose(spec.reference(image), conv.reference(image), rtol=1e-10)


def test_out_of_plane_points_for_3d():
    spec = get_stencil("3d7pt")
    assert len(spec.out_of_plane_points()) == 2
    assert len(spec.columns()) == 3


# --- Table 3 catalog --------------------------------------------------------------------

def test_catalog_contains_all_fifteen_benchmarks():
    # the 15 Table 3 rows plus the post-paper variable-coefficient entry
    assert len(CATALOG) == 16
    assert set(FIGURE5_BENCHMARKS).issubset(CATALOG)
    assert set(FIGURE6_BENCHMARKS).issubset(CATALOG)
    assert "2dv9pt" not in FIGURE5_BENCHMARKS  # paper figures stay paper-only


def test_varcoef_benchmark_has_distinct_coefficients():
    from repro.stencils.catalog import get_stencil

    spec = get_stencil("2dv9pt")
    coefficients = [p.coefficient for p in spec.points]
    assert len(set(coefficients)) == len(coefficients)
    assert sum(coefficients) == pytest.approx(1.0)
    assert spec.footprint_width == 3 and spec.footprint_height == 3


@pytest.mark.parametrize("name, k, fpp", [
    ("2d5pt", 1, 9), ("2d9pt", 2, 17), ("2d13pt", 3, 25), ("2d17pt", 4, 33),
    ("2d21pt", 5, 41), ("2ds25pt", 6, 49), ("2d25pt", 2, 33), ("2d64pt", 4, 73),
    ("2d81pt", 4, 95), ("2d121pt", 5, 241), ("3d7pt", 1, 13), ("3d13pt", 2, 25),
    ("3d27pt", 1, 30), ("3d125pt", 2, 130), ("poisson", 1, 21),
])
def test_table3_metadata(name, k, fpp):
    bench = get_benchmark(name)
    assert bench.order == k
    assert bench.flops_per_point == fpp


@pytest.mark.parametrize("name, points", [
    ("2d5pt", 5), ("2d9pt", 9), ("2d13pt", 13), ("2d17pt", 17), ("2d21pt", 21),
    ("2ds25pt", 25), ("2d25pt", 25), ("2d64pt", 64), ("2d81pt", 81), ("2d121pt", 121),
    ("3d7pt", 7), ("3d13pt", 13), ("3d27pt", 27), ("3d125pt", 125),
])
def test_benchmark_point_counts_match_names(name, points):
    assert get_benchmark(name).spec.num_points == points


def test_benchmark_domains():
    assert get_benchmark("2d5pt").domain == DOMAIN_2D
    assert get_benchmark("3d7pt").domain == DOMAIN_3D
    assert get_benchmark("3d7pt").cells == 512 ** 3


def test_table3_rows_order_and_lookup_error():
    rows = table3_rows()
    assert rows[0]["benchmark"] == "2d5pt" and rows[-1]["benchmark"] == "poisson"
    with pytest.raises(SpecificationError):
        get_benchmark("2d99pt")


# --- workload generators ----------------------------------------------------------------

def test_random_image_deterministic_and_typed():
    a = random_image(16, 8, seed=3)
    b = random_image(16, 8, seed=3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (8, 16) and a.dtype == np.float32


def test_random_grid_3d_shape():
    grid = random_grid_3d(6, 5, 4, precision="float64")
    assert grid.shape == (4, 5, 6) and grid.dtype == np.float64


def test_pattern_generators():
    assert gradient_image(10, 10)[0, 0] == 0.0
    assert set(np.unique(checkerboard_image(8, 8, tile=4))) == {0.0, 1.0}
    hot = hotspot_grid(12, 12, peak=50.0)
    assert hot.max() == 50.0 and hot.min() == 0.0
    assert hotspot_grid(8, 8, depth=8).ndim == 3
    assert sequence(10).shape == (10,)


def test_generators_validate_arguments():
    with pytest.raises(ConfigurationError):
        random_image(0, 5)
    with pytest.raises(ConfigurationError):
        sequence(0)
    with pytest.raises(ConfigurationError):
        checkerboard_image(4, 4, tile=0)

"""Sampled-mode invariants for every SSAM kernel.

``max_blocks=`` runs only a uniformly spaced subset of the grid and scales
the counters to the full grid.  Two properties must hold for the sampling
to be a valid cost estimator:

* **counter scaling** — the scaled counters land within a small tolerance
  of the full-grid run (the grids are homogeneous up to edge blocks);
* **output integrity** — the blocks that *did* execute write exactly the
  same results as in a full run (sampling must never change the
  computation, only skip parts of it).

Output integrity is checked through the written-entry mask: unexecuted
blocks leave output entries at their zero initialisation, and with
strictly positive inputs/coefficients every written entry is non-zero, so
the non-zero entries of a sampled run must be bit-identical to the full
run at the same positions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.convolution.spec import ConvolutionSpec
from repro.kernels.conv1d_ssam import ssam_convolve1d
from repro.kernels.conv2d_ssam import ssam_convolve2d
from repro.kernels.scan_ssam import ssam_scan
from repro.kernels.stencil2d_ssam import ssam_stencil2d
from repro.kernels.stencil3d_ssam import ssam_stencil3d
from repro.stencils.catalog import CATALOG

#: counters whose sampled extrapolation must track the full run
SCALED_COUNTERS = (
    "fma", "shfl", "gmem_load", "gmem_store", "smem_broadcast",
    "gmem_load_transactions", "gmem_store_transactions",
    "dram_read_bytes", "dram_write_bytes",
)
#: relative tolerance of the extrapolation (edge blocks differ slightly)
RTOL = 0.15
#: sample size; chosen so the sampling stride is coprime to the test grids'
#: per-axis extents (a stride that is a multiple of the y/z extent would
#: over-represent boundary blocks and bias the halo-traffic extrapolation)
MAX_BLOCKS = 6


def _positive_image(shape, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 1.5, size=shape).astype(np.float32)


def _run_kernel(name, max_blocks=None):
    """Full or sampled run of one SSAM kernel on a fixed positive workload."""
    if name == "conv1d":
        taps = np.array([0.25, 0.5, 0.25])
        return ssam_convolve1d(_positive_image((8192,)), taps,
                               max_blocks=max_blocks, keep_output=True)
    # domain widths are chosen to give a single block along x (the warp
    # direction), so uniform-stride block sampling cannot alias with the
    # grid's x-periodicity (edge blocks along x do less store work)
    if name == "conv2d":
        spec = ConvolutionSpec.box(3)
        return ssam_convolve2d(_positive_image((96, 120)), spec,
                               max_blocks=max_blocks, keep_output=True)
    if name == "scan":
        return ssam_scan(_positive_image((4096,)),
                         max_blocks=max_blocks, keep_output=True)
    if name == "stencil2d":
        spec = CATALOG["2d5pt"].spec
        return ssam_stencil2d(_positive_image((96, 120)), spec, iterations=1,
                              max_blocks=max_blocks, keep_output=True)
    if name == "stencil3d":
        spec = CATALOG["3d7pt"].spec
        return ssam_stencil3d(_positive_image((32, 32, 30)), spec, iterations=1,
                              max_blocks=max_blocks, keep_output=True)
    raise AssertionError(name)


KERNELS = ("conv1d", "conv2d", "scan", "stencil2d", "stencil3d")


@pytest.mark.parametrize("name", KERNELS)
def test_sampled_counters_scale_to_full_grid(name):
    full = _run_kernel(name)
    sampled = _run_kernel(name, max_blocks=MAX_BLOCKS)
    assert sampled.launch.sampled
    assert sampled.launch.blocks_executed < full.launch.blocks_executed
    assert sampled.launch.counters.blocks_executed == pytest.approx(
        full.launch.counters.blocks_executed, rel=RTOL)
    full_counts = full.launch.counters.as_dict()
    sampled_counts = sampled.launch.counters.as_dict()
    for counter in SCALED_COUNTERS:
        if full_counts[counter] == 0:
            assert sampled_counts[counter] == 0
        else:
            assert sampled_counts[counter] == pytest.approx(
                full_counts[counter], rel=RTOL), counter


@pytest.mark.parametrize("name", ("conv1d", "conv2d", "stencil2d", "stencil3d"))
def test_sampled_blocks_write_identical_outputs(name):
    """Executed blocks of a sampled run reproduce the full run exactly."""
    full = _run_kernel(name)
    sampled = _run_kernel(name, max_blocks=MAX_BLOCKS)
    written = sampled.output != 0
    # the sample really ran something, but not everything
    assert written.any()
    assert not written.all()
    assert np.array_equal(sampled.output[written], full.output[written])


def test_sampled_scan_preserves_leading_block():
    """The scan's host carry pass sees zero sums for unexecuted blocks, so
    only the leading block (which needs no carry) is comparable — and it
    must be bit-identical."""
    full = _run_kernel("scan")
    sampled = _run_kernel("scan", max_blocks=MAX_BLOCKS)
    block = 128  # block_threads default
    assert np.array_equal(sampled.output[:block], full.output[:block])


@pytest.mark.parametrize("batch_size", [1, "auto"],
                         ids=["batch-of-one", "batched"])
def test_sampled_mode_identical_across_engines(batch_size):
    """Sampling composes with any batch size bit-identically."""
    spec = ConvolutionSpec.box(3)
    image = _positive_image((96, 256))
    result = ssam_convolve2d(image, spec, max_blocks=MAX_BLOCKS,
                             batch_size=batch_size, keep_output=True)
    reference = ssam_convolve2d(image, spec, max_blocks=MAX_BLOCKS,
                                keep_output=True)
    assert np.array_equal(result.output, reference.output)
    assert result.launch.counters.as_dict() == reference.launch.counters.as_dict()

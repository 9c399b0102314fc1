"""Differential tests: a batch of one block vs. larger batches.

Every test runs the same kernel twice — once with ``batch_size=1`` (one
:class:`~repro.gpu.batch.BatchedBlockContext` per block) and once with
multi-block batches (``"auto"`` or a fixed size) — and asserts
**bit-identical** outputs plus **identical**
:class:`~repro.gpu.counters.KernelCounters`.  This checks that the
segmented per-block accounting does not depend on how the grid is cut into
batches.  Domains are chosen so that grids contain partial/masked edge
blocks in every dimension.
"""

import numpy as np
import pytest

from repro.convolution.spec import ConvolutionSpec
from repro.gpu.kernel import (
    DEFAULT_BATCH_MEMORY_BYTES,
    Kernel,
    LaunchConfig,
    MAX_AUTO_BATCH_BLOCKS,
    auto_batch_size,
    grid_1d,
)
from repro.errors import LaunchError
from repro.gpu.memory import GlobalMemory, rowwise_unique_counts
from repro.gpu.shared_memory import bank_conflict_degree, bank_conflict_profile
from repro.kernels.conv1d_ssam import ssam_convolve1d
from repro.kernels.conv2d_ssam import ssam_convolve2d
from repro.kernels.scan_ssam import ssam_scan
from repro.kernels.stencil2d_ssam import ssam_stencil2d
from repro.kernels.stencil3d_ssam import ssam_stencil3d
from repro.stencils.catalog import get_stencil
from repro.workloads import random_grid_3d, random_image, sequence


def assert_equivalent(single, batched):
    """Outputs bit-identical, counters identical field by field."""
    if single.output is None:
        assert batched.output is None
    else:
        assert single.output.dtype == batched.output.dtype
        np.testing.assert_array_equal(single.output, batched.output)
    single_counters = single.launch.counters.as_dict()
    batched_counters = batched.launch.counters.as_dict()
    mismatched = {name: (single_counters[name], batched_counters[name])
                  for name in single_counters
                  if single_counters[name] != batched_counters[name]}
    assert not mismatched, f"counter mismatch: {mismatched}"


# --- the five SSAM kernels -----------------------------------------------------

@pytest.mark.parametrize("batch_size", ["auto", 7])
@pytest.mark.parametrize("size", [3, 5])
def test_conv2d_batched_matches_batch_of_one(size, batch_size):
    spec = ConvolutionSpec.random(size, seed=size)
    image = random_image(97, 83, seed=1)  # partial blocks on both grid edges
    single = ssam_convolve2d(image, spec, "p100", batch_size=1)
    batched = ssam_convolve2d(image, spec, "p100", batch_size=batch_size)
    assert_equivalent(single, batched)


def test_conv2d_batched_matches_batch_of_one_rectangular_double():
    spec = ConvolutionSpec.random(5, 3, seed=9)
    image = random_image(66, 41, precision="float64", seed=2)
    single = ssam_convolve2d(image, spec, "v100", precision="float64", batch_size=1)
    batched = ssam_convolve2d(image, spec, "v100", precision="float64")
    assert_equivalent(single, batched)


def test_conv1d_batched_matches_batch_of_one():
    data = sequence(301, seed=3)
    taps = np.array([0.25, 0.5, 0.25, -0.1, 0.3])
    single = ssam_convolve1d(data, taps, batch_size=1)
    batched = ssam_convolve1d(data, taps)
    assert_equivalent(single, batched)


@pytest.mark.parametrize("name", ["2d5pt", "2d9pt", "2d121pt"])
def test_stencil2d_batched_matches_batch_of_one(name):
    spec = get_stencil(name)
    grid = random_image(70, 45, seed=2)
    single = ssam_stencil2d(grid, spec, iterations=2, batch_size=1)
    batched = ssam_stencil2d(grid, spec, iterations=2)
    assert_equivalent(single, batched)


@pytest.mark.parametrize("name", ["3d7pt", "3d27pt"])
def test_stencil3d_batched_matches_batch_of_one(name):
    spec = get_stencil(name)
    grid = random_grid_3d(25, 17, 9, seed=4)  # masked edges in x, y and z
    single = ssam_stencil3d(grid, spec, iterations=1, batch_size=1)
    batched = ssam_stencil3d(grid, spec, iterations=1)
    assert_equivalent(single, batched)


@pytest.mark.parametrize("length", [33, 1000])
def test_scan_batched_matches_batch_of_one(length):
    data = sequence(length, seed=length)
    single = ssam_scan(data, batch_size=1)
    batched = ssam_scan(data)
    assert_equivalent(single, batched)


# --- the functional baselines ---------------------------------------------------

def test_baseline_conv2d_batched_matches_batch_of_one():
    from repro.baselines.conv2d import (
        arrayfire_like_convolve2d,
        halide_like_convolve2d,
        npp_like_convolve2d,
    )

    spec = ConvolutionSpec.gaussian(5)
    image = random_image(130, 71, seed=6)
    for runner in (npp_like_convolve2d, arrayfire_like_convolve2d,
                   halide_like_convolve2d):
        single = runner(image, spec, batch_size=1)
        batched = runner(image, spec)
        assert_equivalent(single, batched)


def test_baseline_stencils_batched_matches_batch_of_one():
    from repro.baselines.stencil2d import (
        halide_like_stencil2d,
        original_stencil2d,
        ppcg_like_stencil2d,
    )
    from repro.baselines.stencil3d import original_stencil3d

    spec2d = get_stencil("2d9pt")
    grid2d = random_image(70, 45, seed=7)
    for runner in (original_stencil2d, ppcg_like_stencil2d, halide_like_stencil2d):
        assert_equivalent(runner(grid2d, spec2d, batch_size=1), runner(grid2d, spec2d))
    spec3d = get_stencil("3d7pt")
    grid3d = random_grid_3d(25, 17, 9, seed=8)
    assert_equivalent(original_stencil3d(grid3d, spec3d, batch_size=1),
                      original_stencil3d(grid3d, spec3d))


# --- engine plumbing -----------------------------------------------------------

def _axpy_kernel(ctx, x, y, out, n):
    idx = ctx.block_idx_x * ctx.block_threads + ctx.thread_idx_x
    mask = idx < n
    safe = np.minimum(idx, n - 1)
    a = ctx.load_global(x, safe, mask=mask)
    b = ctx.load_global(y, safe, mask=mask)
    ctx.store_global(out, safe, ctx.mad(a, ctx.full(2.0), b), mask=mask)


def _launch_axpy(n, **kwargs):
    memory = GlobalMemory()
    x = memory.to_device(np.arange(n, dtype=np.float32))
    y = memory.to_device(np.ones(n, dtype=np.float32))
    out = memory.allocate((n,), "float32")
    config = LaunchConfig(grid_dim=grid_1d(n, 128), block_threads=128)
    result = Kernel(_axpy_kernel).launch(config, (x, y, out, n), "p100", **kwargs)
    return result, out.to_host()


@pytest.mark.parametrize("batch_size", [2, 3, "auto"])
def test_masked_partial_warps_match_batch_of_one(batch_size):
    single, single_out = _launch_axpy(300, batch_size=1)
    batched, batched_out = _launch_axpy(300, batch_size=batch_size)
    np.testing.assert_array_equal(single_out, batched_out)
    assert single.counters.as_dict() == batched.counters.as_dict()
    assert batched.blocks_executed == single.blocks_executed


def test_batched_sampling_matches_batch_of_one_sampling():
    single, _ = _launch_axpy(128 * 64, max_blocks=8, batch_size=1)
    batched, _ = _launch_axpy(128 * 64, max_blocks=8, batch_size="auto")
    assert single.sampled and batched.sampled
    assert batched.blocks_executed == single.blocks_executed == 8
    assert single.counters.as_dict() == batched.counters.as_dict()


def test_batch_size_validation():
    with pytest.raises(LaunchError):
        _launch_axpy(256, batch_size=0)
    with pytest.raises(LaunchError):
        _launch_axpy(256, batch_size="bogus")


def test_auto_batch_size_bounds():
    config = LaunchConfig(grid_dim=(10, 10, 1), block_threads=128)
    blocks = auto_batch_size(config)
    assert 1 <= blocks <= MAX_AUTO_BATCH_BLOCKS
    # a tiny budget still yields at least one block per batch
    assert auto_batch_size(config, memory_budget_bytes=1) == 1
    # the budget bounds the batch: double budget, no smaller batch
    assert auto_batch_size(config,
                           memory_budget_bytes=2 * DEFAULT_BATCH_MEMORY_BYTES) >= blocks
    # declared shared memory counts against the budget
    fat = LaunchConfig(grid_dim=(10, 10, 1), block_threads=128,
                       shared_bytes_per_block=96 * 1024)
    assert auto_batch_size(fat) < blocks


def test_traffic_tracker_compaction_is_exact():
    """Folding pending line matrices early must not change unique-line bytes."""
    from repro.gpu.batch import BatchedTrafficTracker
    from repro.gpu.memory import DeviceBuffer

    buf = DeviceBuffer(array=np.zeros(4096, dtype=np.float32))
    rng = np.random.default_rng(0)
    recorded = [rng.integers(0, 4096, size=(3, 32)) for _ in range(10)]
    masks = [rng.random((3, 32)) < 0.8 for _ in range(10)]
    tracker = BatchedTrafficTracker(3, line_bytes=128, compact_columns=4)
    for indices, mask in zip(recorded, masks):
        tracker.record_read(buf, (indices * 4) // 128, mask)
    expected = sum(
        np.unique(np.concatenate(
            [(recorded[i][row][masks[i][row]] * 4) // 128 for i in range(10)]
        )).size
        for row in range(3)
    ) * 128.0
    assert tracker.finalize() == expected


# --- vectorised accounting helpers ----------------------------------------------

def test_rowwise_unique_counts_matches_np_unique():
    rng = np.random.default_rng(7)
    values = rng.integers(0, 50, size=(40, 32))
    mask = rng.random((40, 32)) < 0.7
    expected = np.array([np.unique(row[m]).size for row, m in zip(values, mask)])
    np.testing.assert_array_equal(rowwise_unique_counts(values, mask), expected)
    expected_full = np.array([np.unique(row).size for row in values])
    np.testing.assert_array_equal(rowwise_unique_counts(values), expected_full)


@pytest.mark.parametrize("itemsize", [4, 8])
def test_bank_conflict_profile_matches_scalar_degree(itemsize):
    rng = np.random.default_rng(11)
    indices = rng.integers(0, 256, size=(25, 32))
    mask = rng.random((25, 32)) < 0.8
    degrees, broadcasts, active = bank_conflict_profile(indices, itemsize, mask=mask)
    for r in range(indices.shape[0]):
        row = indices[r][mask[r]]
        assert degrees[r] == bank_conflict_degree(row, itemsize)
        assert active[r] == row.size
        assert broadcasts[r] == bool(row.size and np.unique(row).size == 1)

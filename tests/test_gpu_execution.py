"""Tests for occupancy, the block/kernel execution machinery and the profiler."""

import numpy as np
import pytest

from repro.dtypes import resolve_precision
from repro.errors import ConfigurationError, LaunchError, SimulationError
from repro.gpu.architecture import TESLA_P100, TESLA_V100
from repro.gpu.batch import BatchedBlockContext
from repro.gpu.counters import KernelCounters, merge_counters
from repro.gpu.kernel import Kernel, LaunchConfig, grid_1d, grid_2d
from repro.gpu.memory import GlobalMemory
from repro.gpu.microbench import (
    DependentChain,
    IndependentStream,
    latency_throughput_gap,
    measure_latency,
    run_table2,
)
from repro.gpu.occupancy import compute_occupancy
from repro.gpu.profiler import estimate_time
from repro.gpu.simt import grouped_warp_counts


# --- occupancy ---------------------------------------------------------------

def test_full_occupancy_small_kernel():
    occ = compute_occupancy(TESLA_P100, 128, 32, 0)
    assert occ.occupancy == 1.0
    assert occ.active_warps_per_sm == 64


def test_register_limited_occupancy():
    occ = compute_occupancy(TESLA_P100, 256, 255, 0)
    assert occ.is_register_limited
    assert occ.occupancy < 0.5


def test_shared_memory_limited_occupancy():
    occ = compute_occupancy(TESLA_P100, 128, 32, 32 * 1024)
    assert occ.is_shared_memory_limited
    assert occ.active_blocks_per_sm == 2


def test_occupancy_rejects_bad_blocks():
    with pytest.raises(ConfigurationError):
        compute_occupancy(TESLA_P100, 0, 32, 0)
    with pytest.raises(ConfigurationError):
        compute_occupancy(TESLA_P100, 2048, 32, 0)
    with pytest.raises(ConfigurationError):
        compute_occupancy(TESLA_P100, 128, 32, 10**6)


@pytest.mark.parametrize("regs, expected_min", [(32, 64), (64, 32), (128, 16), (255, 8)])
def test_occupancy_decreases_with_register_pressure(regs, expected_min):
    occ = compute_occupancy(TESLA_V100, 128, regs, 0)
    assert occ.active_warps_per_sm >= expected_min // 2


# --- counters ----------------------------------------------------------------

def test_counters_merge_and_scale():
    a = KernelCounters(fma=10, shfl=2, dram_read_bytes=100.0)
    b = KernelCounters(fma=5, gmem_load=3)
    merged = merge_counters([a, b])
    assert merged.fma == 15 and merged.shfl == 2 and merged.gmem_load == 3
    scaled = merged.scaled(2.0)
    assert scaled.fma == 30 and scaled.dram_read_bytes == 200.0
    assert merged.flops == (2 * 15 + 0) * 32


def test_counters_round_trip_dict():
    counters = KernelCounters(fma=7, sync=2)
    clone = KernelCounters.from_dict(counters.as_dict())
    assert clone.fma == 7 and clone.sync == 2
    with pytest.raises(KeyError):
        KernelCounters.from_dict({"bogus": 1})


# --- SIMT helpers --------------------------------------------------------------

def test_active_and_divergent_warps():
    mask = np.zeros(96, dtype=bool)
    mask[:40] = True  # warp0 full, warp1 partial, warp2 empty
    assert grouped_warp_counts(mask) == (2, 1)
    # a batch of blocks sums over every warp of every block
    batch = np.stack([mask, np.ones(96, dtype=bool), np.zeros(96, dtype=bool)])
    assert grouped_warp_counts(batch) == (5, 1)
    assert grouped_warp_counts(np.zeros((0, 32), dtype=bool)) == (0, 0)


# --- block context / kernel launch ---------------------------------------------

def _axpy_kernel(ctx, x, y, out, n):
    idx = ctx.block_idx_x * ctx.block_threads + ctx.thread_idx_x
    mask = idx < n
    safe = np.minimum(idx, n - 1)
    a = ctx.load_global(x, safe, mask=mask)
    b = ctx.load_global(y, safe, mask=mask)
    ctx.store_global(out, safe, ctx.mad(a, ctx.full(2.0), b), mask=mask)


def test_kernel_launch_functional_and_counted():
    memory = GlobalMemory()
    n = 300
    x = memory.to_device(np.arange(n, dtype=np.float32))
    y = memory.to_device(np.ones(n, dtype=np.float32))
    out = memory.allocate((n,), "float32")
    config = LaunchConfig(grid_dim=grid_1d(n, 128), block_threads=128)
    result = Kernel(_axpy_kernel).launch(config, (x, y, out, n), "p100")
    np.testing.assert_allclose(out.to_host(), 2.0 * np.arange(n) + 1.0)
    assert result.counters.fma == 3 * 4  # 3 blocks x 4 warps
    # 2 loads per active warp; the last block has two fully masked-off warps
    assert result.counters.gmem_load == 20
    assert result.counters.dram_read_bytes > 0
    assert result.seconds > 0
    assert result.occupancy.occupancy > 0.5


def test_kernel_launch_sampling_scales_counters():
    memory = GlobalMemory()
    n = 128 * 64
    x = memory.to_device(np.ones(n, dtype=np.float32))
    y = memory.to_device(np.ones(n, dtype=np.float32))
    out = memory.allocate((n,), "float32")
    config = LaunchConfig(grid_dim=grid_1d(n, 128), block_threads=128)
    full = Kernel(_axpy_kernel).launch(config, (x, y, out, n), "p100")
    sampled = Kernel(_axpy_kernel).launch(config, (x, y, out, n), "p100", max_blocks=8)
    assert sampled.sampled and sampled.blocks_executed == 8
    assert sampled.counters.fma == pytest.approx(full.counters.fma, rel=0.01)


def test_kernel_launch_rejects_bad_block_size():
    config = LaunchConfig(grid_dim=(1, 1, 1), block_threads=48)
    with pytest.raises(LaunchError):
        Kernel(_axpy_kernel).launch(config, (None, None, None, 0), "p100")


def _single_block_context(block_threads, counters):
    """A batch of one block: block (0, 0, 0) of a one-block grid."""
    return BatchedBlockContext(np.zeros((1, 3), dtype=np.int64), (1, 1, 1),
                               block_threads, TESLA_P100, counters,
                               resolve_precision("float32"))


def test_block_context_bounds_checking():
    memory = GlobalMemory()
    buf = memory.allocate((10,), "float32")
    counters = KernelCounters()
    ctx = _single_block_context(32, counters)
    with pytest.raises(SimulationError):
        ctx.load_global(buf, np.full(32, 100, dtype=np.int64))
    with pytest.raises(SimulationError):
        ctx.load_global(buf, np.zeros(16, dtype=np.int64))


def test_block_context_shuffle_and_shared_roundtrip():
    counters = KernelCounters()
    ctx = _single_block_context(64, counters)
    values = ctx.thread_idx_x.astype(np.float32)
    shifted = ctx.shfl_up(values, 1)
    assert shifted.shape == (1, 64)
    assert shifted[0, 33] == 32.0 and shifted[0, 32] == 32.0
    smem = ctx.alloc_shared("buf", (64,))
    ctx.store_shared(smem, ctx.thread_idx_x, values)
    loaded = ctx.load_shared(smem, ctx.thread_idx_x[::-1].copy())
    np.testing.assert_array_equal(loaded, values[None, ::-1])
    assert counters.shfl == 2
    assert counters.smem_store == 2
    ctx.syncthreads()
    assert counters.sync == 2


def test_grid_helpers():
    assert grid_1d(100, 32) == (4, 1, 1)
    assert grid_2d(100, 32, 50, 8) == (4, 7, 1)
    with pytest.raises(ConfigurationError):
        grid_1d(100, 0)


# --- profiler --------------------------------------------------------------------

def test_estimate_time_memory_bound_kernel():
    counters = KernelCounters(dram_read_bytes=1e9, dram_write_bytes=1e9, fma=1e4)
    timing = estimate_time(counters, TESLA_P100)
    assert timing.bottleneck == "dram"
    assert timing.total_seconds == pytest.approx(2e9 / TESLA_P100.effective_bandwidth_bytes,
                                                 rel=0.01)


def test_estimate_time_compute_bound_kernel():
    counters = KernelCounters(fma=1e9, dram_read_bytes=1e6)
    timing = estimate_time(counters, TESLA_V100)
    assert timing.bottleneck in ("arithmetic", "issue")
    assert timing.arithmetic_seconds > timing.dram_seconds


def test_double_precision_doubles_arithmetic_time():
    counters = KernelCounters(fma=1e9)
    single = estimate_time(counters, TESLA_P100, precision="float32")
    double = estimate_time(counters, TESLA_P100, precision="float64")
    assert double.arithmetic_seconds == pytest.approx(2 * single.arithmetic_seconds)


def test_low_occupancy_reduces_bandwidth_attainment():
    counters = KernelCounters(dram_read_bytes=1e9)
    high = estimate_time(counters, TESLA_P100,
                         occupancy=compute_occupancy(TESLA_P100, 128, 32, 0),
                         memory_parallelism=8)
    low = estimate_time(counters, TESLA_P100,
                        occupancy=compute_occupancy(TESLA_P100, 128, 255, 0),
                        memory_parallelism=1)
    assert low.bandwidth_attainment < high.bandwidth_attainment
    assert low.dram_seconds > high.dram_seconds


def test_bank_conflicts_increase_smem_time():
    clean = estimate_time(KernelCounters(smem_load=1e6), TESLA_P100)
    conflicted = estimate_time(KernelCounters(smem_load=1e6, smem_bank_conflicts=1e6),
                               TESLA_P100)
    assert conflicted.smem_seconds == pytest.approx(2 * clean.smem_seconds)


# --- micro-benchmarks (Table 2) ----------------------------------------------------

@pytest.mark.parametrize("arch, op, expected", [
    ("p100", "shfl", 33.0), ("p100", "fma", 6.0), ("p100", "smem_load", 33.0),
    ("v100", "shfl", 22.0), ("v100", "fma", 4.0), ("v100", "smem_load", 27.0),
])
def test_measured_latencies_match_table2(arch, op, expected):
    assert measure_latency(arch, op) == pytest.approx(expected)


def test_run_table2_structure():
    rows = run_table2()
    assert len(rows) == 6
    assert {row["gpu"] for row in rows} == {"Tesla P100", "Tesla V100"}


def test_dependent_chain_slower_than_independent_stream():
    assert latency_throughput_gap("p100", "fma") > 5
    assert latency_throughput_gap("v100", "shfl") > 10


def test_chain_validation():
    with pytest.raises(ConfigurationError):
        DependentChain("bogus_op")
    with pytest.raises(ConfigurationError):
        IndependentStream("fma", 0)


def test_occupancy_triple_is_self_consistent():
    """blocks/warps/threads always describe the same resident set: warps and
    threads are exact multiples of the block count, and no derived value can
    exceed its hardware cap."""
    for arch in (TESLA_P100, TESLA_V100):
        for block_threads in (32, 64, 96, 128, 256, 512, 1024):
            for regs in (0, 24, 32, 64, 128, 255):
                for smem in (0, 1024, 16 * 1024, 48 * 1024):
                    if smem > arch.shared_memory_per_block:
                        continue
                    occ = compute_occupancy(arch, block_threads, regs, smem)
                    # warps allocate in granules (cf. warp_allocation_granularity)
                    raw = -(-block_threads // arch.warp_size)
                    gran = arch.warp_allocation_granularity
                    warps_per_block = -(-raw // gran) * gran
                    assert occ.active_warps_per_sm == \
                        occ.active_blocks_per_sm * warps_per_block
                    assert occ.active_threads_per_sm == \
                        occ.active_blocks_per_sm * block_threads
                    assert occ.active_warps_per_sm <= arch.max_warps_per_sm
                    assert occ.active_threads_per_sm <= arch.max_threads_per_sm
                    assert occ.limits[occ.limiting_factor] == occ.active_blocks_per_sm


def test_occupancy_tie_break_follows_the_documented_priority():
    """When several limits bind at the same block count, the reported factor
    is the highest-priority one (resource limits before slot limits), not
    whatever dict insertion order happens to produce."""
    from repro.gpu.occupancy import LIMIT_PRIORITY

    assert LIMIT_PRIORITY == ("registers", "shared_memory", "warps",
                              "threads", "blocks")
    # P100, 128 threads, 32 regs: warps, threads and registers all limit at
    # 16 resident blocks; the documented priority picks registers
    occ = compute_occupancy(TESLA_P100, 128, 32, 0)
    assert occ.limits["warps"] == occ.limits["threads"] == occ.limits["registers"] == 16
    assert occ.limiting_factor == "registers"
    # with no register pressure the tie between warps and threads resolves
    # to warps (higher priority than threads)
    occ = compute_occupancy(TESLA_P100, 128, 0, 0)
    assert occ.limits["warps"] == occ.limits["threads"] == 16
    assert occ.limiting_factor == "warps"

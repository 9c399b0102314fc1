"""SSAM Kogge–Stone scan (the motivating example of Section 3.6, Figure 1e).

Each warp holds one element per lane and performs ``log2(WarpSize)``
shuffle+add stages, exactly the dependency graph produced by
:func:`repro.core.dependency.scan_dependency`.  Block-level and grid-level
results are combined with the standard scan-of-partial-sums scheme so the
public API scans sequences of arbitrary length.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.launch_defaults import paper_default
from ..dtypes import Precision, resolve_precision
from ..errors import ConfigurationError
from ..gpu.architecture import GPUArchitecture, get_architecture, warp_sectors
from ..gpu.batch import BatchedBlockContext
from ..gpu.counters import KernelCounters
from ..gpu.kernel import Kernel, LaunchConfig, grid_1d, sampled_blocks
from ..gpu.memory import DeviceBuffer, GlobalMemory
from ..gpu.occupancy import validate_block_threads
from .common import KernelRunResult, analytic_result

#: measured register footprint / load parallelism of the scan kernel
SCAN_REGISTERS_PER_THREAD = 24
SCAN_MEMORY_PARALLELISM = 2.0


def _scan_block(ctx: BatchedBlockContext, src: DeviceBuffer, dst: DeviceBuffer,
                block_sums: DeviceBuffer, length: int) -> None:
    """Warp-level Kogge–Stone scan + shared-memory combine across warps."""
    warp_size = ctx.warp_size
    tid = ctx.thread_idx_x
    lane = ctx.lane_id
    warp = ctx.warp_id
    global_index = ctx.block_idx_x * ctx.block_threads + tid
    mask = global_index < length
    safe = np.minimum(global_index, length - 1)

    values = ctx.load_global(src, safe, mask=mask)
    values = np.where(mask, values, 0.0).astype(ctx.numpy_dtype)

    # Kogge-Stone within each warp (Figure 1e)
    stages = int(math.log2(warp_size))
    for stage in range(stages):
        delta = 1 << stage
        shifted = ctx.shfl_up(values, delta)
        contribution = np.where(lane >= delta, shifted, 0.0).astype(ctx.numpy_dtype)
        values = ctx.add(values, contribution)

    # warp totals -> shared memory -> exclusive offsets per warp
    warp_totals = ctx.alloc_shared("warp_totals", (ctx.num_warps,))
    last_lane = lane == (warp_size - 1)
    ctx.store_shared(warp_totals, warp.astype(np.int64), values, mask=last_lane)
    ctx.syncthreads()

    offsets = ctx.zeros()
    for w in range(ctx.num_warps):
        total = ctx.load_shared(warp_totals, np.int64(w))
        contribution = np.where(warp > w, total, 0.0).astype(ctx.numpy_dtype)
        offsets = ctx.add(offsets, contribution)
    values = ctx.add(values, offsets)

    ctx.store_global(dst, safe, values, mask=mask)
    # record the block total so the host pass can make the scan global
    # (the block index broadcasts to one destination per thread; only the
    # last thread's lane is active)
    block_last = tid == (ctx.block_threads - 1)
    ctx.store_global(block_sums, ctx.block_idx_x, values, mask=block_last)


SCAN_SSAM_KERNEL = Kernel(_scan_block, name="ssam_scan")


def launch_config(length: int, arch: GPUArchitecture, prec: Precision,
                  block_threads: Optional[int] = None) -> LaunchConfig:
    """The scan's launch: one element per thread, B threads (the paper
    default when unset) per block and one shared word per warp total.

    The kernel wrapper and :func:`analytic_launch` both take their launch
    from here, so they cannot disagree.
    """
    if block_threads is None:
        block_threads = paper_default("block_threads")
    validate_block_threads(arch, block_threads)
    return LaunchConfig(
        grid_dim=grid_1d(length, block_threads),
        block_threads=block_threads,
        registers_per_thread=SCAN_REGISTERS_PER_THREAD,
        shared_bytes_per_block=(block_threads // arch.warp_size) * prec.itemsize,
        precision=prec,
        memory_parallelism=SCAN_MEMORY_PARALLELISM,
    )


def ssam_scan(sequence: np.ndarray, architecture: object = "p100",
              precision: object = "float32",
              block_threads: Optional[int] = None,
              batch_size: object = "auto",
              max_blocks: Optional[int] = None,
              keep_output: bool = False) -> KernelRunResult:
    """Inclusive prefix sum of a 1-D sequence using the SSAM scan kernel.

    ``max_blocks`` samples the grid for cost estimation: counters are
    scaled to the full grid and the host carry pass sees zero sums for the
    unexecuted blocks, so outputs are only exact for the leading block.
    Partial outputs are returned with ``keep_output=True``.
    """
    sequence = np.asarray(sequence)
    if sequence.ndim != 1 or sequence.size == 0:
        raise ConfigurationError("ssam_scan expects a non-empty 1-D sequence")
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    length = int(sequence.size)
    config = launch_config(length, arch, prec, block_threads)
    memory = GlobalMemory()
    src = memory.to_device(sequence, name="sequence", dtype=prec.numpy_dtype,
                           read_only=True)
    dst = memory.allocate((length,), prec, name="scanned")
    block_sums = memory.allocate((config.total_blocks,), prec, name="block_sums")
    launch = SCAN_SSAM_KERNEL.launch(config, args=(src, dst, block_sums, length),
                                     architecture=arch, max_blocks=max_blocks,
                                     batch_size=batch_size)
    output = None
    if max_blocks is None or keep_output:
        # host-side carry propagation across blocks (the "scan of block
        # sums" pass); skipped entirely when the output is discarded
        output = dst.array
        carry_blocks(output, block_sums.array, config.block_threads,
                     sampled_blocks(config.total_blocks, max_blocks))
    return KernelRunResult(
        name="ssam",
        output=output,
        launch=launch,
        parameters={"length": length, "B": config.block_threads,
                    "architecture": arch.name, "precision": prec.name},
    )


def analytic_launch(length: int, arch: GPUArchitecture,
                    config: LaunchConfig) -> KernelRunResult:
    """Closed-form instruction/traffic profile of the scan kernel on ``arch``
    under ``config`` (its :func:`launch_config`).

    Every warp loads once, runs ``log2(WarpSize)`` shuffle+add stages,
    publishes its total to shared memory, synchronises, reads every warp
    total through the broadcast path and stores once; one thread per
    block also stores the block total.
    """
    prec = config.precision
    blocks = config.total_blocks
    warps_per_block = config.block_threads // arch.warp_size
    warps = blocks * warps_per_block
    stages = int(math.log2(arch.warp_size))
    sectors = warp_sectors(arch, prec.itemsize)
    counters = KernelCounters(
        blocks_executed=blocks, warps_executed=warps,
        gmem_load=warps, gmem_load_transactions=warps * sectors,
        shfl=stages * warps,
        # the stage adds, one carry add per warp total, and the final add
        add=(stages + warps_per_block + 1) * warps,
        smem_store=warps, smem_broadcast=warps_per_block * warps, sync=warps,
        gmem_store=warps + blocks,
        gmem_store_transactions=warps * sectors + blocks,
        dram_read_bytes=float(length * prec.itemsize),
        dram_write_bytes=float((length + blocks) * prec.itemsize))
    parameters = {"length": length, "B": config.block_threads,
                  "architecture": arch.name, "precision": prec.name,
                  "analytic": True}
    return analytic_result("ssam", counters, config, arch, parameters,
                           kernel_name="ssam_scan_analytic")


def carry_blocks(scanned: np.ndarray, block_sums: np.ndarray,
                 block_threads: int, ran: Optional[range] = None) -> None:
    """Add every block's carry, the float64 sum of the block totals before
    it, to that block's per-block scan, in place.

    ``ran`` (default every block) names the blocks the launch ran, as
    :func:`~repro.gpu.kernel.sampled_blocks` does.  Each of them gets
    exactly one float64 add of its carry, rounded once to the scan's
    dtype: one strided add over the full blocks and one for the tail.
    Every other block's scan is +0.0, so it is filled with its carry plus
    +0.0 rounded once, the add's result (a -0.0 carry gives +0.0).
    """
    carries = np.cumsum(block_sums, dtype=np.float64)
    blocks = -(-scanned.size // block_threads)
    full = scanned.size // block_threads
    if ran is None:
        ran = range(blocks)
    idle = np.ones(blocks, bool)
    idle[ran.start:ran.stop:ran.step] = False
    idle[0] = False  # the first block has no carry
    fill = np.zeros(blocks, scanned.dtype)
    fill[1:] = carries[:blocks - 1] + 0.0
    body = scanned[:full * block_threads].reshape(full, block_threads)
    body[idle[:full]] = fill[:full][idle[:full], None]
    busy = slice(ran.start or ran.step, min(ran.stop, full), ran.step)
    body[busy] += carries[busy.start - 1:busy.stop - 1:busy.step, None]
    if blocks > full:
        # the tail block; a one-element carry keeps its add in float64
        tail = scanned[full * block_threads:]
        if idle[full]:
            tail[...] = fill[full]
        elif full:
            tail += carries[full - 1:full]


def reference_scan(sequence: np.ndarray) -> np.ndarray:
    """Ground-truth inclusive scan."""
    return np.cumsum(np.asarray(sequence, dtype=np.float64)).astype(np.asarray(sequence).dtype)

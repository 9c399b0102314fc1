"""SSAM 1-D convolution — the motivating example of Section 3.5.

One warp caches WarpSize consecutive elements (one per lane); the filter
taps are applied as successive partial sums shifted up between taps, just
like one row of the 2-D kernel.  Kept deliberately close to the paper's
exposition: it is the smallest complete example of the J = (O, D, X, Y)
mapping and is used heavily by the unit tests and the quickstart example.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.launch_defaults import paper_default
from ..dtypes import Precision, resolve_precision
from ..errors import ConfigurationError
from ..gpu.architecture import GPUArchitecture, get_architecture, warp_sectors
from ..gpu.batch import BatchedBlockContext
from ..gpu.counters import KernelCounters
from ..gpu.kernel import Kernel, LaunchConfig, grid_1d
from ..gpu.memory import DeviceBuffer, GlobalMemory
from ..gpu.occupancy import validate_block_threads
from .common import KernelRunResult, analytic_result, clamp

#: measured register footprint / load parallelism of the 1-D kernel
CONV1D_REGISTERS_PER_THREAD = 22
CONV1D_MEMORY_PARALLELISM = 2.0


def _conv1d_ssam_block(ctx: BatchedBlockContext, src: DeviceBuffer, dst: DeviceBuffer,
                       taps: tuple, length: int, anchor: int) -> None:
    """1-D SSAM convolution for one thread block."""
    filter_width = len(taps)
    warp_size = ctx.warp_size
    valid = warp_size - filter_width + 1
    lane = ctx.lane_id
    warp = ctx.warp_id
    warp_base = (ctx.block_idx_x * ctx.num_warps + warp) * valid

    column = clamp(warp_base + lane - anchor, 0, length - 1)
    cached = ctx.load_global(src, column)

    partial = ctx.zeros()
    for m, tap in enumerate(taps):
        if m > 0:
            partial = ctx.shfl_up(partial, 1)
        partial = ctx.mad(cached, ctx.full(float(tap)), partial)

    out_x = warp_base + lane - (filter_width - 1)
    mask = (lane >= filter_width - 1) & (out_x >= 0) & (out_x < length)
    ctx.store_global(dst, clamp(out_x, 0, length - 1), partial, mask=mask)


CONV1D_SSAM_KERNEL = Kernel(_conv1d_ssam_block, name="ssam_conv1d")


def launch_config(taps: int, length: int, arch: GPUArchitecture,
                  prec: Precision,
                  block_threads: Optional[int] = None) -> LaunchConfig:
    """The 1-D kernel's launch: B threads (the paper default when unset)
    per block, each warp producing ``WarpSize - taps + 1`` outputs.

    The kernel wrapper and :func:`analytic_launch` both take their launch
    from here, so they cannot disagree.
    """
    if not 1 <= taps <= arch.warp_size:
        raise ConfigurationError(
            f"1-D filters must have 1..{arch.warp_size} taps, got {taps}")
    if block_threads is None:
        block_threads = paper_default("block_threads")
    validate_block_threads(arch, block_threads)
    per_block = (block_threads // arch.warp_size) * (arch.warp_size - taps + 1)
    return LaunchConfig(
        grid_dim=grid_1d(length, per_block),
        block_threads=block_threads,
        registers_per_thread=CONV1D_REGISTERS_PER_THREAD,
        shared_bytes_per_block=0,
        precision=prec,
        memory_parallelism=CONV1D_MEMORY_PARALLELISM,
    )


def ssam_convolve1d(sequence: np.ndarray, taps: np.ndarray, anchor: Optional[int] = None,
                    architecture: object = "p100", precision: object = "float32",
                    block_threads: Optional[int] = None,
                    batch_size: object = "auto",
                    max_blocks: Optional[int] = None,
                    keep_output: bool = False) -> KernelRunResult:
    """Convolve a 1-D sequence with ``taps`` using the SSAM kernel.

    ``out[i] = sum_m in[i + m - anchor] * taps[m]`` with replicate boundary;
    the anchor defaults to the filter centre.  ``max_blocks`` samples the
    grid (counters are scaled to the full grid; outputs are partial and
    only returned with ``keep_output=True``).
    """
    sequence = np.asarray(sequence)
    taps = np.asarray(taps, dtype=np.float64)
    if sequence.ndim != 1 or sequence.size == 0:
        raise ConfigurationError("ssam_convolve1d expects a non-empty 1-D sequence")
    if taps.ndim != 1 or taps.size == 0:
        raise ConfigurationError("taps must be a non-empty 1-D array")
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    length = int(sequence.size)
    config = launch_config(taps.size, length, arch, prec, block_threads)
    anchor = taps.size // 2 if anchor is None else int(anchor)
    if not 0 <= anchor < taps.size:
        raise ConfigurationError("anchor must lie inside the filter")
    memory = GlobalMemory()
    src = memory.to_device(sequence, name="sequence", dtype=prec.numpy_dtype,
                           read_only=True)
    dst = memory.allocate((length,), prec, name="convolved")
    launch = CONV1D_SSAM_KERNEL.launch(
        config, args=(src, dst, tuple(float(t) for t in taps), length, anchor),
        architecture=arch, max_blocks=max_blocks, batch_size=batch_size)
    return KernelRunResult(
        name="ssam",
        output=dst.array if (max_blocks is None or keep_output) else None,
        launch=launch,
        parameters={"taps": taps.size, "anchor": anchor, "architecture": arch.name,
                    "precision": prec.name},
    )


def analytic_launch(taps: int, length: int, arch: GPUArchitecture,
                    config: LaunchConfig) -> KernelRunResult:
    """Closed-form instruction/traffic profile of the 1-D kernel on ``arch``
    under ``config`` (its :func:`launch_config`).

    Every warp fills its lane cache with one coalesced load, applies the
    taps as immediates with ``taps - 1`` shuffles and stores once; a block
    reads its outputs plus the ``taps - 1`` halo from DRAM.
    """
    prec = config.precision
    blocks = config.total_blocks
    warps_per_block = config.block_threads // arch.warp_size
    warps = blocks * warps_per_block
    sectors = warp_sectors(arch, prec.itemsize)
    unique_per_block = warps_per_block * (arch.warp_size - taps + 1) + taps - 1
    counters = KernelCounters(
        blocks_executed=blocks, warps_executed=warps,
        gmem_load=warps, gmem_load_transactions=warps * sectors,
        fma=taps * warps, shfl=(taps - 1) * warps,
        gmem_store=warps, gmem_store_transactions=warps * sectors,
        dram_read_bytes=float(unique_per_block * blocks * prec.itemsize),
        dram_write_bytes=float(length * prec.itemsize),
        cache_read_bytes=float(arch.warp_size * warps * prec.itemsize))
    parameters = {"taps": taps, "length": length, "architecture": arch.name,
                  "precision": prec.name, "analytic": True}
    return analytic_result("ssam", counters, config, arch, parameters,
                           kernel_name="ssam_conv1d_analytic")


def reference_convolve1d(sequence: np.ndarray, taps: np.ndarray,
                         anchor: Optional[int] = None) -> np.ndarray:
    """Ground-truth 1-D convolution with replicate boundary."""
    sequence = np.asarray(sequence, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    anchor = taps.size // 2 if anchor is None else int(anchor)
    padded = np.pad(sequence, (anchor, taps.size - 1 - anchor), mode="edge")
    result = np.zeros_like(sequence)
    for m, tap in enumerate(taps):
        result += tap * padded[m:m + sequence.size]
    return result

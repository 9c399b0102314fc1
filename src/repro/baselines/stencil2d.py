"""2-D stencil baselines for Figure 5.

The comparison set mirrors the paper's:

* ``original``  — the straightforward one-output-per-thread kernel
  (functional + analytic), standing in for Rawat et al.'s "original" codes;
* ``reordered`` — register-optimised codes that keep a column of the grid in
  registers and reuse it across several outputs (analytic cost model of
  Rawat et al.'s reordering framework);
* ``unrolled``  — the unroll-optimised variant (shallower reuse, lower
  register pressure);
* ``ppcg``      — shared-memory tiling as generated by the ppcg polyhedral
  compiler (functional + analytic);
* ``halide``    — the same scratchpad scheme with a generic auto-scheduled
  tile and extra indexing overhead.

All cost profiles follow the same traffic policy as the SSAM kernels
(perfect intra-block reuse, no inter-block reuse), so differences between
implementations come only from their genuine locality/registers/scratchpad
trade-offs.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..dtypes import resolve_precision
from ..errors import ConfigurationError
from ..gpu.architecture import get_architecture, warp_sectors
from ..gpu.batch import BatchedBlockContext
from ..gpu.counters import KernelCounters
from ..gpu.kernel import Kernel, LaunchConfig
from ..gpu.memory import DeviceBuffer
from ..gpu.register_file import registers_for_cache
from ..kernels.common import (
    KernelRunResult,
    analytic_result,
    check_image,
    clamp,
    run_jacobi,
)
from ..stencils.spec import StencilSpec


# ---------------------------------------------------------------------------
# "original": naive per-output kernel
# ---------------------------------------------------------------------------

def _naive_block(ctx: BatchedBlockContext, src: DeviceBuffer, dst: DeviceBuffer,
                 points: Tuple[Tuple[int, int, float], ...], width: int, height: int) -> None:
    gx = ctx.block_idx_x * ctx.block_threads + ctx.thread_idx_x
    gy = ctx.block_idx_y
    mask = gx < width
    total = ctx.zeros()
    for dx, dy, coefficient in points:
        row = clamp(gy + dy, 0, height - 1)
        col = clamp(gx + dx, 0, width - 1)
        value = ctx.load_global(src, row * width + col, mask=mask)
        ctx.overhead(1.0)
        total = ctx.mad(value, ctx.full(coefficient), total)
    ctx.store_global(dst, gy * width + clamp(gx, 0, width - 1), total, mask=mask)


NAIVE_STENCIL2D_KERNEL = Kernel(_naive_block, name="original_stencil2d")


def _naive_launch(spec: StencilSpec, width: int, height: int, iterations: int,
                  arch, prec, block_threads: int):
    """Launch configuration and parameters of the "original" kernel."""
    if spec.dims != 2:
        raise ConfigurationError("original_stencil2d expects a 2-D stencil")
    config = LaunchConfig(grid_dim=(math.ceil(width / block_threads), height, 1),
                          block_threads=block_threads,
                          registers_per_thread=28 + 2 * spec.num_points // 4,
                          shared_bytes_per_block=0, precision=prec,
                          memory_parallelism=3.0)
    parameters = {"stencil": spec.name, "iterations": iterations,
                  "architecture": arch.name, "precision": prec.name}
    return config, parameters


def original_stencil2d(grid: np.ndarray, spec: StencilSpec, iterations: int = 1,
                       architecture: object = "p100", precision: object = "float32",
                       block_threads: int = 128, max_blocks: Optional[int] = None,
                       batch_size: object = "auto") -> KernelRunResult:
    """The naive "original" 2-D stencil implementation."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    grid = check_image(grid)
    height, width = grid.shape
    config, parameters = _naive_launch(spec, width, height, iterations, arch, prec,
                                       block_threads)
    points = tuple((p.dx, p.dy, float(p.coefficient)) for p in spec.points)
    return run_jacobi(NAIVE_STENCIL2D_KERNEL, grid, config, (points, width, height),
                      iterations, arch, "original", parameters,
                      max_blocks=max_blocks, batch_size=batch_size)


def original_stencil2d_analytic(spec: StencilSpec, width: int, height: int,
                                iterations: int = 1, architecture: object = "p100",
                                precision: object = "float32",
                                block_threads: int = 128) -> KernelRunResult:
    """Closed-form cost of :func:`original_stencil2d` on a ``width x height`` grid."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    config, parameters = _naive_launch(spec, width, height, iterations, arch, prec,
                                       block_threads)
    blocks = config.grid_dim[0] * config.grid_dim[1]
    warps_per_block = block_threads // arch.warp_size
    total_warps = blocks * warps_per_block
    taps = spec.num_points
    sectors = warp_sectors(arch, prec.itemsize)
    counters = KernelCounters(
        fma=taps * total_warps * iterations,
        misc=taps * total_warps * iterations,
        gmem_load=taps * total_warps * iterations,
        gmem_load_transactions=taps * total_warps * (sectors + 1) * iterations,
        gmem_store=total_warps * iterations,
        gmem_store_transactions=total_warps * sectors * iterations,
        dram_read_bytes=float(blocks * spec.footprint_height
                              * (block_threads + spec.footprint_width - 1)
                              * prec.itemsize * iterations),
        dram_write_bytes=float(width * height * prec.itemsize * iterations),
        blocks_executed=blocks * iterations,
        warps_executed=total_warps * iterations,
    )
    parameters["analytic"] = True
    return analytic_result("original", counters, config, arch, parameters)


# ---------------------------------------------------------------------------
# shared-memory tiling ("ppcg" / "halide")
# ---------------------------------------------------------------------------

def _shared_block(ctx: BatchedBlockContext, src: DeviceBuffer, dst: DeviceBuffer,
                  points: Tuple[Tuple[int, int, float], ...], width: int, height: int,
                  tile_rows: int, halo_x: int, halo_y: int, x_min: int, y_min: int,
                  overhead_per_tap: float) -> None:
    tile_cols = ctx.warp_size
    tx = ctx.thread_idx_x % tile_cols
    ty = ctx.thread_idx_x // tile_cols
    smem_cols = tile_cols + halo_x
    smem_rows = tile_rows + halo_y
    tile = ctx.alloc_shared("tile", (smem_rows, smem_cols))
    base_x = ctx.block_idx_x * tile_cols + x_min
    base_y = ctx.block_idx_y * tile_rows + y_min
    total_elems = smem_rows * smem_cols
    tid = ctx.thread_idx_x
    for offset in range(0, total_elems, ctx.block_threads):
        idx = offset + tid
        mask = idx < total_elems
        safe = np.minimum(idx, total_elems - 1)
        sy, sx = safe // smem_cols, safe % smem_cols
        gy = clamp(base_y + sy, 0, height - 1)
        gx = clamp(base_x + sx, 0, width - 1)
        ctx.store_shared(tile, safe, ctx.load_global(src, gy * width + gx, mask=mask), mask=mask)
    ctx.syncthreads()

    out_x = ctx.block_idx_x * tile_cols + tx
    out_y = ctx.block_idx_y * tile_rows + ty
    mask = (out_x < width) & (out_y < height)
    total = ctx.zeros()
    for dx, dy, coefficient in points:
        smem_index = (ty + dy - y_min) * smem_cols + (tx + dx - x_min)
        value = ctx.load_shared(tile, smem_index)
        if overhead_per_tap:
            ctx.overhead(overhead_per_tap)
        total = ctx.mad(value, ctx.full(coefficient), total)
    ctx.syncthreads()
    ctx.store_global(dst, clamp(out_y, 0, height - 1) * width + clamp(out_x, 0, width - 1),
                     total, mask=mask)


SHARED_STENCIL2D_KERNEL = Kernel(_shared_block, name="shared_stencil2d")


def _shared_launch(label: str, spec: StencilSpec, width: int, height: int,
                   iterations: int, arch, prec, tile_rows: int):
    """Launch configuration and parameters of a shared-memory tiled kernel."""
    if spec.dims != 2:
        raise ConfigurationError(f"{label} expects a 2-D stencil")
    halo_x = spec.footprint_width - 1
    halo_y = spec.footprint_height - 1
    config = LaunchConfig(grid_dim=(math.ceil(width / 32), math.ceil(height / tile_rows), 1),
                          block_threads=32 * tile_rows, registers_per_thread=36,
                          shared_bytes_per_block=(tile_rows + halo_y) * (32 + halo_x)
                          * prec.itemsize,
                          precision=prec, memory_parallelism=3.0)
    parameters = {"stencil": spec.name, "iterations": iterations, "tile_rows": tile_rows,
                  "architecture": arch.name, "precision": prec.name}
    return config, parameters


def _shared_stencil2d(label: str, grid, spec, iterations, architecture, precision,
                      tile_rows, overhead_per_tap, max_blocks,
                      batch_size: object = "auto"):
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    grid = check_image(grid)
    height, width = grid.shape
    config, parameters = _shared_launch(label, spec, width, height, iterations,
                                        arch, prec, tile_rows)
    x_min, _ = spec.x_range
    y_min, _ = spec.y_range
    points = tuple((p.dx, p.dy, float(p.coefficient)) for p in spec.points)
    return run_jacobi(
        SHARED_STENCIL2D_KERNEL, grid, config,
        (points, width, height, tile_rows, spec.footprint_width - 1,
         spec.footprint_height - 1, x_min, y_min, overhead_per_tap),
        iterations, arch, label, parameters,
        max_blocks=max_blocks, batch_size=batch_size)


def _shared_stencil2d_analytic(label: str, spec, width, height, iterations,
                               architecture, precision, tile_rows, overhead_per_tap):
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    config, parameters = _shared_launch(label, spec, width, height, iterations,
                                        arch, prec, tile_rows)
    block_threads = config.block_threads
    blocks = config.grid_dim[0] * config.grid_dim[1]
    warps_per_block = block_threads // arch.warp_size
    total_warps = blocks * warps_per_block
    taps = spec.num_points
    staged = (tile_rows + spec.footprint_height - 1) * (32 + spec.footprint_width - 1)
    staging_iters = math.ceil(staged / block_threads)
    sectors = warp_sectors(arch, prec.itemsize)
    counters = KernelCounters(
        fma=taps * total_warps * iterations,
        misc=overhead_per_tap * taps * total_warps * iterations,
        smem_load=taps * total_warps * iterations,
        smem_store=staging_iters * warps_per_block * blocks * iterations,
        gmem_load=staging_iters * warps_per_block * blocks * iterations,
        gmem_load_transactions=staging_iters * warps_per_block * blocks * (sectors + 1)
        * iterations,
        gmem_store=total_warps * iterations,
        gmem_store_transactions=total_warps * sectors * iterations,
        sync=2.0 * warps_per_block * blocks * iterations,
        dram_read_bytes=float(blocks * staged * prec.itemsize * iterations),
        dram_write_bytes=float(width * height * prec.itemsize * iterations),
        blocks_executed=blocks * iterations,
        warps_executed=total_warps * iterations,
    )
    parameters["analytic"] = True
    return analytic_result(label, counters, config, arch, parameters)


def ppcg_like_stencil2d(grid: np.ndarray, spec: StencilSpec, iterations: int = 1,
                        architecture: object = "p100", precision: object = "float32",
                        tile_rows: int = 8, max_blocks: Optional[int] = None,
                        batch_size: object = "auto") -> KernelRunResult:
    """ppcg-generated-style shared-memory tiled stencil."""
    return _shared_stencil2d("ppcg", grid, spec, iterations, architecture, precision,
                             tile_rows, 0.0, max_blocks, batch_size=batch_size)


def ppcg_like_stencil2d_analytic(spec: StencilSpec, width: int, height: int,
                                 iterations: int = 1, architecture: object = "p100",
                                 precision: object = "float32",
                                 tile_rows: int = 8) -> KernelRunResult:
    """Closed-form cost of :func:`ppcg_like_stencil2d`."""
    return _shared_stencil2d_analytic("ppcg", spec, width, height, iterations,
                                      architecture, precision, tile_rows, 0.0)


def halide_like_stencil2d(grid: np.ndarray, spec: StencilSpec, iterations: int = 1,
                          architecture: object = "p100", precision: object = "float32",
                          tile_rows: int = 4, max_blocks: Optional[int] = None,
                          batch_size: object = "auto") -> KernelRunResult:
    """Halide-auto-schedule-style shared-memory tiled stencil."""
    return _shared_stencil2d("halide", grid, spec, iterations, architecture, precision,
                             tile_rows, 2.0, max_blocks, batch_size=batch_size)


def halide_like_stencil2d_analytic(spec: StencilSpec, width: int, height: int,
                                   iterations: int = 1, architecture: object = "p100",
                                   precision: object = "float32",
                                   tile_rows: int = 4) -> KernelRunResult:
    """Closed-form cost of :func:`halide_like_stencil2d`."""
    return _shared_stencil2d_analytic("halide", spec, width, height, iterations,
                                      architecture, precision, tile_rows, 2.0)


# ---------------------------------------------------------------------------
# register-optimised baselines (Rawat et al.): analytic cost models
# ---------------------------------------------------------------------------

def _register_scheme_stencil2d(label: str, spec: StencilSpec, width: int, height: int,
                               iterations: int, architecture, precision,
                               outputs_per_thread: int, extra_registers: int,
                               overhead_per_tap: float) -> KernelRunResult:
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    taps = spec.num_points
    fh, fw = spec.footprint_height, spec.footprint_width
    t_outputs = outputs_per_thread
    block_threads = 128
    tile_rows = t_outputs * (block_threads // 32)
    launch_grid = (math.ceil(width / 32), math.ceil(height / tile_rows), 1)
    blocks = launch_grid[0] * launch_grid[1]
    warps_per_block = block_threads // arch.warp_size
    total_warps = blocks * warps_per_block
    cached_rows = fh + t_outputs - 1
    registers = registers_for_cache(cached_rows * max(1, fw // 2), t_outputs, prec) \
        + extra_registers
    registers = min(registers, arch.max_registers_per_thread)
    config = LaunchConfig(grid_dim=launch_grid, block_threads=block_threads,
                         registers_per_thread=registers, shared_bytes_per_block=0,
                         precision=prec, memory_parallelism=2.0)
    # vertical reuse in registers; horizontal neighbours re-read through L1
    loads_per_output = fw * cached_rows / t_outputs / 32.0
    sectors = warp_sectors(arch, prec.itemsize)
    outputs_per_warp = 32 * t_outputs
    counters = KernelCounters(
        fma=taps * t_outputs * total_warps * iterations,
        misc=overhead_per_tap * taps * t_outputs * total_warps * iterations,
        gmem_load=loads_per_output * outputs_per_warp * total_warps / 32.0 * iterations,
        gmem_load_transactions=loads_per_output * outputs_per_warp * total_warps / 32.0
        * (sectors + 1) * iterations,
        gmem_store=t_outputs * total_warps * iterations,
        gmem_store_transactions=t_outputs * total_warps * sectors * iterations,
        dram_read_bytes=float(blocks * (tile_rows + fh - 1) * (32 + fw - 1)
                              * prec.itemsize * iterations),
        dram_write_bytes=float(width * height * prec.itemsize * iterations),
        blocks_executed=blocks * iterations,
        warps_executed=total_warps * iterations,
    )
    parameters = {"stencil": spec.name, "iterations": iterations, "T": t_outputs,
                  "registers_per_thread": registers, "architecture": arch.name,
                  "precision": prec.name, "analytic": True}
    return analytic_result(label, counters, config, arch, parameters)


def reordered_stencil2d(spec: StencilSpec, width: int, height: int, iterations: int = 1,
                        architecture: object = "p100",
                        precision: object = "float32") -> KernelRunResult:
    """Cost model of Rawat et al.'s register-reordered stencil codes."""
    return _register_scheme_stencil2d("reordered", spec, width, height, iterations,
                                      architecture, precision, outputs_per_thread=8,
                                      extra_registers=24, overhead_per_tap=0.5)


def unrolled_stencil2d(spec: StencilSpec, width: int, height: int, iterations: int = 1,
                       architecture: object = "p100",
                       precision: object = "float32") -> KernelRunResult:
    """Cost model of the unroll-optimised stencil codes."""
    return _register_scheme_stencil2d("unrolled", spec, width, height, iterations,
                                      architecture, precision, outputs_per_thread=4,
                                      extra_registers=40, overhead_per_tap=1.0)

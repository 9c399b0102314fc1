"""SSAM 2-D stencil kernel — the generalised form of Listing 2.

The stencil's taps are grouped by their x offset (the "coefficient columns"
of Section 4.8); each thread caches ``C = N + P - 1`` rows of its own column
in registers, computes the per-column partial sums, and shifts the partial
sum towards higher lanes between column groups with ``shfl_up`` (the delta
being the gap between consecutive x offsets).  Stencil coefficients are
passed as kernel arguments, not staged in shared memory, exactly as the
paper does for stencils.

Iterative (Jacobi-style) application ping-pongs between two device buffers;
the returned counters aggregate all iterations.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.plan import SSAMPlan, plan_stencil
from ..errors import ConfigurationError
from ..gpu.architecture import warp_sectors
from ..gpu.batch import BatchedBlockContext
from ..gpu.counters import KernelCounters
from ..gpu.kernel import Kernel
from ..gpu.memory import DeviceBuffer
from ..stencils.spec import StencilSpec
from .common import (
    KernelRunResult,
    analytic_result,
    check_image,
    clamp,
    resolve_plan,
    run_jacobi,
)

#: a column group: (x offset, ((row index into the register cache, coefficient), ...))
ColumnGroups = Tuple[Tuple[int, Tuple[Tuple[int, float], ...]], ...]


def build_column_groups(spec: StencilSpec) -> ColumnGroups:
    """Group a stencil's in-plane (dz == 0) taps by x offset for the
    systolic schedule; the 3-D kernel uses the same schedule in-plane."""
    y_lo, _ = spec.y_range
    groups: List[Tuple[int, Tuple[Tuple[int, float], ...]]] = []
    for dx, points in spec.columns().items():
        rows = tuple((point.dy - y_lo, float(point.coefficient)) for point in points)
        groups.append((dx, rows))
    return tuple(groups)


def _stencil2d_ssam_block(ctx: BatchedBlockContext,
                          src: DeviceBuffer, dst: DeviceBuffer,
                          width: int, height: int, columns: ColumnGroups,
                          footprint_width: int, footprint_height: int,
                          outputs_per_thread: int, x_min: int, y_min: int,
                          block_rows: int = 1, margin: Optional[int] = None) -> None:
    """Listing 2 (generalised), executed for one thread block.

    ``block_rows`` splits the block's warps into R bands of consecutive
    P-row strips, exactly as in the convolution kernel; R=1 keeps the
    paper's 1-D block shape with unchanged arithmetic.  A ``margin`` makes
    the store the interior select of the masked kernel
    (:mod:`repro.kernels.stencil2d_masked`).
    """
    m_extent = footprint_width
    p_extent = outputs_per_thread
    cache_rows = footprint_height + p_extent - 1
    warp_size = ctx.warp_size
    valid_x = warp_size - m_extent + 1
    x_max = x_min + m_extent - 1

    lane = ctx.lane_id
    warp = ctx.warp_id
    warps_per_block = ctx.num_warps

    if block_rows == 1:
        warps_x = warps_per_block
        warp_x = warp
        block_row = ctx.block_idx_y
    else:
        warps_x = warps_per_block // block_rows
        warp_x = warp % warps_x
        block_row = ctx.block_idx_y * block_rows + warp // warps_x
    warp_out_base = (ctx.block_idx_x * warps_x + warp_x) * valid_x
    column = clamp(warp_out_base + lane + x_min, 0, width - 1)
    row_base = block_row * p_extent + y_min

    register_cache = []
    for j in range(cache_rows):
        row = clamp(row_base + j, 0, height - 1)
        register_cache.append(ctx.load_global(src, row * width + column))

    # partial sums accumulate towards higher lanes; lane t holds the output
    # at x = warp_out_base + t - (M - 1), valid for t >= M - 1
    out_x = warp_out_base + lane - (x_max - x_min)
    x_mask = (lane >= (m_extent - 1)) & (out_x < width) & (out_x >= 0)
    safe_x = clamp(out_x, 0, width - 1)
    if margin is not None:
        x_interior = (out_x >= margin) & (out_x < width - margin)

    for i in range(p_extent):
        partial = ctx.zeros()
        previous_dx: Optional[int] = None
        for dx, rows in columns:
            if previous_dx is not None and dx != previous_dx:
                partial = ctx.shfl_up(partial, dx - previous_dx)
            previous_dx = dx
            for row_index, coefficient in rows:
                partial = ctx.mad(register_cache[i + row_index],
                                  ctx.full(coefficient), partial)
        trailing = x_max - (previous_dx if previous_dx is not None else x_max)
        if trailing:
            partial = ctx.shfl_up(partial, trailing)
        out_y = block_row * p_extent + i
        mask = x_mask & (out_y < height)
        safe_y = np.minimum(out_y, height - 1)
        if margin is not None:
            # exterior cells pass the previous iterate through unchanged
            passthrough = ctx.load_global(src, safe_y * width + safe_x, mask=mask)
            interior = x_interior & (out_y >= margin) & (out_y < height - margin)
            partial = np.where(interior, partial, passthrough)
        ctx.store_global(dst, safe_y * width + safe_x, partial, mask=mask)


STENCIL2D_SSAM_KERNEL = Kernel(_stencil2d_ssam_block, name="ssam_stencil2d")


def ssam_stencil2d(grid: np.ndarray, spec: StencilSpec, iterations: int = 1,
                   architecture: object = None, precision: object = None,
                   outputs_per_thread: Optional[int] = None,
                   block_threads: Optional[int] = None,
                   block_rows: Optional[int] = None,
                   plan: Optional[SSAMPlan] = None,
                   max_blocks: Optional[int] = None,
                   batch_size: object = "auto",
                   keep_output: bool = False) -> KernelRunResult:
    """Apply a 2-D stencil for ``iterations`` Jacobi steps with the SSAM kernel.

    Every step launches the one plan
    :func:`~repro.kernels.common.resolve_plan` returns.
    ``keep_output=True`` returns the (partial) output even for sampled
    runs (see :func:`~repro.kernels.common.run_jacobi`).
    """
    grid = check_image(grid)
    if spec.dims != 2:
        raise ConfigurationError(f"stencil {spec.name!r} is not 2-D")
    plan = resolve_plan(plan_stencil, spec, architecture, precision, plan,
                        outputs_per_thread, block_threads, block_rows)
    height, width = grid.shape
    x_min, _ = spec.x_range
    y_min, _ = spec.y_range
    return run_jacobi(
        STENCIL2D_SSAM_KERNEL, grid, plan.launch_config(width, height),
        (width, height, build_column_groups(spec), spec.footprint_width,
         spec.footprint_height, plan.outputs_per_thread, x_min, y_min,
         plan.block_rows),
        iterations, plan.architecture, "ssam",
        {"stencil": spec.name, "iterations": iterations,
         "P": plan.outputs_per_thread, "B": plan.block_threads,
         "architecture": plan.architecture.name,
         "precision": plan.precision.name},
        max_blocks=max_blocks, batch_size=batch_size, keep_output=keep_output)


def analytic_counters(width: int, height: int, plan: SSAMPlan,
                      iterations: int = 1) -> KernelCounters:
    """Closed-form instruction/traffic profile of the SSAM 2-D stencil
    ``plan.problem``."""
    spec, blocking, prec = plan.problem, plan.blocking, plan.precision
    p_extent = plan.outputs_per_thread
    cache_rows = blocking.cache_values
    grid_x, grid_y, _ = blocking.grid_dim(width, height)
    blocks = grid_x * grid_y
    warps_per_block = blocking.warps_per_block
    total_warps = blocks * warps_per_block
    columns = spec.columns()
    column_count = len(columns)
    taps = sum(len(points) for points in columns.values())
    x_min, x_max = spec.x_range
    trailing = 1 if (x_max - max(columns.keys())) else 0

    counters = KernelCounters()
    counters.blocks_executed = blocks * iterations
    counters.warps_executed = total_warps * iterations
    counters.gmem_load += cache_rows * total_warps * iterations
    sectors_per_row = warp_sectors(plan.architecture, prec.itemsize)
    counters.gmem_load_transactions += cache_rows * total_warps * sectors_per_row * iterations
    counters.fma += p_extent * taps * total_warps * iterations
    counters.shfl += p_extent * (column_count - 1 + trailing) * total_warps * iterations
    counters.gmem_store += p_extent * total_warps * iterations
    counters.gmem_store_transactions += p_extent * total_warps * sectors_per_row * iterations

    # unique footprint per block: R bands tile R*P rows (overlapping by
    # N-1) by WarpsX*ValidX + M - 1 columns; identical to the classic
    # cache_rows x (WarpCount*ValidX + M - 1) tile at R=1
    unique_columns = blocking.warps_x * blocking.valid_outputs_x + (blocking.filter_width - 1)
    unique_rows = blocking.rows_per_block + blocking.filter_height - 1
    read_bytes_per_block = unique_rows * unique_columns * prec.itemsize
    counters.dram_read_bytes += read_bytes_per_block * blocks * iterations
    counters.dram_write_bytes += width * height * prec.itemsize * iterations
    counters.cache_read_bytes += cache_rows * 32 * total_warps * prec.itemsize * iterations
    return counters


def analytic_launch(width: int, height: int, plan: SSAMPlan,
                    iterations: int = 1) -> KernelRunResult:
    """Paper-scale cost estimate of the SSAM 2-D stencil under ``plan``
    without execution: the stencil, the part, the precision, P, B and R are
    the plan's."""
    parameters = {
        "stencil": plan.problem.name,
        "width": width,
        "height": height,
        "iterations": iterations,
        "architecture": plan.architecture.name,
        "precision": plan.precision.name,
        "analytic": True,
    }
    return analytic_result("ssam",
                           analytic_counters(width, height, plan, iterations),
                           plan.launch_config(width, height), plan.architecture,
                           parameters, kernel_name="ssam_stencil2d_analytic")

"""Masked (sparse-interior) SSAM 2-D stencil.

Many production stencil codes update only the interior of the domain and
hold a boundary band fixed (Dirichlet conditions, immersed boundaries,
sponge layers).  This kernel applies a 2-D stencil to cells strictly inside
an ``margin``-cell frame and passes every other cell through unchanged:

    dst[y, x] = stencil(src)[y, x]   if margin <= x < width  - margin
                                    and margin <= y < height - margin
    dst[y, x] = src[y, x]            otherwise

The compute schedule is exactly the register-cache schedule of Listing 2
(see :mod:`repro.kernels.stencil2d_ssam`); the interior predicate is pure
index arithmetic, so the selection vectorises in the batched engine and
records into the trace IR without data-dependent control flow.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.plan import SSAMPlan, plan_stencil
from ..dtypes import resolve_precision
from ..errors import ConfigurationError
from ..gpu.architecture import get_architecture
from ..gpu.batch import BatchedBlockContext
from ..gpu.kernel import Kernel, LaunchResult
from ..gpu.memory import DeviceBuffer, GlobalMemory
from ..stencils.spec import StencilSpec
from .common import KernelRunResult, check_image, clamp
from .stencil2d_ssam import ColumnGroups, build_column_groups

#: default interior margin: wide enough that order-1/2 footprints never
#: straddle the frame, so the masked path is exercised on every named size
DEFAULT_MARGIN = 2


def _stencil2d_masked_block(ctx: BatchedBlockContext,
                            src: DeviceBuffer, dst: DeviceBuffer,
                            width: int, height: int, columns: ColumnGroups,
                            footprint_width: int, footprint_height: int,
                            outputs_per_thread: int, x_min: int, y_min: int,
                            margin: int, block_rows: int = 1) -> None:
    """Listing 2 with an interior-select store (one thread block)."""
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

    out_x = warp_out_base + lane - (x_max - x_min)
    x_mask = (lane >= (m_extent - 1)) & (out_x < width) & (out_x >= 0)
    safe_x = clamp(out_x, 0, width - 1)
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
        # exterior cells pass the previous iterate through unchanged
        passthrough = ctx.load_global(src, safe_y * width + safe_x, mask=mask)
        interior = x_interior & (out_y >= margin) & (out_y < height - margin)
        value = np.where(interior, partial, passthrough)
        ctx.store_global(dst, safe_y * width + safe_x, value, mask=mask)


STENCIL2D_MASKED_KERNEL = Kernel(_stencil2d_masked_block,
                                 name="ssam_stencil2d_masked")


def ssam_stencil2d_masked(grid: np.ndarray, spec: StencilSpec,
                          iterations: int = 1, margin: int = DEFAULT_MARGIN,
                          architecture: object = "p100",
                          precision: object = "float32",
                          outputs_per_thread: Optional[int] = None,
                          block_threads: Optional[int] = None,
                          block_rows: Optional[int] = None,
                          plan: Optional[SSAMPlan] = None,
                          max_blocks: Optional[int] = None,
                          batch_size: object = "auto",
                          keep_output: bool = False) -> KernelRunResult:
    """Apply a masked 2-D stencil for ``iterations`` Jacobi steps."""
    grid = check_image(grid)
    if spec.dims != 2:
        raise ConfigurationError(f"stencil {spec.name!r} is not 2-D")
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    if margin < 0:
        raise ConfigurationError("the interior margin must be >= 0")
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    if plan is None:
        plan = plan_stencil(spec, arch, prec, outputs_per_thread,
                            block_threads, block_rows)
    height, width = grid.shape
    memory = GlobalMemory()
    buffers = [
        # a single step only reads its input; later steps write it
        memory.to_device(grid, name="grid_a", dtype=prec.numpy_dtype,
                         read_only=iterations == 1),
        memory.allocate(grid.shape, prec, name="grid_b"),
    ]
    columns = build_column_groups(spec)
    x_min, _ = spec.x_range
    y_min, _ = spec.y_range
    config = plan.launch_config(width, height)
    merged: Optional[LaunchResult] = None
    for step in range(iterations):
        src, dst = buffers[step % 2], buffers[(step + 1) % 2]
        launch = STENCIL2D_MASKED_KERNEL.launch(
            config,
            args=(src, dst, width, height, columns, spec.footprint_width,
                  spec.footprint_height, plan.outputs_per_thread, x_min, y_min,
                  int(margin), plan.block_rows),
            architecture=arch,
            max_blocks=max_blocks,
            batch_size=batch_size,
        )
        merged = launch if merged is None else merged.merged_with(launch)
    final = buffers[iterations % 2]
    output = final.array if (max_blocks is None or keep_output) else None
    return KernelRunResult(
        name="ssam_masked",
        output=output,
        launch=merged,
        parameters={
            "stencil": spec.name,
            "iterations": iterations,
            "margin": int(margin),
            "P": plan.outputs_per_thread,
            "B": plan.block_threads,
            "architecture": arch.name,
            "precision": prec.name,
        },
    )


def masked_reference(grid: np.ndarray, spec: StencilSpec, iterations: int = 1,
                     margin: int = DEFAULT_MARGIN) -> np.ndarray:
    """Host ground truth: stencil the interior, hold the frame fixed."""
    grid = check_image(grid)
    height, width = grid.shape
    interior = np.zeros((height, width), dtype=bool)
    if 2 * margin < min(height, width):
        interior[margin:height - margin, margin:width - margin] = True
    current = np.asarray(grid, dtype=np.float64)
    for _ in range(iterations):
        stepped = spec.reference(current, iterations=1)
        current = np.where(interior, stepped, current)
    return current.astype(grid.dtype)

"""SSAM 3-D stencil kernel (Section 4.9).

The 3-D grid is divided into overlapped sub-grids; every warp of a block
processes one X-Y slice with the 2-D systolic scheme (register cache +
partial-sum shuffles), and the out-of-plane contributions are combined
through shared memory: each warp publishes the slice values its neighbours
need, so intra-warp communication uses shuffles and inter-warp communication
uses the scratchpad — exactly the hybrid the paper describes.

Out-of-plane taps that are not on the z axis (they appear only in the dense
box stencils ``3d27pt``/``3d125pt``) are read directly from global memory
with coalesced, clamped accesses; the axial taps — the common case, and all
of the Figure 6 benchmarks — use the shared-memory exchange.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from ..core.launch_defaults import paper_default
from ..dtypes import Precision, resolve_precision
from ..errors import ConfigurationError
from ..gpu.architecture import GPUArchitecture, get_architecture, warp_sectors
from ..gpu.batch import BatchedBlockContext
from ..gpu.counters import KernelCounters
from ..gpu.kernel import Kernel, LaunchConfig
from ..gpu.occupancy import validate_block_threads
from ..gpu.memory import DeviceBuffer
from ..gpu.register_file import registers_for_cache
from ..stencils.spec import StencilSpec
from .common import (
    KernelRunResult,
    analytic_result,
    check_grid3d,
    clamp,
    run_jacobi,
)
from .stencil2d_ssam import ColumnGroups, build_column_groups

#: default sliding-window depth for the 3-D kernel — the paper constant
#: from the central resolver (kept as a named alias for existing callers)
DEFAULT_OUTPUTS_PER_THREAD_3D = paper_default("outputs_per_thread")


def split_out_of_plane(spec: StencilSpec):
    """Separate out-of-plane taps into axial (smem path) and general (global path)."""
    axial = []
    general = []
    for point in spec.out_of_plane_points():
        if point.dx == 0 and point.dy == 0:
            axial.append((point.dz, float(point.coefficient)))
        else:
            general.append((point.dx, point.dy, point.dz, float(point.coefficient)))
    return tuple(axial), tuple(general)


def _stencil3d_ssam_block(ctx: BatchedBlockContext,
                          src: DeviceBuffer, dst: DeviceBuffer,
                          width: int, height: int, depth: int,
                          columns: ColumnGroups, axial, general,
                          footprint_width: int, footprint_height: int,
                          outputs_per_thread: int, x_min: int, x_max: int,
                          y_min: int) -> None:
    """One thread block: warps_per_block consecutive slices of the sub-grid."""
    m_extent = footprint_width
    p_extent = outputs_per_thread
    cache_rows = footprint_height + p_extent - 1
    warp_size = ctx.warp_size
    valid_x = warp_size - m_extent + 1

    lane = ctx.lane_id
    warp = ctx.warp_id
    warps_per_block = ctx.num_warps

    warp_out_base = ctx.block_idx_x * valid_x
    column = clamp(warp_out_base + lane + x_min, 0, width - 1)
    row_base = ctx.block_idx_y * p_extent + y_min
    slice_index = ctx.block_idx_z * warps_per_block + warp
    slice_clamped = np.minimum(slice_index, depth - 1)
    plane = height * width

    register_cache = []
    for j in range(cache_rows):
        row = clamp(row_base + j, 0, height - 1)
        register_cache.append(ctx.load_global(src, slice_clamped * plane + row * width + column))

    # publish the centre rows so neighbouring warps can read their z-neighbours
    center = ctx.alloc_shared("slice_center", (warps_per_block, p_extent, warp_size))
    for i in range(p_extent):
        flat = (warp * p_extent + i) * warp_size + lane
        ctx.store_shared(center, flat, register_cache[i - y_min])
    ctx.syncthreads()

    out_x = warp_out_base + lane - (x_max - x_min)
    x_mask = (lane >= (m_extent - 1)) & (out_x < width) & (out_x >= 0)
    safe_x = clamp(out_x, 0, width - 1)
    # lane that caches the column of this lane's output point (x_o):
    # column_s = base + s + x_min equals x_o = base + lane + x_min - x_max
    # exactly when s = lane - x_max.
    source_lane = clamp(lane - x_max, 0, warp_size - 1)

    for i in range(p_extent):
        # in-plane systolic accumulation (identical to the 2-D kernel)
        partial = ctx.zeros()
        previous_dx: Optional[int] = None
        for dx, rows in columns:
            if previous_dx is not None and dx != previous_dx:
                partial = ctx.shfl_up(partial, dx - previous_dx)
            previous_dx = dx
            for row_index, coefficient in rows:
                partial = ctx.mad(register_cache[i + row_index],
                                  ctx.full(coefficient), partial)

        out_y = ctx.block_idx_y * p_extent + i
        safe_y = np.minimum(out_y, height - 1)

        # axial out-of-plane taps: shared memory when the neighbour slice is
        # resident in this block, coalesced global loads otherwise
        for dz, coefficient in axial:
            neighbor_warp = warp + dz
            neighbor_slice = slice_index + dz
            in_block = (neighbor_warp >= 0) & (neighbor_warp < warps_per_block) \
                & (neighbor_slice >= 0) & (neighbor_slice < depth)
            flat = (clamp(neighbor_warp, 0, warps_per_block - 1) * p_extent + i) * warp_size \
                + source_lane
            from_shared = ctx.load_shared(center, flat)
            z_src = clamp(neighbor_slice, 0, depth - 1)
            from_global = ctx.load_global(src, z_src * plane + safe_y * width + safe_x)
            neighbor_value = np.where(in_block, from_shared, from_global)
            partial = ctx.mad(neighbor_value, ctx.full(coefficient), partial)

        # general out-of-plane taps (box stencils): direct clamped global reads
        for dx, dy, dz, coefficient in general:
            z_src = clamp(slice_index + dz, 0, depth - 1)
            y_src = clamp(out_y + dy, 0, height - 1)
            x_src = clamp(out_x + dx, 0, width - 1)
            value = ctx.load_global(src, z_src * plane + y_src * width + x_src)
            partial = ctx.mad(value, ctx.full(coefficient), partial)

        mask = x_mask & (out_y < height) & (slice_index < depth)
        ctx.store_global(dst, slice_clamped * plane + safe_y * width + safe_x,
                         partial, mask=mask)


STENCIL3D_SSAM_KERNEL = Kernel(_stencil3d_ssam_block, name="ssam_stencil3d")


class Stencil3DGeometry(NamedTuple):
    """The resolved launch geometry of one SSAM 3-D stencil launch."""

    outputs_per_thread: int
    block_threads: int
    warps_per_block: int
    cache_rows: int
    config: LaunchConfig


def launch_geometry(spec: StencilSpec, width: int, height: int, depth: int,
                    arch: GPUArchitecture, prec: Precision,
                    outputs_per_thread: Optional[int] = None,
                    block_threads: Optional[int] = None) -> Stencil3DGeometry:
    """P and B (the paper defaults when unset), the grid, the registers, the
    shared bytes and the memory parallelism of the 3-D kernel.

    The kernel wrapper, the closed-form profile and the Section 5 model all
    take their launch from here, so they cannot disagree.
    """
    if outputs_per_thread is None:
        outputs_per_thread = DEFAULT_OUTPUTS_PER_THREAD_3D
    if block_threads is None:
        block_threads = paper_default("block_threads")
    validate_block_threads(arch, block_threads)
    warps_per_block = block_threads // arch.warp_size
    cache_rows = spec.footprint_height + outputs_per_thread - 1
    valid_x = arch.warp_size - spec.footprint_width + 1
    config = LaunchConfig(
        grid_dim=(math.ceil(width / valid_x),
                  math.ceil(height / outputs_per_thread),
                  math.ceil(depth / warps_per_block)),
        block_threads=block_threads,
        registers_per_thread=registers_for_cache(cache_rows, outputs_per_thread, prec) + 8,
        shared_bytes_per_block=warps_per_block * outputs_per_thread * arch.warp_size
        * prec.itemsize,
        precision=prec,
        memory_parallelism=float(cache_rows),
    )
    return Stencil3DGeometry(outputs_per_thread, block_threads, warps_per_block,
                             cache_rows, config)


def ssam_stencil3d(grid: np.ndarray, spec: StencilSpec, iterations: int = 1,
                   architecture: object = "p100", precision: object = "float32",
                   outputs_per_thread: Optional[int] = None,
                   block_threads: Optional[int] = None,
                   max_blocks: Optional[int] = None,
                   batch_size: object = "auto",
                   keep_output: bool = False) -> KernelRunResult:
    """Apply a 3-D stencil for ``iterations`` Jacobi steps with the SSAM kernel.

    ``keep_output=True`` returns the (partial) output even for sampled
    runs (see :func:`~repro.kernels.common.run_jacobi`).
    """
    grid = check_grid3d(grid)
    if spec.dims != 3:
        raise ConfigurationError(f"stencil {spec.name!r} is not 3-D")
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    depth, height, width = grid.shape
    geometry = launch_geometry(spec, width, height, depth, arch, prec,
                               outputs_per_thread, block_threads)
    axial, general = split_out_of_plane(spec)
    x_min, x_max = spec.x_range
    y_min, _ = spec.y_range
    return run_jacobi(
        STENCIL3D_SSAM_KERNEL, grid, geometry.config,
        (width, height, depth, build_column_groups(spec), axial, general,
         spec.footprint_width, spec.footprint_height,
         geometry.outputs_per_thread, x_min, x_max, y_min),
        iterations, arch, "ssam",
        {"stencil": spec.name, "iterations": iterations,
         "P": geometry.outputs_per_thread, "B": geometry.block_threads,
         "architecture": arch.name, "precision": prec.name},
        max_blocks=max_blocks, batch_size=batch_size, keep_output=keep_output)


def analytic_counters(spec: StencilSpec, width: int, height: int, depth: int,
                      architecture: object = "p100", precision: object = "float32",
                      outputs_per_thread: Optional[int] = None,
                      block_threads: Optional[int] = None,
                      iterations: int = 1) -> KernelCounters:
    """Closed-form instruction/traffic profile of the SSAM 3-D stencil."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    geometry = launch_geometry(spec, width, height, depth, arch, prec,
                               outputs_per_thread, block_threads)
    p_extent = geometry.outputs_per_thread
    cache_rows = geometry.cache_rows
    warps_per_block = geometry.warps_per_block
    grid = geometry.config.grid_dim
    blocks = grid[0] * grid[1] * grid[2]
    total_warps = blocks * warps_per_block
    columns = spec.columns()
    in_plane_taps = sum(len(points) for points in columns.values())
    axial, general = split_out_of_plane(spec)
    r_z = max((abs(p.dz) for p in spec.points), default=0)

    counters = KernelCounters()
    counters.blocks_executed = blocks * iterations
    counters.warps_executed = total_warps * iterations
    sectors_per_row = warp_sectors(arch, prec.itemsize)

    counters.gmem_load += cache_rows * total_warps * iterations
    counters.gmem_load_transactions += cache_rows * total_warps * sectors_per_row * iterations
    counters.smem_store += p_extent * total_warps * iterations
    counters.sync += warps_per_block * blocks * iterations
    counters.fma += p_extent * (in_plane_taps + len(axial) + len(general)) * total_warps * iterations
    counters.shfl += p_extent * max(0, len(columns) - 1) * total_warps * iterations
    counters.smem_load += p_extent * len(axial) * total_warps * iterations
    counters.gmem_load += p_extent * (len(axial) + len(general)) * total_warps * iterations
    counters.gmem_load_transactions += (
        p_extent * (len(axial) + len(general)) * total_warps * sectors_per_row * iterations
    )
    counters.gmem_store += p_extent * total_warps * iterations
    counters.gmem_store_transactions += p_extent * total_warps * sectors_per_row * iterations

    slab = (warps_per_block + 2 * r_z) * cache_rows * 32 * prec.itemsize
    counters.dram_read_bytes += slab * blocks * iterations
    counters.dram_write_bytes += width * height * depth * prec.itemsize * iterations
    return counters


def analytic_launch(spec: StencilSpec, width: int, height: int, depth: int,
                    iterations: int = 1, architecture: object = "p100",
                    precision: object = "float32",
                    outputs_per_thread: Optional[int] = None,
                    block_threads: Optional[int] = None) -> KernelRunResult:
    """Paper-scale cost estimate of the SSAM 3-D stencil without execution."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    geometry = launch_geometry(spec, width, height, depth, arch, prec,
                               outputs_per_thread, block_threads)
    counters = analytic_counters(spec, width, height, depth, arch, prec,
                                 geometry.outputs_per_thread, geometry.block_threads,
                                 iterations)
    parameters = {"stencil": spec.name, "width": width, "height": height,
                  "depth": depth, "iterations": iterations,
                  "architecture": arch.name, "precision": prec.name, "analytic": True}
    return analytic_result("ssam", counters, geometry.config, arch, parameters,
                           kernel_name="ssam_stencil3d_analytic")

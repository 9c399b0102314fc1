"""3-D stencil baselines ("original" and shared-memory tiling) for Figure 5.

The naive kernel assigns one output point per thread with no staging
(functional + analytic): it is the naive scheme of :mod:`.direct` over the
stencil's taps, and this module supplies only its constants.  The
shared-memory variant models the classic 2.5-D tiling in which each block
stages a z-slab tile and streams through z (analytic — its
traffic/scratchpad profile is what matters for the figure).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..dtypes import resolve_precision
from ..errors import ConfigurationError
from ..gpu.architecture import get_architecture, warp_sectors
from ..gpu.counters import KernelCounters
from ..gpu.kernel import Kernel, LaunchConfig
from ..kernels.common import (
    KernelRunResult,
    analytic_result,
    check_grid3d,
    run_jacobi,
)
from ..stencils.spec import StencilSpec
from . import direct
from .stencil2d import ORIGINAL_TAP_OVERHEAD

NAIVE_STENCIL3D_KERNEL = Kernel(direct.naive_block, name="original_stencil3d")


def _naive3d_launch(spec: StencilSpec, width: int, height: int, depth: int,
                    iterations: int, arch, prec, block_threads: int):
    """Launch configuration and parameters of the naive 3-D kernel."""
    if spec.dims != 3:
        raise ConfigurationError("original_stencil3d expects a 3-D stencil")
    config = direct.naive_launch(width, height, depth, prec, block_threads,
                                 registers=32 + spec.num_points // 4,
                                 memory_parallelism=3.0)
    parameters = {"stencil": spec.name, "iterations": iterations,
                  "architecture": arch.name, "precision": prec.name}
    return config, parameters


def original_stencil3d(grid: np.ndarray, spec: StencilSpec, iterations: int = 1,
                       architecture: object = "p100", precision: object = "float32",
                       block_threads: int = 128, max_blocks: Optional[int] = None,
                       batch_size: object = "auto") -> KernelRunResult:
    """Naive one-output-per-thread 3-D stencil baseline."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    grid = check_grid3d(grid)
    depth, height, width = grid.shape
    config, parameters = _naive3d_launch(spec, width, height, depth, iterations,
                                         arch, prec, block_threads)
    args = (direct.stencil_taps(spec), width, height, depth, ORIGINAL_TAP_OVERHEAD)
    return run_jacobi(NAIVE_STENCIL3D_KERNEL, grid, config, args, iterations, arch,
                      "original", parameters, max_blocks=max_blocks,
                      batch_size=batch_size)


def original_stencil3d_analytic(spec: StencilSpec, width: int, height: int, depth: int,
                                iterations: int = 1, architecture: object = "p100",
                                precision: object = "float32",
                                block_threads: int = 128) -> KernelRunResult:
    """Closed-form cost of :func:`original_stencil3d`."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    config, parameters = _naive3d_launch(spec, width, height, depth, iterations,
                                         arch, prec, block_threads)
    counters = direct.naive_counters(config, direct.stencil_taps(spec), arch, width,
                                     height, depth, iterations, ORIGINAL_TAP_OVERHEAD)
    parameters["analytic"] = True
    return analytic_result("original", counters, config, arch, parameters)


def shared_stencil3d(spec: StencilSpec, width: int, height: int, depth: int,
                     iterations: int = 1, architecture: object = "p100",
                     precision: object = "float32", tile_rows: int = 8) -> KernelRunResult:
    """2.5-D shared-memory tiling cost model (each block streams through z).

    The block keeps ``footprint_depth`` slices of a ``32 x tile_rows`` tile
    (+halo) staged in the scratchpad; every tap is an smem read.
    """
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    if spec.dims != 3:
        raise ConfigurationError("shared_stencil3d expects a 3-D stencil")
    x_min, x_max = spec.x_range
    y_min, y_max = spec.y_range
    halo_x, halo_y = x_max - x_min, y_max - y_min
    block_threads = 32 * tile_rows
    staged_per_slice = (tile_rows + halo_y) * (32 + halo_x)
    slices_staged = spec.footprint_depth
    smem_bytes = staged_per_slice * slices_staged * prec.itemsize
    launch_grid = (math.ceil(width / 32), math.ceil(height / tile_rows), 1)
    blocks = launch_grid[0] * launch_grid[1]
    warps_per_block = block_threads // arch.warp_size
    total_warps = blocks * warps_per_block * depth  # one pass of the z stream per slice
    taps = spec.num_points
    staging_iters = math.ceil(staged_per_slice / block_threads)
    sectors = warp_sectors(arch, prec.itemsize)
    config = LaunchConfig(grid_dim=launch_grid, block_threads=block_threads,
                         registers_per_thread=40,
                         shared_bytes_per_block=min(smem_bytes, arch.shared_memory_per_block),
                         precision=prec, memory_parallelism=3.0)
    # ppcg's default (non-streaming) schedule re-stages the full
    # footprint_depth-slice tile for every output plane, so the z halo is
    # re-read rather than kept resident
    counters = KernelCounters(
        fma=taps * total_warps * iterations,
        smem_load=taps * total_warps * iterations,
        smem_store=staging_iters * slices_staged * blocks * warps_per_block * depth * iterations,
        gmem_load=staging_iters * slices_staged * blocks * warps_per_block * depth * iterations,
        gmem_load_transactions=staging_iters * slices_staged * blocks * warps_per_block * depth
        * (sectors + 1) * iterations,
        gmem_store=total_warps * iterations,
        gmem_store_transactions=total_warps * sectors * iterations,
        sync=2.0 * blocks * warps_per_block * depth * iterations,
        dram_read_bytes=float(blocks * staged_per_slice * slices_staged * depth
                              * prec.itemsize * iterations),
        dram_write_bytes=float(width * height * depth * prec.itemsize * iterations),
        blocks_executed=blocks * iterations,
        warps_executed=total_warps * iterations,
    )
    parameters = {"stencil": spec.name, "iterations": iterations, "tile_rows": tile_rows,
                  "architecture": arch.name, "precision": prec.name, "analytic": True}
    return analytic_result("ppcg", counters, config, arch, parameters)

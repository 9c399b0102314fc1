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

"original", ppcg and Halide are direct kernels: they run the naive and
shared schemes of :mod:`.direct` over the stencil's taps, and this module
supplies only their constants.

All cost profiles follow the same traffic policy as the SSAM kernels
(perfect intra-block reuse, no inter-block reuse), so differences between
implementations come only from their genuine locality/registers/scratchpad
trade-offs.
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
from ..gpu.register_file import registers_for_cache
from ..kernels.common import (
    KernelRunResult,
    analytic_result,
    check_image,
    run_jacobi,
)
from ..stencils.spec import StencilSpec
from . import direct


NAIVE_STENCIL2D_KERNEL = Kernel(direct.naive_block, name="original_stencil2d")
SHARED_STENCIL2D_KERNEL = Kernel(direct.shared_block, name="shared_stencil2d")

#: per-tap address arithmetic of the "original" codes; an int, so the
#: closed form's ``misc`` count stays an int
ORIGINAL_TAP_OVERHEAD = 1


# ---------------------------------------------------------------------------
# "original": naive per-output kernel
# ---------------------------------------------------------------------------

def _naive_launch(spec: StencilSpec, width: int, height: int, iterations: int,
                  arch, prec, block_threads: int):
    """Launch configuration and parameters of the "original" kernel."""
    if spec.dims != 2:
        raise ConfigurationError("original_stencil2d expects a 2-D stencil")
    config = direct.naive_launch(width, height, 1, prec, block_threads,
                                 registers=28 + 2 * spec.num_points // 4,
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
    args = (direct.stencil_taps(spec), width, height, 1, ORIGINAL_TAP_OVERHEAD)
    return run_jacobi(NAIVE_STENCIL2D_KERNEL, grid, config, args, iterations, arch,
                      "original", parameters, max_blocks=max_blocks,
                      batch_size=batch_size)


def original_stencil2d_analytic(spec: StencilSpec, width: int, height: int,
                                iterations: int = 1, architecture: object = "p100",
                                precision: object = "float32",
                                block_threads: int = 128) -> KernelRunResult:
    """Closed-form cost of :func:`original_stencil2d` on a ``width x height`` grid."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    config, parameters = _naive_launch(spec, width, height, iterations, arch, prec,
                                       block_threads)
    counters = direct.naive_counters(config, direct.stencil_taps(spec), arch, width,
                                     height, 1, iterations, ORIGINAL_TAP_OVERHEAD)
    parameters["analytic"] = True
    return analytic_result("original", counters, config, arch, parameters)


# ---------------------------------------------------------------------------
# shared-memory tiling ("ppcg" / "halide")
# ---------------------------------------------------------------------------

def _shared_launch(label: str, spec: StencilSpec, width: int, height: int,
                   iterations: int, arch, prec, tile_rows: int):
    """Launch configuration and parameters of a shared-memory tiled kernel."""
    if spec.dims != 2:
        raise ConfigurationError(f"{label} expects a 2-D stencil")
    config = direct.shared_launch(direct.stencil_taps(spec), width, height, prec,
                                  tile_rows, registers=36)
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
    args = (direct.stencil_taps(spec), width, height, tile_rows, overhead_per_tap)
    return run_jacobi(SHARED_STENCIL2D_KERNEL, grid, config, args, iterations, arch,
                      label, parameters, max_blocks=max_blocks, batch_size=batch_size)


def _shared_stencil2d_analytic(label: str, spec, width, height, iterations,
                               architecture, precision, tile_rows, overhead_per_tap):
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    config, parameters = _shared_launch(label, spec, width, height, iterations,
                                        arch, prec, tile_rows)
    counters = direct.shared_counters(config, direct.stencil_taps(spec), arch, width,
                                      height, tile_rows, iterations, overhead_per_tap)
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

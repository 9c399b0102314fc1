"""2-D stencil cost models for Figure 5: the register-optimised codes.

* ``reordered`` — register-optimised codes that keep a column of the grid in
  registers and reuse it across several outputs (analytic cost model of
  Rawat et al.'s reordering framework);
* ``unrolled``  — the unroll-optimised variant (shallower reuse, lower
  register pressure).

They run no kernel.  The Figure 5 competitors that do ("original", ppcg,
Halide) are rows of :data:`repro.baselines.direct.BASELINES`.  All cost
profiles follow the same traffic policy as the SSAM kernels (perfect
intra-block reuse, no inter-block reuse), so differences between
implementations come only from their genuine locality/registers/scratchpad
trade-offs.
"""

from __future__ import annotations

import math

from ..dtypes import resolve_precision
from ..gpu.architecture import get_architecture, warp_sectors
from ..gpu.counters import KernelCounters
from ..gpu.kernel import LaunchConfig
from ..gpu.register_file import registers_for_cache
from ..kernels.common import KernelRunResult, analytic_result
from ..stencils.spec import StencilSpec


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

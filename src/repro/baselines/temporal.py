"""Temporal-blocking comparison set for Figure 6.

* :func:`stencilgen_like_stencil` — shared-memory temporal blocking in the
  style of StencilGen: a block stages a tile plus a halo that grows with the
  temporal depth T, performs T stencil steps entirely in the scratchpad, and
  only then writes back, cutting DRAM traffic by ~T at the price of T times
  the scratchpad work and redundant halo compute.
* :func:`ssam_temporal_stencil` — the SSAM equivalent: T steps kept in the
  register cache (Section 6.4 notes SSAM admits temporal blocking without
  changing the model); the register budget bounds T.
* :data:`PUBLISHED_REFERENCES` — the throughput numbers the paper quotes for
  Diffusion (Zohouri et al.) and Bricks (Zhao et al.), used as horizontal
  reference lines because those systems are not publicly available.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..dtypes import resolve_precision
from ..errors import ConfigurationError
from ..gpu.architecture import get_architecture, warp_sectors
from ..gpu.counters import KernelCounters
from ..gpu.kernel import LaunchConfig
from ..gpu.register_file import registers_for_cache
from ..kernels.common import KernelRunResult, analytic_result
from ..stencils.spec import StencilSpec


#: GCells/s reported in Section 6.4 for systems that are not publicly available
PUBLISHED_REFERENCES: Dict[str, Dict[str, float]] = {
    "diffusion": {  # Zohouri et al. 3d7pt
        "p100-float32": 92.7, "v100-float32": 162.4,
        "p100-float64": 30.6, "v100-float64": 46.9,
    },
    "bricks": {  # Zhao et al., P100 only
        "p100-float32": 41.4, "p100-float64": 24.25,
    },
}


def published_reference(system: str, architecture: object,
                        precision: object = "float32") -> Optional[float]:
    """Look up a published GCells/s reference value (None if not reported)."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    key = f"{'p100' if arch.generation == 'pascal' else 'v100'}-{prec.name}"
    return PUBLISHED_REFERENCES.get(system, {}).get(key)


def _domain_cells(spec: StencilSpec, width: int, height: int, depth: int) -> int:
    return width * height * (depth if spec.dims == 3 else 1)


def stencilgen_like_stencil(spec: StencilSpec, width: int, height: int, depth: int = 1,
                            time_steps: int = 200, temporal_depth: int = 4,
                            architecture: object = "p100",
                            precision: object = "float32",
                            tile_rows: int = 8) -> KernelRunResult:
    """StencilGen-style shared-memory temporal blocking cost model."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    if temporal_depth < 1:
        raise ConfigurationError("temporal depth must be >= 1")
    k = spec.order
    taps = spec.num_points
    halo = 2 * k * temporal_depth
    tile_cols = 32
    block_threads = 32 * tile_rows
    staged = (tile_rows + halo) * (tile_cols + halo) * (spec.footprint_depth if spec.dims == 3 else 1)
    smem_bytes = min(2 * staged * prec.itemsize, arch.shared_memory_per_block)
    planes = depth if spec.dims == 3 else 1
    launch_grid = (math.ceil(width / tile_cols), math.ceil(height / tile_rows),
                   max(1, math.ceil(planes / 1)))
    blocks = launch_grid[0] * launch_grid[1] * (launch_grid[2] if spec.dims == 3 else 1)
    warps_per_block = block_threads // arch.warp_size
    total_warps = blocks * warps_per_block
    cells = _domain_cells(spec, width, height, depth)
    rounds = math.ceil(time_steps / temporal_depth)
    # redundant compute on the shrinking halo region
    redundancy = ((tile_rows + halo) * (tile_cols + halo)) / float(tile_rows * tile_cols)
    sectors = warp_sectors(arch, prec.itemsize)
    counters = KernelCounters(
        fma=taps * temporal_depth * redundancy * total_warps * rounds,
        smem_load=taps * temporal_depth * redundancy * total_warps * rounds,
        smem_store=temporal_depth * redundancy * total_warps * rounds,
        gmem_load=math.ceil(staged / block_threads) * warps_per_block * blocks * rounds,
        gmem_load_transactions=math.ceil(staged / block_threads) * warps_per_block * blocks
        * (sectors + 1) * rounds,
        gmem_store=total_warps * rounds,
        gmem_store_transactions=total_warps * sectors * rounds,
        sync=2.0 * temporal_depth * warps_per_block * blocks * rounds,
        dram_read_bytes=float(blocks * staged * prec.itemsize * rounds),
        dram_write_bytes=float(cells * prec.itemsize * rounds),
        blocks_executed=blocks * rounds,
        warps_executed=total_warps * rounds,
    )
    config = LaunchConfig(grid_dim=launch_grid, block_threads=block_threads,
                         registers_per_thread=56, shared_bytes_per_block=smem_bytes,
                         precision=prec, memory_parallelism=3.0)
    parameters = {"stencil": spec.name, "time_steps": time_steps,
                  "temporal_depth": temporal_depth, "architecture": arch.name,
                  "precision": prec.name, "analytic": True}
    return analytic_result("stencilgen", counters, config, arch, parameters)


def max_register_temporal_depth(spec: StencilSpec, architecture: object,
                                precision: object = "float32",
                                outputs_per_thread: int = 4) -> int:
    """Largest useful temporal depth for register-level temporal blocking.

    Bounded both by the register budget (the cache grows by ``2k`` rows per
    fused step) and by the warp width: every fused step also widens the
    in-warp halo by ``2k`` lanes, and past roughly half the warp the
    redundant lanes cost more than the saved DRAM traffic.
    """
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    k = spec.order
    best = 1
    depth = 1
    while depth < 8:
        cache = spec.footprint_height + outputs_per_thread - 1 + 2 * k * depth
        registers = registers_for_cache(cache, outputs_per_thread * (depth + 1), prec)
        lane_halo = (spec.footprint_width - 1) + 2 * k * depth
        if registers > arch.max_registers_per_thread or lane_halo > arch.warp_size // 2:
            break
        best = depth + 1
        depth += 1
    return best


def ssam_temporal_stencil(spec: StencilSpec, width: int, height: int, depth: int = 1,
                          time_steps: int = 200, temporal_depth: Optional[int] = None,
                          architecture: object = "p100", precision: object = "float32",
                          outputs_per_thread: int = 4,
                          block_threads: int = 128) -> KernelRunResult:
    """SSAM with register-level temporal blocking (the Figure 6 configuration)."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    if temporal_depth is None:
        temporal_depth = max_register_temporal_depth(spec, arch, prec, outputs_per_thread)
    k = spec.order
    taps = spec.num_points
    m_extent = spec.footprint_width + 2 * k * (temporal_depth - 1)
    m_extent = min(m_extent, arch.warp_size - 1)
    valid_x = arch.warp_size - m_extent + 1
    cache_rows = spec.footprint_height + outputs_per_thread - 1 + 2 * k * (temporal_depth - 1)
    warps_per_block = block_threads // arch.warp_size
    planes = depth if spec.dims == 3 else 1
    grid = (math.ceil(width / (warps_per_block * valid_x)),
            math.ceil(height / outputs_per_thread),
            max(1, planes if spec.dims == 3 else 1))
    if spec.dims == 3:
        grid = (math.ceil(width / valid_x), math.ceil(height / outputs_per_thread),
                math.ceil(planes / warps_per_block))
    blocks = grid[0] * grid[1] * grid[2]
    total_warps = blocks * warps_per_block
    cells = _domain_cells(spec, width, height, depth)
    rounds = math.ceil(time_steps / temporal_depth)
    lane_redundancy = arch.warp_size / float(valid_x)
    columns = len(spec.columns())
    sectors = warp_sectors(arch, prec.itemsize)
    registers = registers_for_cache(cache_rows, outputs_per_thread * temporal_depth, prec)
    registers = min(registers, arch.max_registers_per_thread)
    counters = KernelCounters(
        fma=taps * temporal_depth * outputs_per_thread * lane_redundancy
        * total_warps * rounds / (1.0 if spec.dims == 2 else 1.0),
        shfl=(columns - 1 + 2 * k * (temporal_depth - 1)) * outputs_per_thread
        * total_warps * rounds,
        smem_load=(temporal_depth - 1) * outputs_per_thread * total_warps * rounds
        if spec.dims == 3 else 0.0,
        gmem_load=cache_rows * total_warps * rounds,
        gmem_load_transactions=cache_rows * total_warps * sectors * rounds,
        gmem_store=outputs_per_thread * total_warps * rounds,
        gmem_store_transactions=outputs_per_thread * total_warps * sectors * rounds,
        dram_read_bytes=float(blocks * cache_rows
                              * (warps_per_block * valid_x + m_extent - 1)
                              * prec.itemsize * rounds),
        dram_write_bytes=float(cells * prec.itemsize * rounds),
        blocks_executed=blocks * rounds,
        warps_executed=total_warps * rounds,
    )
    config = LaunchConfig(grid_dim=grid, block_threads=block_threads,
                         registers_per_thread=registers, shared_bytes_per_block=0,
                         precision=prec, memory_parallelism=float(cache_rows))
    parameters = {"stencil": spec.name, "time_steps": time_steps,
                  "temporal_depth": temporal_depth, "architecture": arch.name,
                  "precision": prec.name, "analytic": True}
    return analytic_result("ssam", counters, config, arch, parameters)

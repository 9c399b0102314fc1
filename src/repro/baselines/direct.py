"""The direct convolution and stencil baselines: two schemes and one table.

A direct kernel computes one output per thread as a weighted sum over a
tap list ``((dx, dy, dz, weight), ...)``.  The Figure 4 and Figure 5
competitors differ only in how a tap reaches the thread:

* the *naive* scheme issues one global (L1) load per tap and stages
  nothing on chip (NPP's general filters, the "original" stencil codes);
* the *shared* scheme stages the block's ``32 x tile_rows`` output tile
  plus its halo in shared memory, then reads every tap from the scratchpad
  (Section 5.2's conventional tile: ArrayFire, Halide, ppcg).

Each scheme is one block body, one launch builder and one closed-form
count; the footprint extents come from the taps.  Each baseline is one
row of :data:`BASELINES`: its kernel, scheme, taps source and constants
(register rule, memory parallelism, block threads or tile rows, per-tap
overhead, filter ceiling).  :func:`resolve` turns a row into its launch
and parameters; :func:`run` executes it on an array and
:func:`closed_form` counts it without executing, and the registry
(``repro.scenarios.builtin``) registers one scenario per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..convolution.spec import ConvolutionSpec
from ..dtypes import resolve_precision
from ..errors import ConfigurationError
from ..gpu.architecture import get_architecture, warp_sectors
from ..gpu.batch import BatchedBlockContext
from ..gpu.counters import KernelCounters
from ..gpu.kernel import Kernel, LaunchConfig
from ..gpu.memory import DeviceBuffer
from ..kernels.common import (
    KernelRunResult,
    analytic_result,
    check_grid3d,
    check_image,
    clamp,
    require_edge_boundary,
    run_jacobi,
)
from ..stencils.spec import StencilSpec

#: ``(dx, dy, dz, weight)`` per tap, in accumulation order
Taps = Tuple[Tuple[int, int, int, float], ...]

#: columns of a shared tile: one warp wide
TILE_COLS = 32


def convolution_taps(spec: ConvolutionSpec) -> Taps:
    """The M x N filter as taps, row-major and offset by the anchor."""
    anchor_x, anchor_y = spec.anchor
    weights = spec.weights.reshape(-1).tolist()
    return tuple((m - anchor_x, n - anchor_y, 0, weights[n * spec.filter_width + m])
                 for n in range(spec.filter_height) for m in range(spec.filter_width))


def stencil_taps(spec: StencilSpec) -> Taps:
    """The stencil's points as taps, in the spec's order."""
    return tuple((p.dx, p.dy, p.dz, float(p.coefficient)) for p in spec.points)


def footprint(taps: Taps) -> Tuple[int, int, int, int, int]:
    """``(x_min, y_min, width, height, depth)`` of the taps' footprint."""
    xs, ys, zs = ([tap[axis] for tap in taps] for axis in range(3))
    return (min(xs), min(ys), max(xs) - min(xs) + 1, max(ys) - min(ys) + 1,
            max(zs) - min(zs) + 1)


# ---------------------------------------------------------------------------
# naive: one global load per tap
# ---------------------------------------------------------------------------

def naive_block(ctx: BatchedBlockContext, src: DeviceBuffer, dst: DeviceBuffer,
                taps: Taps, width: int, height: int, depth: int,
                overhead_per_tap: float) -> None:
    """One thread per output of row ``blockIdx.y`` of plane ``blockIdx.z``."""
    gx = ctx.block_idx_x * ctx.block_threads + ctx.thread_idx_x
    gy = ctx.block_idx_y
    gz = ctx.block_idx_z
    mask = gx < width
    total = ctx.zeros()
    for dx, dy, dz, weight in taps:
        row = clamp(gz + dz, 0, depth - 1) * height + clamp(gy + dy, 0, height - 1)
        value = ctx.load_global(src, row * width + clamp(gx + dx, 0, width - 1), mask=mask)
        if overhead_per_tap:
            ctx.overhead(overhead_per_tap)  # address arithmetic and border predicate
        total = ctx.mad(value, ctx.full(weight), total)
    ctx.store_global(dst, (gz * height + gy) * width + clamp(gx, 0, width - 1), total,
                     mask=mask)


def naive_launch(width: int, height: int, depth: int, precision, block_threads: int,
                 registers: int, memory_parallelism: float) -> LaunchConfig:
    """One block per ``block_threads`` outputs of a row."""
    return LaunchConfig(grid_dim=(math.ceil(width / block_threads), height, depth),
                        block_threads=block_threads, registers_per_thread=registers,
                        shared_bytes_per_block=0, precision=precision,
                        memory_parallelism=memory_parallelism)


def naive_counters(config: LaunchConfig, taps: Taps, arch, width: int, height: int,
                   depth: int, iterations: int, overhead_per_tap: float) -> KernelCounters:
    """Closed-form counts of ``iterations`` launches of :func:`naive_block`."""
    prec = config.precision
    blocks = config.total_blocks
    total_warps = blocks * (config.block_threads // arch.warp_size)
    # a warp past the row's end has no active lane and issues no access
    active_warps = math.ceil(width / arch.warp_size) * height * depth
    count = len(taps)
    _, _, fp_width, fp_height, fp_depth = footprint(taps)
    sectors = warp_sectors(arch, prec.itemsize)
    return KernelCounters(
        fma=count * total_warps * iterations,
        misc=overhead_per_tap * count * total_warps * iterations,
        gmem_load=count * active_warps * iterations,
        gmem_load_transactions=count * total_warps * (sectors + 1) * iterations,
        gmem_store=active_warps * iterations,
        gmem_store_transactions=total_warps * sectors * iterations,
        dram_read_bytes=float(blocks * fp_depth * fp_height
                              * (config.block_threads + fp_width - 1)
                              * prec.itemsize * iterations),
        dram_write_bytes=float(width * height * depth * prec.itemsize * iterations),
        blocks_executed=blocks * iterations,
        warps_executed=total_warps * iterations,
    )


# ---------------------------------------------------------------------------
# shared: tile + halo staged in the scratchpad
# ---------------------------------------------------------------------------

def shared_block(ctx: BatchedBlockContext, src: DeviceBuffer, dst: DeviceBuffer,
                 taps: Taps, width: int, height: int, tile_rows: int,
                 overhead_per_tap: float) -> None:
    """One thread per output of a ``32 x tile_rows`` tile (2-D taps)."""
    x_min, y_min, fp_width, fp_height, _ = footprint(taps)
    tile_cols = ctx.warp_size
    tx = ctx.thread_idx_x % tile_cols
    ty = ctx.thread_idx_x // tile_cols
    smem_cols = tile_cols + fp_width - 1
    smem_rows = tile_rows + fp_height - 1
    tile = ctx.alloc_shared("tile", (smem_rows, smem_cols))
    base_x = ctx.block_idx_x * tile_cols + x_min
    base_y = ctx.block_idx_y * tile_rows + y_min

    # cooperative staging of the tile + halo
    staged = smem_rows * smem_cols
    tid = ctx.thread_idx_x
    for offset in range(0, staged, ctx.block_threads):
        idx = offset + tid
        mask = idx < staged
        safe = np.minimum(idx, staged - 1)
        gy = clamp(base_y + safe // smem_cols, 0, height - 1)
        gx = clamp(base_x + safe % smem_cols, 0, width - 1)
        values = ctx.load_global(src, gy * width + gx, mask=mask)
        ctx.store_shared(tile, safe, values, mask=mask)
    ctx.syncthreads()

    out_x = ctx.block_idx_x * tile_cols + tx
    out_y = ctx.block_idx_y * tile_rows + ty
    mask = (out_x < width) & (out_y < height)
    total = ctx.zeros()
    for dx, dy, _, weight in taps:
        value = ctx.load_shared(tile, (ty + dy - y_min) * smem_cols + (tx + dx - x_min))
        if overhead_per_tap:
            ctx.overhead(overhead_per_tap)
        total = ctx.mad(value, ctx.full(weight), total)
    ctx.syncthreads()
    ctx.store_global(dst, clamp(out_y, 0, height - 1) * width + clamp(out_x, 0, width - 1),
                     total, mask=mask)


def _staged_elements(taps: Taps, tile_rows: int) -> int:
    _, _, fp_width, fp_height, _ = footprint(taps)
    return (tile_rows + fp_height - 1) * (TILE_COLS + fp_width - 1)


def shared_launch(taps: Taps, width: int, height: int, precision, tile_rows: int,
                  registers: int, memory_parallelism: float) -> LaunchConfig:
    """One ``32 x tile_rows`` block per output tile, its staged tile in shared memory."""
    return LaunchConfig(grid_dim=(math.ceil(width / TILE_COLS),
                                  math.ceil(height / tile_rows), 1),
                        block_threads=TILE_COLS * tile_rows,
                        registers_per_thread=registers,
                        shared_bytes_per_block=_staged_elements(taps, tile_rows)
                        * precision.itemsize,
                        precision=precision, memory_parallelism=memory_parallelism)


def shared_counters(config: LaunchConfig, taps: Taps, arch, width: int, height: int,
                    tile_rows: int, iterations: int,
                    overhead_per_tap: float) -> KernelCounters:
    """Closed-form counts of ``iterations`` launches of :func:`shared_block`."""
    prec = config.precision
    blocks = config.total_blocks
    ws = arch.warp_size
    warps_per_block = config.block_threads // ws
    total_warps = blocks * warps_per_block
    count = len(taps)
    staged = _staged_elements(taps, tile_rows)
    staging_warps = math.ceil(staged / config.block_threads) * warps_per_block * blocks
    sectors = warp_sectors(arch, prec.itemsize)
    # a shared access of ``lanes`` contiguous elements takes one wavefront
    # per bank-row width it spans (two for a full float64 warp)
    bank_row = arch.shared_memory_banks * arch.shared_memory_bank_bytes

    def wavefronts(lanes: int) -> int:
        return math.ceil(lanes * prec.itemsize / bank_row)

    # only the staging loop's warps with an active lane issue an access
    staging_stores = staged // ws * wavefronts(ws) + wavefronts(staged % ws)
    return KernelCounters(
        fma=count * total_warps * iterations,
        misc=overhead_per_tap * count * total_warps * iterations,
        smem_load=count * total_warps * wavefronts(ws) * iterations,
        smem_store=staging_stores * blocks * iterations,
        gmem_load=math.ceil(staged / ws) * blocks * iterations,
        gmem_load_transactions=staging_warps * (sectors + 1) * iterations,
        gmem_store=math.ceil(width / ws) * height * iterations,
        gmem_store_transactions=total_warps * sectors * iterations,
        sync=2.0 * warps_per_block * blocks * iterations,
        dram_read_bytes=float(blocks * staged * prec.itemsize * iterations),
        dram_write_bytes=float(width * height * prec.itemsize * iterations),
        blocks_executed=blocks * iterations,
        warps_executed=total_warps * iterations,
    )


# ---------------------------------------------------------------------------
# the baselines: one row each
# ---------------------------------------------------------------------------

#: ArrayFire's undocumented filter-size ceiling (Section 6.2 (i))
ARRAYFIRE_MAX_FILTER = 16


@dataclass(frozen=True)
class DirectBaseline:
    """One direct baseline: every fact its run, closed form and scenario read."""

    #: registered scenario name, e.g. ``"conv2d-npp"``
    scenario: str
    #: name of its results, e.g. ``"npp_like"``
    name: str
    kernel: Kernel
    #: ``"naive"`` or ``"shared"``
    scheme: str
    #: :func:`convolution_taps` or :func:`stencil_taps`
    taps: Callable[[object], Taps]
    #: dimensionality of its domain
    dims: int
    #: registers per thread of a spec
    registers: Callable[[object], int]
    memory_parallelism: float
    #: block threads (naive scheme) or tile rows (shared scheme)
    extent: int
    overhead_per_tap: float
    #: the parameters its results report ahead of the part and precision
    parameter_keys: Tuple[str, ...]
    description: str
    #: largest filter side it accepts (``None``: any)
    max_filter: Optional[int] = None


#: a reported parameter by key, from ``(row, spec, iterations)``
_PARAMETERS: Dict[str, Callable[[DirectBaseline, object, int], object]] = {
    "M": lambda row, spec, iterations: spec.filter_width,
    "N": lambda row, spec, iterations: spec.filter_height,
    "stencil": lambda row, spec, iterations: spec.name,
    "iterations": lambda row, spec, iterations: iterations,
    "B": lambda row, spec, iterations: row.extent,
    "tile_rows": lambda row, spec, iterations: row.extent,
}

_SHARED_CONV2D = Kernel(shared_block, name="shared_conv2d")
_SHARED_STENCIL2D = Kernel(shared_block, name="shared_stencil2d")

#: every direct baseline, by scenario name.  A per-tap overhead stands for
#: address arithmetic and border predicates; the "original" codes' is an
#: int, so their closed form's ``misc`` count stays an int.
BASELINES: Dict[str, DirectBaseline] = {row.scenario: row for row in (
    DirectBaseline(
        "conv2d-npp", "npp_like", Kernel(naive_block, name="npp_like_conv2d"),
        "naive", convolution_taps, 2, registers=lambda spec: 32,
        memory_parallelism=2.0, extent=128, overhead_per_tap=2.0,
        parameter_keys=("M", "N", "B"),
        description="npp-like 2-D convolution baseline"),
    DirectBaseline(
        "conv2d-arrayfire", "arrayfire_like", _SHARED_CONV2D, "shared",
        convolution_taps, 2, registers=lambda spec: 40,
        memory_parallelism=3.0, extent=8, overhead_per_tap=0.0,
        parameter_keys=("M", "N", "tile_rows"),
        description="arrayfire-like 2-D convolution baseline",
        max_filter=ARRAYFIRE_MAX_FILTER),
    # Halide's auto-schedule: a smaller tile and generic indexing
    DirectBaseline(
        "conv2d-halide", "halide_like", _SHARED_CONV2D, "shared",
        convolution_taps, 2, registers=lambda spec: 40,
        memory_parallelism=3.0, extent=4, overhead_per_tap=2.0,
        parameter_keys=("M", "N", "tile_rows"),
        description="halide-like 2-D convolution baseline"),
    DirectBaseline(
        "stencil2d-original", "original",
        Kernel(naive_block, name="original_stencil2d"), "naive", stencil_taps, 2,
        registers=lambda spec: 28 + 2 * spec.num_points // 4,
        memory_parallelism=3.0, extent=128, overhead_per_tap=1,
        parameter_keys=("stencil", "iterations"),
        description="original 2-D stencil baseline"),
    DirectBaseline(
        "stencil2d-ppcg", "ppcg", _SHARED_STENCIL2D, "shared", stencil_taps, 2,
        registers=lambda spec: 36, memory_parallelism=3.0, extent=8,
        overhead_per_tap=0.0, parameter_keys=("stencil", "iterations", "tile_rows"),
        description="ppcg 2-D stencil baseline"),
    DirectBaseline(
        "stencil2d-halide", "halide", _SHARED_STENCIL2D, "shared", stencil_taps, 2,
        registers=lambda spec: 36, memory_parallelism=3.0, extent=4,
        overhead_per_tap=2.0, parameter_keys=("stencil", "iterations", "tile_rows"),
        description="halide 2-D stencil baseline"),
    DirectBaseline(
        "stencil3d-original", "original",
        Kernel(naive_block, name="original_stencil3d"), "naive", stencil_taps, 3,
        registers=lambda spec: 32 + spec.num_points // 4,
        memory_parallelism=3.0, extent=128, overhead_per_tap=1,
        parameter_keys=("stencil", "iterations"),
        description="naive one-output-per-thread 3-D stencil baseline"),
)}


def resolve(row: DirectBaseline, spec, domain: Sequence[int], iterations: int,
            architecture: object, precision: object):
    """``(arch, config, parameters)`` of ``row`` on a ``(width, height[,
    depth])`` domain.

    The one place a direct baseline resolves its part and its precision,
    and refuses a filter above its ceiling or a stencil of other
    dimensionality.
    """
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    if row.max_filter is not None and max(spec.filter_width,
                                          spec.filter_height) > row.max_filter:
        raise ConfigurationError(
            f"{row.name} supports filters up to {row.max_filter}x{row.max_filter} "
            f"(got {spec.filter_width}x{spec.filter_height})")
    if row.taps is stencil_taps and spec.dims != row.dims:
        raise ConfigurationError(f"{row.scenario} expects a {row.dims}-D stencil")
    width, height, depth = (*domain, 1)[:3]
    if row.scheme == "naive":
        config = naive_launch(width, height, depth, prec, row.extent,
                              row.registers(spec), row.memory_parallelism)
    else:
        config = shared_launch(row.taps(spec), width, height, prec, row.extent,
                               row.registers(spec), row.memory_parallelism)
    parameters = {key: _PARAMETERS[key](row, spec, iterations)
                  for key in row.parameter_keys}
    parameters.update(architecture=arch.name, precision=prec.name)
    return arch, config, parameters


def _extents(row: DirectBaseline, domain: Sequence[int]) -> Tuple[int, int, int]:
    """``(width, height, depth or tile rows)``: the scheme's extents after
    the taps, in its block arguments and its closed form alike."""
    width, height, depth = (*domain, 1)[:3]
    return width, height, depth if row.scheme == "naive" else row.extent


def run(row: DirectBaseline, array: np.ndarray, spec, iterations: int = 1,
        architecture: object = "p100", precision: object = "float32",
        batch_size: object = "auto") -> KernelRunResult:
    """Run ``row`` on ``array`` for ``iterations`` Jacobi steps (one
    convolution is one step); convolutions take the edge boundary only."""
    grid = (check_image if row.dims == 2 else check_grid3d)(array)
    domain = grid.shape[::-1]
    arch, config, parameters = resolve(row, spec, domain, iterations,
                                       architecture, precision)
    if row.taps is convolution_taps:
        require_edge_boundary(spec.boundary, f"the {row.name} kernel")
    args = (row.taps(spec), *_extents(row, domain), row.overhead_per_tap)
    return run_jacobi(row.kernel, grid, config, args, iterations, arch, row.name,
                      parameters, batch_size=batch_size)


def closed_form(row: DirectBaseline, spec, domain: Sequence[int], iterations: int = 1,
                architecture: object = "p100",
                precision: object = "float32") -> KernelRunResult:
    """Closed-form cost of :func:`run` on a ``(width, height[, depth])``
    domain, executing nothing."""
    arch, config, parameters = resolve(row, spec, domain, iterations,
                                       architecture, precision)
    args = (config, row.taps(spec), arch, *_extents(row, domain), iterations,
            row.overhead_per_tap)
    counters = naive_counters(*args) if row.scheme == "naive" else shared_counters(*args)
    parameters["analytic"] = True
    return analytic_result(row.name, counters, config, arch, parameters)

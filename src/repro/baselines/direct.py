"""The two memory schemes behind every direct convolution and stencil baseline.

A direct kernel computes one output per thread as a weighted sum over a
tap list ``((dx, dy, dz, weight), ...)``.  The Figure 4 and Figure 5
competitors differ only in how a tap reaches the thread:

* the *naive* scheme issues one global (L1) load per tap and stages
  nothing on chip (NPP's general filters, the "original" stencil codes);
* the *shared* scheme stages the block's ``32 x tile_rows`` output tile
  plus its halo in shared memory, then reads every tap from the scratchpad
  (Section 5.2's conventional tile: ArrayFire, Halide, ppcg).

Each scheme is one block body, one launch builder and one closed-form
count; the footprint extents come from the taps.  The families in
:mod:`.conv2d`, :mod:`.stencil2d` and :mod:`.stencil3d` supply only their
own constants: register budget, memory parallelism and per-tap overhead.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..convolution.spec import ConvolutionSpec
from ..gpu.architecture import warp_sectors
from ..gpu.batch import BatchedBlockContext
from ..gpu.counters import KernelCounters
from ..gpu.kernel import LaunchConfig
from ..gpu.memory import DeviceBuffer
from ..kernels.common import clamp
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
                  registers: int) -> LaunchConfig:
    """One ``32 x tile_rows`` block per output tile, its staged tile in shared memory."""
    return LaunchConfig(grid_dim=(math.ceil(width / TILE_COLS),
                                  math.ceil(height / tile_rows), 1),
                        block_threads=TILE_COLS * tile_rows,
                        registers_per_thread=registers,
                        shared_bytes_per_block=_staged_elements(taps, tile_rows)
                        * precision.itemsize,
                        precision=precision, memory_parallelism=3.0)


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

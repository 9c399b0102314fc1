"""SSAM 2-D convolution — the executable form of Listing 1.

One warp caches a ``32 x C`` register matrix (C = N + P - 1 rows of the
image, one column per lane), stages the ``M x N`` filter in shared memory,
and then for each of the P sliding-window positions accumulates the M
column inner products while shifting the partial sums one lane up between
columns with ``shfl_up`` (Figure 2).  The overlapped blocking scheme of
Section 4.5 gives every warp its own tile, so there is no intra-block
communication and no divergent branch in the main loop.

Two evaluation paths are provided:

* :func:`ssam_convolve2d` — functional execution on the simulated GPU
  (produces the output image and counted costs);
* :func:`analytic_launch` — closed-form instruction/traffic profile for
  paper-scale domains (8192^2), cross-checked against the counted execution
  in the test suite (:func:`analytic_chain_launch` for the chain).

Both run one :class:`~repro.core.plan.SSAMPlan`: the wrappers resolve it
once at entry (:func:`~repro.kernels.common.resolve_plan`), and the closed
forms take it as ``analytic_launch(width, height, plan)`` and
``analytic_chain_launch(width, height, plan, passes, fused)``, reading the
filter (``plan.problem``), the part, the precision, P, B and R from it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..convolution.spec import ConvolutionSpec
from ..core.plan import SSAMPlan, plan_convolution
from ..errors import ConfigurationError
from ..gpu.architecture import warp_sectors
from ..gpu.batch import BatchedBlockContext
from ..gpu.counters import KernelCounters
from ..gpu.kernel import Kernel
from ..gpu.memory import DeviceBuffer, GlobalMemory
from .common import (
    KernelRunResult,
    analytic_result,
    broadcast_weight,
    check_image,
    clamp,
    load_weights_to_shared,
    make_device_pair,
    require_edge_boundary,
    resolve_plan,
)


def _conv2d_ssam_block(ctx: BatchedBlockContext, src: DeviceBuffer, dst: DeviceBuffer,
                       weights: DeviceBuffer, width: int, height: int,
                       filter_width: int, filter_height: int,
                       outputs_per_thread: int, anchor_x: int, anchor_y: int,
                       block_rows: int = 1) -> None:
    """Listing 1, executed for one thread block (or a whole batch of blocks).

    Written against the broadcast contract of
    :class:`~repro.gpu.batch.BatchedBlockContext`: block indices are
    ``(num_blocks, 1)`` columns, so every index expression broadcasts to the
    context's ``(num_blocks, block_threads)`` register shape.

    ``block_rows`` (R) selects the block shape: R=1 lays every warp along x
    (the paper's scheme, kept branch-for-branch identical here); R>1 splits
    the block's warps into R bands covering consecutive P-row strips.  The
    band arithmetic is pure integer math on the warp id, so it vectorises
    in the batched engine and records into the trace IR unchanged.
    """
    m_extent, n_extent, p_extent = filter_width, filter_height, outputs_per_thread
    cache_rows = n_extent + p_extent - 1
    warp_size = ctx.warp_size
    valid_x = warp_size - m_extent + 1

    # (i) stage the filter weights in shared memory (Listing 1, lines 7-12)
    smem = load_weights_to_shared(ctx, weights, m_extent * n_extent)

    lane = ctx.lane_id
    warp = ctx.warp_id
    warps_per_block = ctx.num_warps

    # column cached by each thread and the rows of this block's tile
    if block_rows == 1:
        warps_x = warps_per_block
        warp_x = warp
        block_row = ctx.block_idx_y
    else:
        warps_x = warps_per_block // block_rows
        warp_x = warp % warps_x
        block_row = ctx.block_idx_y * block_rows + warp // warps_x
    warp_out_base = (ctx.block_idx_x * warps_x + warp_x) * valid_x
    column = warp_out_base + lane - anchor_x
    column = clamp(column, 0, width - 1)
    row_base = block_row * p_extent - anchor_y

    # (ii) fill the register cache, one coalesced row at a time (lines 13-14)
    register_cache = []
    for j in range(cache_rows):
        row = clamp(row_base + j, 0, height - 1)
        register_cache.append(ctx.load_global(src, row * width + column))

    # (iii)-(v) sliding window over P output rows (lines 16-29)
    out_x = warp_out_base + lane - (m_extent - 1)
    x_mask = (lane >= (m_extent - 1)) & (out_x < width) & (out_x >= 0)
    safe_x = clamp(out_x, 0, width - 1)
    for i in range(p_extent):
        partial = ctx.zeros()
        for m in range(m_extent):
            if m > 0:
                partial = ctx.shfl_up(partial, 1)
            for n in range(n_extent):
                weight = broadcast_weight(ctx, smem, n * m_extent + m)
                partial = ctx.mad(register_cache[i + n], weight, partial)
        # (vi) write the valid results back to global memory (lines 30-31)
        out_y = block_row * p_extent + i
        mask = x_mask & (out_y < height)
        safe_y = np.minimum(out_y, height - 1)
        ctx.store_global(dst, safe_y * width + safe_x, partial, mask=mask)


#: the reusable kernel object wrapping the block function above
CONV2D_SSAM_KERNEL = Kernel(_conv2d_ssam_block, name="ssam_conv2d")


def ssam_convolve2d(image: np.ndarray, spec: ConvolutionSpec,
                    architecture: object = None, precision: object = None,
                    outputs_per_thread: Optional[int] = None,
                    block_threads: Optional[int] = None,
                    block_rows: Optional[int] = None,
                    plan: Optional[SSAMPlan] = None,
                    max_blocks: Optional[int] = None,
                    batch_size: object = "auto",
                    keep_output: bool = False) -> KernelRunResult:
    """Convolve ``image`` with ``spec`` using the SSAM kernel.

    Launch parameters left as ``None`` resolve through the default chain of
    :mod:`repro.core.launch_defaults` (paper constants P=4, B=128 for a
    direct call like this one).  A given ``plan`` fixes the part, the
    precision and the launch parameters
    (:func:`~repro.kernels.common.resolve_plan`).  Pass ``max_blocks`` to
    sample the grid when only cost estimates are needed, and ``batch_size``
    to choose the blocks per batch (or ``"replay"``).  ``keep_output=True``
    returns the (partial) output buffer even for sampled runs — the
    executed blocks' results are exactly those of a full run; unexecuted
    blocks leave zeros.
    """
    image = check_image(image)
    require_edge_boundary(spec.boundary, "the SSAM convolution kernel")
    plan = resolve_plan(plan_convolution, spec, architecture, precision, plan,
                        outputs_per_thread, block_threads, block_rows)
    arch, prec = plan.architecture, plan.precision
    height, width = image.shape
    memory, src, dst = make_device_pair(image, prec)
    weights = memory.to_device(spec.weights, name="weights", cached=True,
                               dtype=prec.numpy_dtype)
    config = plan.launch_config(width, height)
    anchor_x, anchor_y = spec.anchor
    launch = CONV2D_SSAM_KERNEL.launch(
        config,
        args=(src, dst, weights, width, height, spec.filter_width, spec.filter_height,
              plan.outputs_per_thread, anchor_x, anchor_y, plan.block_rows),
        architecture=arch,
        max_blocks=max_blocks,
        batch_size=batch_size,
    )
    output = dst.array if (max_blocks is None or keep_output) else None
    return KernelRunResult(
        name="ssam",
        output=output,
        launch=launch,
        parameters={
            "M": spec.filter_width,
            "N": spec.filter_height,
            "P": plan.outputs_per_thread,
            "B": plan.block_threads,
            "C": plan.register_cache.cache_values,
            "architecture": arch.name,
            "precision": prec.name,
        },
    )


def ssam_convolve2d_chain(image: np.ndarray, spec: ConvolutionSpec,
                          passes: int = 2,
                          architecture: object = None,
                          precision: object = None,
                          outputs_per_thread: Optional[int] = None,
                          block_threads: Optional[int] = None,
                          block_rows: Optional[int] = None,
                          fused: bool = False,
                          lead_blocks: Optional[int] = None,
                          batch_size: object = "auto",
                          plan: Optional[SSAMPlan] = None) -> KernelRunResult:
    """Apply ``spec`` ``passes`` times (e.g. a two-pass Gaussian blur).

    ``fused=False`` runs the chain the conventional way: one launch per
    pass, the intermediate image round-tripping through DRAM between them.
    ``fused=True`` runs every pass as one fused launch
    (:func:`repro.trace.fusion.fused_launch`): producer blocks stay a
    halo's worth of rows ahead of consumer blocks, the intermediates are
    held on chip, and their DRAM writes and re-reads disappear from the
    traffic counters.  Outputs are bit-identical either way.  Every pass
    launches the one plan :func:`~repro.kernels.common.resolve_plan`
    returns.
    """
    if passes < 2:
        raise ConfigurationError("a convolution chain needs at least 2 passes")
    image = check_image(image)
    require_edge_boundary(spec.boundary, "the SSAM convolution kernel")
    plan = resolve_plan(plan_convolution, spec, architecture, precision, plan,
                        outputs_per_thread, block_threads, block_rows)
    arch, prec = plan.architecture, plan.precision
    height, width = image.shape
    config = plan.launch_config(width, height)
    anchor_x, anchor_y = spec.anchor

    memory = GlobalMemory()
    src = memory.to_device(image, name="src", dtype=prec.numpy_dtype,
                           read_only=True)
    weights = memory.to_device(spec.weights, name="weights", cached=True,
                               dtype=prec.numpy_dtype)
    # intermediates of the fused pipeline never leave the cache hierarchy
    bufs = [src]
    for i in range(passes - 1):
        bufs.append(memory.allocate((height, width), prec, name=f"tmp{i}",
                                    cached=fused))
    bufs.append(memory.allocate((height, width), prec, name="dst"))

    def stage_args(i: int):
        return (bufs[i], bufs[i + 1], weights, width, height,
                spec.filter_width, spec.filter_height,
                plan.outputs_per_thread, anchor_x, anchor_y, plan.block_rows)

    if fused:
        from ..trace.fusion import FusedStage, fused_launch

        if lead_blocks is None:
            # a consumer block needs the producer rows covering its
            # bottom halo: ceil((N-1)/(R*P)) block-rows ahead, plus one
            # more block-row so the column halo is covered as well
            grid_x = config.grid_dim[0]
            halo_rows = math.ceil(
                max(0, spec.filter_height - 1)
                / (plan.outputs_per_thread * plan.block_rows))
            lead_blocks = (halo_rows + 1) * grid_x
        launch = fused_launch(
            [FusedStage(CONV2D_SSAM_KERNEL, config, stage_args(i))
             for i in range(passes)],
            architecture=arch, lead_blocks=lead_blocks)
    else:
        launch = CONV2D_SSAM_KERNEL.launch(config, stage_args(0),
                                           architecture=arch,
                                           batch_size=batch_size)
        for i in range(1, passes):
            launch = launch.merged_with(
                CONV2D_SSAM_KERNEL.launch(config, stage_args(i),
                                          architecture=arch,
                                          batch_size=batch_size))
    return KernelRunResult(
        name="ssam_chain_fused" if fused else "ssam_chain",
        output=bufs[-1].array,
        launch=launch,
        parameters={
            "M": spec.filter_width,
            "N": spec.filter_height,
            "P": plan.outputs_per_thread,
            "B": plan.block_threads,
            "passes": passes,
            "fused": fused,
            "architecture": arch.name,
            "precision": prec.name,
        },
    )


def analytic_counters(width: int, height: int, plan: SSAMPlan) -> KernelCounters:
    """Closed-form warp-instruction / traffic profile of the SSAM kernel.

    The profile mirrors :func:`_conv2d_ssam_block` instruction by
    instruction.  ``tests/test_kernels.py`` checks it against the counted
    execution on small domains, and ``tests/test_trace_counts.py`` checks
    its warp-instruction fields, as the model engine prices them, against
    the exact counts of the kernel's trace.
    """
    spec, blocking, prec = plan.problem, plan.blocking, plan.precision
    m_extent, n_extent = spec.filter_width, spec.filter_height
    p_extent = plan.outputs_per_thread
    cache_rows = blocking.cache_values
    grid_x, grid_y, _ = blocking.grid_dim(width, height)
    blocks = grid_x * grid_y
    warps_per_block = blocking.warps_per_block
    total_warps = blocks * warps_per_block

    counters = KernelCounters()
    counters.blocks_executed = blocks
    counters.warps_executed = total_warps

    # weight staging: each participating warp issues one load + one store
    # per 32 staged weights, then the block synchronises once
    staging_warp_ops = math.ceil(m_extent * n_extent / 32)
    counters.gmem_load += staging_warp_ops * blocks
    counters.smem_store += staging_warp_ops * blocks
    counters.sync += warps_per_block * blocks

    # register-cache fill: C coalesced row loads per warp
    counters.gmem_load += cache_rows * total_warps
    sectors_per_row = warp_sectors(plan.architecture, prec.itemsize)
    counters.gmem_load_transactions += (cache_rows * total_warps) * sectors_per_row
    counters.gmem_load_transactions += staging_warp_ops * blocks

    # main loop: P x M x N FMAs + broadcast weight reads, P x (M-1) shuffles
    inner = p_extent * m_extent * n_extent
    counters.fma += inner * total_warps
    counters.smem_broadcast += inner * total_warps
    counters.shfl += p_extent * (m_extent - 1) * total_warps

    # stores: P per warp (partial warps near the right edge still issue)
    counters.gmem_store += p_extent * total_warps
    counters.gmem_store_transactions += p_extent * total_warps * sectors_per_row

    # DRAM traffic: tile + halo per block (perfect intra-block reuse);
    # with R>1 the block's bands tile R*P rows, overlapping by N-1, so the
    # unique footprint is (R*P + N - 1) rows by (WarpsX*ValidX + M - 1)
    # columns — degenerating to cache_rows x (WarpCount*ValidX + M - 1)
    # at the paper's R=1
    unique_columns = blocking.warps_x * blocking.valid_outputs_x + (m_extent - 1)
    unique_rows = blocking.rows_per_block + n_extent - 1
    read_bytes_per_block = unique_rows * unique_columns * prec.itemsize
    counters.dram_read_bytes += read_bytes_per_block * blocks
    counters.dram_write_bytes += width * height * prec.itemsize
    counters.cache_read_bytes += (cache_rows * 32 * total_warps) * prec.itemsize
    counters.smem_read_bytes += inner * total_warps * 32 * prec.itemsize
    counters.smem_write_bytes += m_extent * n_extent * blocks * prec.itemsize
    return counters


def analytic_launch(width: int, height: int, plan: SSAMPlan) -> KernelRunResult:
    """Paper-scale cost estimate of the SSAM convolution under ``plan``
    without execution: the filter, the part, the precision, P, B and R are
    the plan's."""
    parameters = {
        "M": plan.problem.filter_width,
        "N": plan.problem.filter_height,
        "P": plan.outputs_per_thread,
        "B": plan.block_threads,
        "width": width,
        "height": height,
        "architecture": plan.architecture.name,
        "precision": plan.precision.name,
        "analytic": True,
    }
    return analytic_result("ssam", analytic_counters(width, height, plan),
                           plan.launch_config(width, height), plan.architecture,
                           parameters, kernel_name="ssam_conv2d_analytic")


def analytic_chain_launch(width: int, height: int, plan: SSAMPlan,
                          passes: int = 2, fused: bool = False) -> KernelRunResult:
    """Closed-form profile of :func:`ssam_convolve2d_chain`: ``passes``
    launches of :func:`analytic_launch` under ``plan``.

    Fused, the intermediates never reach DRAM: only the first stage reads
    the source image and only the last one writes its output.
    """
    if passes < 1:
        raise ConfigurationError("a convolution chain needs at least one pass")
    single = analytic_launch(width, height, plan)
    one = single.launch.counters
    counters = one.scaled(float(passes))
    if fused:
        counters.dram_read_bytes = one.dram_read_bytes
        counters.dram_write_bytes = one.dram_write_bytes
    parameters = {**single.parameters, "passes": passes, "fused": fused}
    return analytic_result("ssam", counters, single.launch.config,
                           single.launch.architecture, parameters,
                           kernel_name="ssam_conv2d_chain_analytic")

"""Convolution baselines: the libraries SSAM is compared against in Figure 4.

Each baseline re-implements, on the simulated GPU substrate, the *memory
path* of the corresponding library so that its bottleneck is the same one
the real library hits:

* :func:`npp_like_convolve2d` — one thread per output, no on-chip staging,
  every tap read through the global/L1 path (NPP's general filter kernels).
* :func:`arrayfire_like_convolve2d` — block tile + halo staged in shared
  memory, one output per thread, taps read from the scratchpad
  (``kernel::convolve2`` in ArrayFire).  Filter sizes above 16x16 are
  rejected exactly like the real library.
* :func:`halide_like_convolve2d` — the same scratchpad scheme with a small
  auto-scheduled tile and extra per-tap addressing overhead, standing in for
  Halide's generated pipeline.
* :func:`cudnn_like_convolve2d` — implicit-GEMM formulation (cuDNN); for a
  single-channel single-filter workload the GEMM runs at a small fraction of
  peak, which is why cuDNN loses on this benchmark.
* :func:`cufft_like_convolve2d` — FFT-based convolution (cuFFT): a large,
  filter-size-independent cost.

Every function returns a :class:`~repro.kernels.common.KernelRunResult`.
Each baseline has two entries: the array entry takes the image and
produces its output, and the closed-form entry (``..._analytic``) takes
``(spec, width, height)`` and costs a paper-scale domain without
executing anything.  Both build their launch configuration through one
helper, so they cannot disagree.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..convolution.spec import ConvolutionSpec
from ..dtypes import resolve_precision
from ..errors import ConfigurationError
from ..gpu.architecture import get_architecture, warp_sectors
from ..gpu.batch import BatchedBlockContext
from ..gpu.counters import KernelCounters
from ..gpu.kernel import Kernel, LaunchConfig
from ..gpu.memory import DeviceBuffer
from .cpu_reference import convolve2d_fft_reference
from ..kernels.common import (
    KernelRunResult,
    analytic_result,
    check_image,
    clamp,
    make_device_pair,
    require_edge_boundary,
)

#: ArrayFire's undocumented filter-size ceiling (Section 6.2 (i))
ARRAYFIRE_MAX_FILTER = 16


# ---------------------------------------------------------------------------
# NPP-like: naive per-output kernel, no staging
# ---------------------------------------------------------------------------

def _npp_block(ctx: BatchedBlockContext, src: DeviceBuffer, dst: DeviceBuffer,
               weights: Tuple[float, ...], width: int, height: int,
               filter_width: int, filter_height: int, anchor_x: int, anchor_y: int) -> None:
    gx = ctx.block_idx_x * ctx.block_threads + ctx.thread_idx_x
    gy = ctx.block_idx_y
    mask = gx < width
    safe_x_out = clamp(gx, 0, width - 1)
    total = ctx.zeros()
    for n in range(filter_height):
        row = clamp(gy + n - anchor_y, 0, height - 1)
        for m in range(filter_width):
            col = clamp(gx + m - anchor_x, 0, width - 1)
            value = ctx.load_global(src, row * width + col, mask=mask)
            ctx.overhead(2.0)  # per-tap address arithmetic and border predicate
            total = ctx.mad(value, ctx.full(weights[n * filter_width + m]), total)
    ctx.store_global(dst, gy * width + safe_x_out, total, mask=mask)


NPP_KERNEL = Kernel(_npp_block, name="npp_like_conv2d")


def _npp_launch(spec: ConvolutionSpec, width: int, height: int, arch, prec,
                block_threads: int):
    """Launch configuration and parameters of the NPP-like kernel."""
    config = LaunchConfig(grid_dim=(math.ceil(width / block_threads), height, 1),
                          block_threads=block_threads, registers_per_thread=32,
                          shared_bytes_per_block=0, precision=prec,
                          memory_parallelism=2.0)
    parameters = {"M": spec.filter_width, "N": spec.filter_height,
                  "B": block_threads, "architecture": arch.name,
                  "precision": prec.name}
    return config, parameters


def npp_like_convolve2d(image: np.ndarray, spec: ConvolutionSpec,
                        architecture: object = "p100", precision: object = "float32",
                        block_threads: int = 128, max_blocks: Optional[int] = None,
                        batch_size: object = "auto") -> KernelRunResult:
    """NPP-like 2-D convolution (no scratchpad, one output per thread)."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    image = check_image(image)
    require_edge_boundary(spec.boundary, "the NPP-like kernel")
    height, width = image.shape
    config, parameters = _npp_launch(spec, width, height, arch, prec, block_threads)
    _, src, dst = make_device_pair(image, prec)
    anchor_x, anchor_y = spec.anchor
    launch = NPP_KERNEL.launch(
        config,
        args=(src, dst, tuple(spec.weights.reshape(-1).tolist()), width, height,
              spec.filter_width, spec.filter_height, anchor_x, anchor_y),
        architecture=arch, max_blocks=max_blocks, batch_size=batch_size)
    output = None if max_blocks is not None else dst.array
    return KernelRunResult(name="npp_like", output=output, launch=launch,
                           parameters=parameters)


def npp_like_convolve2d_analytic(spec: ConvolutionSpec, width: int, height: int,
                                 architecture: object = "p100",
                                 precision: object = "float32",
                                 block_threads: int = 128) -> KernelRunResult:
    """Closed-form cost of :func:`npp_like_convolve2d` on a ``width x height`` image."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    config, parameters = _npp_launch(spec, width, height, arch, prec, block_threads)
    m_extent, n_extent = spec.filter_width, spec.filter_height
    blocks = config.grid_dim[0] * config.grid_dim[1]
    warps_per_block = block_threads // arch.warp_size
    total_warps = blocks * warps_per_block
    taps = m_extent * n_extent
    sectors = warp_sectors(arch, prec.itemsize)
    counters = KernelCounters(
        fma=taps * total_warps,
        misc=2.0 * taps * total_warps,
        gmem_load=taps * total_warps,
        gmem_load_transactions=taps * total_warps * (sectors + 1),
        gmem_store=total_warps,
        gmem_store_transactions=total_warps * sectors,
        dram_read_bytes=float(blocks * n_extent * (block_threads + m_extent - 1)
                              * prec.itemsize),
        dram_write_bytes=float(width * height * prec.itemsize),
        blocks_executed=blocks,
        warps_executed=total_warps,
    )
    parameters["analytic"] = True
    return analytic_result("npp_like", counters, config, arch, parameters)


# ---------------------------------------------------------------------------
# ArrayFire-like: shared-memory tile + halo, one output per thread
# ---------------------------------------------------------------------------

def _shared_block(ctx: BatchedBlockContext, src: DeviceBuffer, dst: DeviceBuffer,
                  weights: Tuple[float, ...], width: int, height: int,
                  filter_width: int, filter_height: int, anchor_x: int, anchor_y: int,
                  tile_rows: int, overhead_per_tap: float) -> None:
    tile_cols = ctx.warp_size
    threads_per_tile_row = ctx.block_threads // tile_rows
    assert threads_per_tile_row == tile_cols, "shared baseline expects 32-wide tiles"
    tx = ctx.thread_idx_x % tile_cols
    ty = ctx.thread_idx_x // tile_cols
    smem_cols = tile_cols + filter_width - 1
    smem_rows = tile_rows + filter_height - 1
    tile = ctx.alloc_shared("tile", (smem_rows, smem_cols))

    base_x = ctx.block_idx_x * tile_cols - anchor_x
    base_y = ctx.block_idx_y * tile_rows - anchor_y

    # cooperative staging of the tile + halo
    total = smem_rows * smem_cols
    tid = ctx.thread_idx_x
    for offset in range(0, total, ctx.block_threads):
        idx = offset + tid
        mask = idx < total
        safe = np.minimum(idx, total - 1)
        sy = safe // smem_cols
        sx = safe % smem_cols
        gy = clamp(base_y + sy, 0, height - 1)
        gx = clamp(base_x + sx, 0, width - 1)
        values = ctx.load_global(src, gy * width + gx, mask=mask)
        ctx.store_shared(tile, safe, values, mask=mask)
    ctx.syncthreads()

    out_x = ctx.block_idx_x * tile_cols + tx
    out_y = ctx.block_idx_y * tile_rows + ty
    mask = (out_x < width) & (out_y < height)
    total_value = ctx.zeros()
    for n in range(filter_height):
        for m in range(filter_width):
            smem_index = (ty + n) * smem_cols + (tx + m)
            value = ctx.load_shared(tile, smem_index)
            if overhead_per_tap:
                ctx.overhead(overhead_per_tap)
            total_value = ctx.mad(value, ctx.full(weights[n * filter_width + m]), total_value)
    ctx.syncthreads()
    safe_idx = clamp(out_y, 0, height - 1) * width + clamp(out_x, 0, width - 1)
    ctx.store_global(dst, safe_idx, total_value, mask=mask)


SHARED_KERNEL = Kernel(_shared_block, name="shared_conv2d")


def _shared_launch(label: str, spec: ConvolutionSpec, width: int, height: int,
                   arch, prec, tile_rows: int, enforce_limit: bool):
    """Launch configuration and parameters of a shared-memory tiled kernel."""
    if enforce_limit and max(spec.filter_width, spec.filter_height) > ARRAYFIRE_MAX_FILTER:
        raise ConfigurationError(
            f"{label} supports filters up to {ARRAYFIRE_MAX_FILTER}x{ARRAYFIRE_MAX_FILTER} "
            f"(got {spec.filter_width}x{spec.filter_height})"
        )
    smem_rows = tile_rows + spec.filter_height - 1
    smem_cols = 32 + spec.filter_width - 1
    config = LaunchConfig(grid_dim=(math.ceil(width / 32), math.ceil(height / tile_rows), 1),
                          block_threads=32 * tile_rows, registers_per_thread=40,
                          shared_bytes_per_block=smem_rows * smem_cols * prec.itemsize,
                          precision=prec, memory_parallelism=3.0)
    parameters = {"M": spec.filter_width, "N": spec.filter_height,
                  "tile_rows": tile_rows, "architecture": arch.name,
                  "precision": prec.name}
    return config, parameters


def _shared_like_convolve2d(label: str, image, spec, architecture, precision,
                            tile_rows, overhead_per_tap, max_blocks,
                            enforce_limit: bool, batch_size: object = "auto"):
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    image = check_image(image)
    height, width = image.shape
    config, parameters = _shared_launch(label, spec, width, height, arch, prec,
                                        tile_rows, enforce_limit)
    require_edge_boundary(spec.boundary, f"the {label} kernel")
    _, src, dst = make_device_pair(image, prec)
    anchor_x, anchor_y = spec.anchor
    launch = SHARED_KERNEL.launch(
        config,
        args=(src, dst, tuple(spec.weights.reshape(-1).tolist()), width, height,
              spec.filter_width, spec.filter_height, anchor_x, anchor_y, tile_rows,
              overhead_per_tap),
        architecture=arch, max_blocks=max_blocks, batch_size=batch_size)
    output = None if max_blocks is not None else dst.array
    return KernelRunResult(name=label, output=output, launch=launch,
                           parameters=parameters)


def _shared_like_analytic(label: str, spec, width, height, architecture, precision,
                          tile_rows, overhead_per_tap, enforce_limit: bool):
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    config, parameters = _shared_launch(label, spec, width, height, arch, prec,
                                        tile_rows, enforce_limit)
    block_threads = config.block_threads
    blocks = config.grid_dim[0] * config.grid_dim[1]
    warps_per_block = block_threads // arch.warp_size
    total_warps = blocks * warps_per_block
    taps = spec.filter_width * spec.filter_height
    staged = (tile_rows + spec.filter_height - 1) * (32 + spec.filter_width - 1)
    staging_iters = math.ceil(staged / block_threads)
    sectors = warp_sectors(arch, prec.itemsize)
    counters = KernelCounters(
        fma=taps * total_warps,
        misc=overhead_per_tap * taps * total_warps,
        smem_load=taps * total_warps,
        smem_store=staging_iters * warps_per_block * blocks,
        gmem_load=staging_iters * warps_per_block * blocks,
        gmem_load_transactions=staging_iters * warps_per_block * blocks * (sectors + 1),
        gmem_store=total_warps,
        gmem_store_transactions=total_warps * sectors,
        sync=2.0 * warps_per_block * blocks,
        dram_read_bytes=float(blocks * staged * prec.itemsize),
        dram_write_bytes=float(width * height * prec.itemsize),
        blocks_executed=blocks,
        warps_executed=total_warps,
    )
    parameters["analytic"] = True
    return analytic_result(label, counters, config, arch, parameters)


def arrayfire_like_convolve2d(image: np.ndarray, spec: ConvolutionSpec,
                              architecture: object = "p100", precision: object = "float32",
                              tile_rows: int = 8, max_blocks: Optional[int] = None,
                              batch_size: object = "auto") -> KernelRunResult:
    """ArrayFire-like shared-memory tiled convolution (16x16 filter ceiling)."""
    return _shared_like_convolve2d("arrayfire_like", image, spec, architecture, precision,
                                   tile_rows, 0.0, max_blocks, enforce_limit=True,
                                   batch_size=batch_size)


def arrayfire_like_convolve2d_analytic(spec: ConvolutionSpec, width: int, height: int,
                                       architecture: object = "p100",
                                       precision: object = "float32",
                                       tile_rows: int = 8) -> KernelRunResult:
    """Closed-form cost of :func:`arrayfire_like_convolve2d`."""
    return _shared_like_analytic("arrayfire_like", spec, width, height, architecture,
                                 precision, tile_rows, 0.0, enforce_limit=True)


def halide_like_convolve2d(image: np.ndarray, spec: ConvolutionSpec,
                           architecture: object = "p100", precision: object = "float32",
                           tile_rows: int = 4, max_blocks: Optional[int] = None,
                           batch_size: object = "auto") -> KernelRunResult:
    """Halide-auto-schedule-like tiled convolution (smaller tile, generic indexing)."""
    return _shared_like_convolve2d("halide_like", image, spec, architecture, precision,
                                   tile_rows, 2.0, max_blocks, enforce_limit=False,
                                   batch_size=batch_size)


def halide_like_convolve2d_analytic(spec: ConvolutionSpec, width: int, height: int,
                                    architecture: object = "p100",
                                    precision: object = "float32",
                                    tile_rows: int = 4) -> KernelRunResult:
    """Closed-form cost of :func:`halide_like_convolve2d`."""
    return _shared_like_analytic("halide_like", spec, width, height, architecture,
                                 precision, tile_rows, 2.0, enforce_limit=False)


# ---------------------------------------------------------------------------
# cuDNN-like: implicit GEMM
# ---------------------------------------------------------------------------

#: fraction of peak FMA throughput an implicit GEMM reaches for a
#: single-channel, single-filter convolution (tiny GEMM K dimension)
CUDNN_SINGLE_CHANNEL_EFFICIENCY = 0.18


def cudnn_like_convolve2d(image: np.ndarray, spec: ConvolutionSpec,
                          architecture: object = "p100",
                          precision: object = "float32") -> KernelRunResult:
    """cuDNN-like implicit-GEMM convolution for a single channel and filter.

    Functional output is computed on the host with the im2col x GEMM
    formulation (numerically identical to the direct form); the cost is
    that of :func:`cudnn_like_convolve2d_analytic`.
    """
    image = check_image(image)
    height, width = image.shape
    result = cudnn_like_convolve2d_analytic(spec, width, height, architecture, precision)
    result.output = spec.reference(image, precision=resolve_precision(precision))
    return result


def cudnn_like_convolve2d_analytic(spec: ConvolutionSpec, width: int, height: int,
                                   architecture: object = "p100",
                                   precision: object = "float32") -> KernelRunResult:
    """Closed-form cost of the cuDNN-like convolution.

    The GEMM FLOPs are charged at the low efficiency such a skinny GEMM
    achieves, plus the im2col-style gather traffic.
    """
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    taps = spec.taps
    outputs = width * height
    warp_fma = outputs * taps / 32.0 / CUDNN_SINGLE_CHANNEL_EFFICIENCY
    counters = KernelCounters(
        fma=warp_fma,
        gmem_load=outputs * taps / 32.0,
        gmem_load_transactions=outputs * taps / 32.0,
        gmem_store=outputs / 32.0,
        gmem_store_transactions=outputs / 32.0,
        dram_read_bytes=float(2.0 * outputs * prec.itemsize),
        dram_write_bytes=float(outputs * prec.itemsize),
        blocks_executed=math.ceil(outputs / 256),
        warps_executed=math.ceil(outputs / 32),
    )
    config = LaunchConfig(grid_dim=(math.ceil(outputs / 256), 1, 1), block_threads=256,
                         registers_per_thread=64, shared_bytes_per_block=32 * 1024,
                         precision=prec, memory_parallelism=4.0)
    parameters = {"M": spec.filter_width, "N": spec.filter_height,
                  "architecture": arch.name, "precision": prec.name,
                  "gemm_efficiency": CUDNN_SINGLE_CHANNEL_EFFICIENCY}
    return analytic_result("cudnn_like", counters, config, arch, parameters)


# ---------------------------------------------------------------------------
# cuFFT-like: FFT convolution, cost independent of the filter size
# ---------------------------------------------------------------------------

#: published pipeline constants measured in the paper for an 8192^2 image (ms)
CUFFT_PAPER_MILLISECONDS = {"pascal": 353.0, "volta": 349.0}


def cufft_like_convolve2d(image: np.ndarray, spec: ConvolutionSpec,
                          architecture: object = "p100",
                          precision: object = "float32") -> KernelRunResult:
    """cuFFT-like convolution: forward FFTs, pointwise multiply, inverse FFT.

    The output is the host FFT convolution; the cost is that of
    :func:`cufft_like_convolve2d_analytic`.
    """
    image = check_image(image)
    height, width = image.shape
    result = cufft_like_convolve2d_analytic(spec, width, height, architecture, precision)
    result.output = convolve2d_fft_reference(image, spec)
    return result


def cufft_like_convolve2d_analytic(spec: ConvolutionSpec, width: int, height: int,
                                   architecture: object = "p100",
                                   precision: object = "float32") -> KernelRunResult:
    """Closed-form cost of the cuFFT-like convolution.

    The cost model combines the FFT FLOP count and pass traffic with the
    pipeline constant the paper reports (353 ms / 349 ms for 8192^2 on
    P100/V100), scaled by problem size — the property Figure 4 relies on is
    only that this cost is flat in the filter size.
    """
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    outputs = width * height
    log_term = max(1.0, math.log2(max(outputs, 2)))
    # three 2-D transforms (two forward, one inverse) + pointwise multiply
    flops = 3 * 2.5 * outputs * log_term * 2 + 6 * outputs
    warp_fma = flops / 2.0 / 32.0
    passes = 12.0  # row/col passes of the three transforms, read + write
    complex_bytes = 2 * prec.itemsize
    counters = KernelCounters(
        fma=warp_fma,
        gmem_load=passes / 2 * outputs / 32.0,
        gmem_store=passes / 2 * outputs / 32.0,
        dram_read_bytes=passes / 2 * outputs * complex_bytes,
        dram_write_bytes=passes / 2 * outputs * complex_bytes,
        blocks_executed=math.ceil(outputs / 256),
        warps_executed=math.ceil(outputs / 32),
    )
    config = LaunchConfig(grid_dim=(math.ceil(outputs / 256), 1, 1), block_threads=256,
                         registers_per_thread=40, shared_bytes_per_block=0,
                         precision=prec, memory_parallelism=8.0)
    result = analytic_result("cufft_like", counters, config, arch,
                             {"architecture": arch.name, "precision": prec.name})
    # fold in the measured pipeline constant, scaled to the problem size
    paper_ms = CUFFT_PAPER_MILLISECONDS.get(arch.generation)
    if paper_ms is not None:
        import dataclasses

        scale = outputs / float(8192 * 8192)
        floor_seconds = paper_ms * 1e-3 * scale
        modelled = result.launch.timing
        if modelled.total_seconds < floor_seconds:
            result.launch._timing = dataclasses.replace(
                modelled, total_seconds=floor_seconds, bottleneck="fft_pipeline")
    return result

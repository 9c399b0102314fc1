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

NPP, ArrayFire and Halide are direct kernels: a convolution is one step
whose taps are its M x N filter, and they run the naive and shared schemes
of :mod:`.direct`; this module supplies only their constants.

Every function returns a :class:`~repro.kernels.common.KernelRunResult`.
Each baseline has two entries: the array entry takes the image and
produces its output, and the closed-form entry (``..._analytic``) takes
``(spec, width, height)`` and costs a paper-scale domain without
executing anything.  Both build their launch configuration through one
helper, so they cannot disagree.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..convolution.spec import ConvolutionSpec
from ..dtypes import resolve_precision
from ..errors import ConfigurationError
from ..gpu.architecture import get_architecture
from ..gpu.counters import KernelCounters
from ..gpu.kernel import Kernel, LaunchConfig
from . import direct
from .cpu_reference import convolve2d_fft_reference
from ..kernels.common import (
    KernelRunResult,
    analytic_result,
    check_image,
    require_edge_boundary,
    run_jacobi,
)

#: ArrayFire's undocumented filter-size ceiling (Section 6.2 (i))
ARRAYFIRE_MAX_FILTER = 16

NPP_KERNEL = Kernel(direct.naive_block, name="npp_like_conv2d")
SHARED_KERNEL = Kernel(direct.shared_block, name="shared_conv2d")


# ---------------------------------------------------------------------------
# NPP-like: naive per-output kernel, no staging
# ---------------------------------------------------------------------------

#: per-tap address arithmetic and border predicate of NPP's general filter
NPP_TAP_OVERHEAD = 2.0


def _npp_launch(spec: ConvolutionSpec, width: int, height: int, arch, prec,
                block_threads: int):
    """Launch configuration and parameters of the NPP-like kernel."""
    config = direct.naive_launch(width, height, 1, prec, block_threads, registers=32,
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
    args = (direct.convolution_taps(spec), width, height, 1, NPP_TAP_OVERHEAD)
    return run_jacobi(NPP_KERNEL, image, config, args, 1, arch, "npp_like", parameters,
                      max_blocks=max_blocks, batch_size=batch_size)


def npp_like_convolve2d_analytic(spec: ConvolutionSpec, width: int, height: int,
                                 architecture: object = "p100",
                                 precision: object = "float32",
                                 block_threads: int = 128) -> KernelRunResult:
    """Closed-form cost of :func:`npp_like_convolve2d` on a ``width x height`` image."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    config, parameters = _npp_launch(spec, width, height, arch, prec, block_threads)
    counters = direct.naive_counters(config, direct.convolution_taps(spec), arch,
                                     width, height, 1, 1, NPP_TAP_OVERHEAD)
    parameters["analytic"] = True
    return analytic_result("npp_like", counters, config, arch, parameters)


# ---------------------------------------------------------------------------
# ArrayFire-like and Halide-like: shared-memory tile + halo, one output per thread
# ---------------------------------------------------------------------------

def _shared_launch(label: str, spec: ConvolutionSpec, width: int, height: int,
                   arch, prec, tile_rows: int, enforce_limit: bool):
    """Launch configuration and parameters of a shared-memory tiled kernel."""
    if enforce_limit and max(spec.filter_width, spec.filter_height) > ARRAYFIRE_MAX_FILTER:
        raise ConfigurationError(
            f"{label} supports filters up to {ARRAYFIRE_MAX_FILTER}x{ARRAYFIRE_MAX_FILTER} "
            f"(got {spec.filter_width}x{spec.filter_height})"
        )
    config = direct.shared_launch(direct.convolution_taps(spec), width, height, prec,
                                  tile_rows, registers=40)
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
    args = (direct.convolution_taps(spec), width, height, tile_rows, overhead_per_tap)
    return run_jacobi(SHARED_KERNEL, image, config, args, 1, arch, label, parameters,
                      max_blocks=max_blocks, batch_size=batch_size)


def _shared_like_analytic(label: str, spec, width, height, architecture, precision,
                          tile_rows, overhead_per_tap, enforce_limit: bool):
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    config, parameters = _shared_launch(label, spec, width, height, arch, prec,
                                        tile_rows, enforce_limit)
    counters = direct.shared_counters(config, direct.convolution_taps(spec), arch,
                                      width, height, tile_rows, 1, overhead_per_tap)
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

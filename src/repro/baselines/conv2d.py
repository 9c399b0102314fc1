"""Convolution cost models: the Figure 4 competitors that run no kernel.

* :func:`cudnn_like_convolve2d` — implicit-GEMM formulation (cuDNN); for a
  single-channel single-filter workload the GEMM runs at a small fraction of
  peak, which is why cuDNN loses on this benchmark.
* :func:`cufft_like_convolve2d` — FFT-based convolution (cuFFT): a large,
  filter-size-independent cost.

Each has an array entry, whose output is computed on the host, and a
closed-form entry (``..._analytic``) that takes ``(spec, width, height)``.
The direct competitors (NPP, ArrayFire, Halide) are rows of
:data:`repro.baselines.direct.BASELINES`.
"""

from __future__ import annotations

import math

import numpy as np

from ..convolution.spec import ConvolutionSpec
from ..dtypes import resolve_precision
from ..gpu.architecture import get_architecture
from ..gpu.counters import KernelCounters
from ..gpu.kernel import LaunchConfig
from .cpu_reference import convolve2d_fft_reference
from ..kernels.common import KernelRunResult, analytic_result, check_image


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

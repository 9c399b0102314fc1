"""Baseline implementations of the libraries and codes SSAM is compared with."""

from .conv2d import (
    ARRAYFIRE_MAX_FILTER,
    arrayfire_like_convolve2d,
    arrayfire_like_convolve2d_analytic,
    cudnn_like_convolve2d,
    cudnn_like_convolve2d_analytic,
    cufft_like_convolve2d,
    cufft_like_convolve2d_analytic,
    halide_like_convolve2d,
    halide_like_convolve2d_analytic,
    npp_like_convolve2d,
    npp_like_convolve2d_analytic,
)
from .cpu_reference import (
    convolve2d_fft_reference,
    convolve2d_reference,
    scan_reference,
    stencil_reference,
)
from .stencil2d import (
    halide_like_stencil2d,
    halide_like_stencil2d_analytic,
    original_stencil2d,
    original_stencil2d_analytic,
    ppcg_like_stencil2d,
    ppcg_like_stencil2d_analytic,
    reordered_stencil2d,
    unrolled_stencil2d,
)
from .stencil3d import original_stencil3d, original_stencil3d_analytic, shared_stencil3d
from .temporal import (
    PUBLISHED_REFERENCES,
    published_reference,
    ssam_temporal_stencil,
    stencilgen_like_stencil,
)

__all__ = [
    "ARRAYFIRE_MAX_FILTER",
    "arrayfire_like_convolve2d",
    "arrayfire_like_convolve2d_analytic",
    "cudnn_like_convolve2d",
    "cudnn_like_convolve2d_analytic",
    "cufft_like_convolve2d",
    "cufft_like_convolve2d_analytic",
    "halide_like_convolve2d",
    "halide_like_convolve2d_analytic",
    "npp_like_convolve2d",
    "npp_like_convolve2d_analytic",
    "convolve2d_fft_reference",
    "convolve2d_reference",
    "scan_reference",
    "stencil_reference",
    "halide_like_stencil2d",
    "halide_like_stencil2d_analytic",
    "original_stencil2d",
    "original_stencil2d_analytic",
    "ppcg_like_stencil2d",
    "ppcg_like_stencil2d_analytic",
    "reordered_stencil2d",
    "unrolled_stencil2d",
    "original_stencil3d",
    "original_stencil3d_analytic",
    "shared_stencil3d",
    "PUBLISHED_REFERENCES",
    "published_reference",
    "ssam_temporal_stencil",
    "stencilgen_like_stencil",
]

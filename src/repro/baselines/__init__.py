"""Baseline implementations of the libraries and codes SSAM is compared with.

The direct baselines (NPP, ArrayFire, Halide, the "original" codes, ppcg)
are rows of :data:`repro.baselines.direct.BASELINES`; the other modules
hold the cost models that run no kernel.
"""

from .conv2d import (
    cudnn_like_convolve2d,
    cudnn_like_convolve2d_analytic,
    cufft_like_convolve2d,
    cufft_like_convolve2d_analytic,
)
from .cpu_reference import (
    convolve2d_fft_reference,
    convolve2d_reference,
    scan_reference,
    stencil_reference,
)
from .direct import ARRAYFIRE_MAX_FILTER
from .stencil2d import reordered_stencil2d, unrolled_stencil2d
from .stencil3d import shared_stencil3d
from .temporal import (
    PUBLISHED_REFERENCES,
    published_reference,
    ssam_temporal_stencil,
    stencilgen_like_stencil,
)

__all__ = [
    "ARRAYFIRE_MAX_FILTER",
    "cudnn_like_convolve2d",
    "cudnn_like_convolve2d_analytic",
    "cufft_like_convolve2d",
    "cufft_like_convolve2d_analytic",
    "convolve2d_fft_reference",
    "convolve2d_reference",
    "scan_reference",
    "stencil_reference",
    "reordered_stencil2d",
    "unrolled_stencil2d",
    "shared_stencil3d",
    "PUBLISHED_REFERENCES",
    "published_reference",
    "ssam_temporal_stencil",
    "stencilgen_like_stencil",
]

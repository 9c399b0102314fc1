"""Host (CPU) reference implementations.

These are the ground truth every GPU-substrate kernel — SSAM and baseline
alike — is validated against.  They use NumPy/SciPy directly and perform no
cost accounting.
"""

from __future__ import annotations

import numpy as np

from ..convolution.spec import ConvolutionSpec
from ..stencils.spec import StencilSpec


def convolve2d_reference(image: np.ndarray, spec: ConvolutionSpec) -> np.ndarray:
    """Reference 2-D convolution (delegates to the spec's definition)."""
    return spec.reference(image)


def convolve2d_fft_reference(image: np.ndarray, spec: ConvolutionSpec) -> np.ndarray:
    """FFT-based 2-D convolution (the cuFFT-equivalent math, on the host).

    Matches :meth:`ConvolutionSpec.reference` for interior pixels; the FFT
    path uses zero padding rather than edge replication at the boundary,
    exactly like a cuFFT-based pipeline without explicit border handling.
    """
    from scipy import signal  # imported here: nothing else needs scipy at start-up

    image64 = np.asarray(image, dtype=np.float64)
    result = signal.fftconvolve(image64, spec.weights[::-1, ::-1], mode="same")
    return result.astype(image.dtype)


def stencil_reference(grid: np.ndarray, spec: StencilSpec, iterations: int = 1) -> np.ndarray:
    """Reference iterative stencil application."""
    return spec.reference(grid, iterations=iterations)


def scan_reference(sequence: np.ndarray) -> np.ndarray:
    """Reference inclusive prefix sum."""
    return np.cumsum(np.asarray(sequence, dtype=np.float64)).astype(
        np.asarray(sequence).dtype)

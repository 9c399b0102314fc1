"""Convolution problem specifications (Section 2.1 of the paper).

The paper's convention is followed throughout: a filter has size ``(M, N)``
where **M is the width** (x extent, the direction along the warp lanes) and
**N is the height** (y extent, the direction cached in each thread's
registers).  The operation computed is the cross-correlation form used by
image-processing libraries (NPP, ArrayFire):

``out(x, y) = sum_{m, n} in(x + m - ax, y + n - ay) * w(n, m)``

with a replicate ("nearest") boundary, anchored at the filter centre by
default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..dtypes import resolve_precision
from ..errors import SpecificationError
from ..serialization import array_digest, stable_digest

#: supported boundary handling modes (NumPy pad mode names)
BOUNDARY_MODES = ("edge", "constant", "wrap", "reflect")


@dataclass(frozen=True)
class ConvolutionSpec:
    """A 2-D convolution problem: filter weights plus boundary handling.

    Attributes
    ----------
    weights:
        2-D array of shape ``(N, M)`` = (height, width), row ``n`` holding
        the weights applied to input row ``y + n - anchor_y``.
    anchor:
        ``(anchor_x, anchor_y)`` position of the output point inside the
        filter footprint; defaults to the centre.
    boundary:
        One of :data:`BOUNDARY_MODES`; ``"edge"`` replicates the border
        pixel like NPP's *Replicate* kernels.
    """

    weights: np.ndarray
    anchor: Optional[Tuple[int, int]] = None
    boundary: str = "edge"
    name: str = "conv2d"

    def __post_init__(self) -> None:
        # always the spec's own read-only copy: a view of the caller's array
        # would change under the cached fingerprint when the caller writes
        # to it (the caller's array and its flags stay as they were)
        weights = np.array(self.weights, dtype=np.float64)
        weights.flags.writeable = False
        if weights.ndim != 2:
            raise SpecificationError("convolution weights must be a 2-D array")
        if weights.size == 0:
            raise SpecificationError("convolution weights must be non-empty")
        if self.boundary not in BOUNDARY_MODES:
            raise SpecificationError(
                f"unknown boundary mode {self.boundary!r}; expected one of {BOUNDARY_MODES}"
            )
        object.__setattr__(self, "weights", weights)
        if self.anchor is None:
            object.__setattr__(self, "anchor", (weights.shape[1] // 2, weights.shape[0] // 2))
        ax, ay = self.anchor
        if not (0 <= ax < weights.shape[1] and 0 <= ay < weights.shape[0]):
            raise SpecificationError(f"anchor {self.anchor} outside the filter footprint")

    # -- identity ---------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable description of this spec (weights included)."""
        return {
            "kind": "conv2d",
            "name": self.name,
            "boundary": self.boundary,
            "anchor": list(self.anchor),
            "shape": [self.filter_height, self.filter_width],
            "weights_digest": array_digest(self.weights),
        }

    def fingerprint(self) -> str:
        """Stable content hash used by plan memoisation and the simulation
        cache; two specs with identical weights/anchor/boundary share it.
        Computed once per instance (specs are immutable)."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = stable_digest(self.to_dict())
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConvolutionSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    # -- geometry ---------------------------------------------------------
    @property
    def filter_width(self) -> int:
        """M — the filter extent along x (warp-lane direction)."""
        return int(self.weights.shape[1])

    @property
    def filter_height(self) -> int:
        """N — the filter extent along y (register-cache direction)."""
        return int(self.weights.shape[0])

    @property
    def shape(self) -> Tuple[int, int]:
        """``(M, N)`` as written in the paper."""
        return (self.filter_width, self.filter_height)

    @property
    def taps(self) -> int:
        """Number of filter coefficients (M x N)."""
        return int(self.weights.size)

    @property
    def flops_per_output(self) -> int:
        """FLOPs per output point (one FMA per tap = 2 FLOPs, minus one add)."""
        return 2 * self.taps - 1

    def weight_column(self, m: int) -> np.ndarray:
        """Column ``w_m`` of Figure 2a (all N weights for one x offset)."""
        return self.weights[:, m]

    # -- reference implementation -------------------------------------------
    def reference(self, image: np.ndarray, precision: object = None) -> np.ndarray:
        """Ground-truth output computed on the host with NumPy.

        ``out(y, x) = sum_{n, m} in(y + n - ay, x + m - ax) * w[n, m]`` with
        the spec's boundary handling; used by every correctness test in the
        repository.
        """
        if precision is None:
            dtype = image.dtype
        else:
            dtype = resolve_precision(precision).numpy_dtype
        image64 = np.asarray(image, dtype=np.float64)
        if image64.ndim != 2:
            raise SpecificationError("2-D convolution reference expects a 2-D image")
        height, width = image64.shape
        ax, ay = self.anchor
        pad_top, pad_bottom = ay, self.filter_height - 1 - ay
        pad_left, pad_right = ax, self.filter_width - 1 - ax
        pad_kwargs = {"mode": self.boundary}
        if self.boundary == "constant":
            pad_kwargs["constant_values"] = 0.0
        padded = np.pad(image64, ((pad_top, pad_bottom), (pad_left, pad_right)), **pad_kwargs)
        result = np.zeros_like(image64)
        for n in range(self.filter_height):
            for m in range(self.filter_width):
                result += self.weights[n, m] * padded[n:n + height, m:m + width]
        return result.astype(dtype)

    # -- constructors ----------------------------------------------------------
    @classmethod
    def box(cls, width: int, height: Optional[int] = None, boundary: str = "edge") -> "ConvolutionSpec":
        """Normalised box (mean) filter of the given size."""
        height = width if height is None else height
        if width <= 0 or height <= 0:
            raise SpecificationError("filter dimensions must be positive")
        weights = np.full((height, width), 1.0 / (width * height))
        return cls(weights=weights, boundary=boundary, name=f"box{width}x{height}")

    @classmethod
    def gaussian(cls, width: int, height: Optional[int] = None, sigma: Optional[float] = None,
                 boundary: str = "edge") -> "ConvolutionSpec":
        """Separable Gaussian filter sampled on a ``height x width`` grid."""
        height = width if height is None else height
        if width <= 0 or height <= 0:
            raise SpecificationError("filter dimensions must be positive")
        sigma_x = sigma if sigma is not None else max(width / 4.0, 0.5)
        sigma_y = sigma if sigma is not None else max(height / 4.0, 0.5)
        xs = np.arange(width) - (width - 1) / 2.0
        ys = np.arange(height) - (height - 1) / 2.0
        gx = np.exp(-0.5 * (xs / sigma_x) ** 2)
        gy = np.exp(-0.5 * (ys / sigma_y) ** 2)
        weights = np.outer(gy, gx)
        weights /= weights.sum()
        return cls(weights=weights, boundary=boundary, name=f"gauss{width}x{height}")

    @classmethod
    def random(cls, width: int, height: Optional[int] = None, seed: int = 0,
               boundary: str = "edge") -> "ConvolutionSpec":
        """Random filter (used by the evaluation sweeps and property tests)."""
        height = width if height is None else height
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal((height, width))
        return cls(weights=weights, boundary=boundary, name=f"rand{width}x{height}")

    @classmethod
    def sobel_x(cls, boundary: str = "edge") -> "ConvolutionSpec":
        """3x3 horizontal Sobel edge-detection filter."""
        weights = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
        return cls(weights=weights, boundary=boundary, name="sobel_x")

    @classmethod
    def sharpen(cls, boundary: str = "edge") -> "ConvolutionSpec":
        """3x3 sharpening filter."""
        weights = np.array([[0.0, -1.0, 0.0], [-1.0, 5.0, -1.0], [0.0, -1.0, 0.0]])
        return cls(weights=weights, boundary=boundary, name="sharpen")

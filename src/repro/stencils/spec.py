"""Stencil specifications for 2-D and 3-D structured-grid computations.

A stencil is a weighted sum of neighbouring cells applied iteratively to a
grid (Section 2.2).  Specifications are geometry-only objects: the same
:class:`StencilSpec` drives the SSAM kernels, every baseline, the CPU
reference and the analytical traffic profiles, guaranteeing that all of them
compute the same operator.

Boundary handling follows the common benchmark convention used by the codes
compared in the paper: out-of-domain neighbours are clamped to the nearest
in-domain cell ("edge"/replicate).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..dtypes import resolve_precision
from ..errors import SpecificationError
from ..serialization import stable_digest


@dataclass(frozen=True)
class StencilPoint:
    """One tap of a stencil: an offset and its coefficient."""

    dx: int
    dy: int
    dz: int = 0
    coefficient: float = 1.0

    @property
    def offset(self) -> Tuple[int, int, int]:
        return (self.dx, self.dy, self.dz)


@dataclass(frozen=True)
class StencilSpec:
    """A stencil operator on a 2-D or 3-D structured grid.

    Attributes
    ----------
    name:
        Benchmark name (e.g. ``"2d5pt"``).
    points:
        The taps.  Offsets are relative to the updated cell.
    dims:
        2 or 3.
    flops_per_point:
        FLOPs per updated cell.  Defaults to ``2 * len(points) - 1`` (one
        FMA per tap); Table 3 overrides it for benchmarks whose original
        source performs extra arithmetic.
    """

    name: str
    points: Tuple[StencilPoint, ...]
    dims: int
    flops_per_point: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dims not in (2, 3):
            raise SpecificationError("stencils must be 2-D or 3-D")
        if not self.points:
            raise SpecificationError("a stencil needs at least one point")
        if self.dims == 2 and any(p.dz != 0 for p in self.points):
            raise SpecificationError("2-D stencil has a tap with dz != 0")
        offsets = [p.offset for p in self.points]
        if len(set(offsets)) != len(offsets):
            raise SpecificationError(f"duplicate offsets in stencil {self.name!r}")
        if self.flops_per_point is None:
            object.__setattr__(self, "flops_per_point", 2 * len(self.points) - 1)

    # -- identity ----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description of this stencil."""
        return {
            "kind": "stencil",
            "name": self.name,
            "dims": self.dims,
            "flops_per_point": self.flops_per_point,
            "points": [[p.dx, p.dy, p.dz, p.coefficient] for p in self.points],
        }

    def fingerprint(self) -> str:
        """Stable content hash used by the simulation cache.  Computed once
        per instance (specs are immutable)."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = stable_digest(self.to_dict())
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # -- geometry ----------------------------------------------------------
    @property
    def num_points(self) -> int:
        """Number of taps."""
        return len(self.points)

    @property
    def order(self) -> int:
        """Stencil order k: the maximum absolute offset along any axis."""
        return max(self.reach)

    def _ranges(self) -> Tuple[Tuple[int, int], ...]:
        """(min, max) offset along x, y and z: one scan of the taps,
        computed once per instance (specs are immutable)."""
        cached = self.__dict__.get("_tap_ranges")
        if cached is None:
            cached = tuple((min(axis), max(axis))
                           for axis in zip(*(p.offset for p in self.points)))
            object.__setattr__(self, "_tap_ranges", cached)
        return cached

    @property
    def reach(self) -> Tuple[int, int, int]:
        """Maximum absolute reach along (x, y, z)."""
        return tuple(max(-lo, hi) for lo, hi in self._ranges())

    @property
    def x_range(self) -> Tuple[int, int]:
        """(min dx, max dx) — the lane-direction footprint."""
        return self._ranges()[0]

    @property
    def y_range(self) -> Tuple[int, int]:
        """(min dy, max dy) — the register-cache-direction footprint."""
        return self._ranges()[1]

    @property
    def z_range(self) -> Tuple[int, int]:
        """(min dz, max dz)."""
        return self._ranges()[2]

    @property
    def footprint_width(self) -> int:
        """M — the x extent of the footprint (maps to the warp direction)."""
        lo, hi = self.x_range
        return hi - lo + 1

    @property
    def footprint_height(self) -> int:
        """N — the y extent of the footprint (maps to the register cache)."""
        lo, hi = self.y_range
        return hi - lo + 1

    @property
    def footprint_depth(self) -> int:
        """Z extent of the footprint (1 for 2-D stencils)."""
        lo, hi = self.z_range
        return hi - lo + 1

    @property
    def is_star(self) -> bool:
        """True when every tap lies on a coordinate axis."""
        return all(
            (p.dx != 0) + (p.dy != 0) + (p.dz != 0) <= 1 for p in self.points
        )

    def columns(self) -> Mapping[int, Tuple[StencilPoint, ...]]:
        """Taps grouped by their x offset, sorted (Listing 2's coefficient groups).

        For 3-D stencils only the in-plane (dz == 0) taps are grouped; the
        out-of-plane taps are handled by the inter-warp path (Section 4.9).
        Computed once per instance and read-only (specs are immutable).
        """
        cached = self.__dict__.get("_columns")
        if cached is None:
            groups: Dict[int, List[StencilPoint]] = {}
            for point in self.points:
                if point.dz != 0:
                    continue
                groups.setdefault(point.dx, []).append(point)
            cached = {dx: tuple(sorted(pts, key=lambda p: p.dy))
                      for dx, pts in sorted(groups.items())}
            object.__setattr__(self, "_columns", cached)
        return MappingProxyType(cached)

    def out_of_plane_points(self) -> List[StencilPoint]:
        """Taps with dz != 0 (require inter-warp communication in SSAM)."""
        return [p for p in self.points if p.dz != 0]

    def coefficient_array(self) -> np.ndarray:
        """Dense (depth, height, width) coefficient array of the footprint."""
        (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = self.x_range, self.y_range, self.z_range
        array = np.zeros((z_hi - z_lo + 1, y_hi - y_lo + 1, x_hi - x_lo + 1))
        for point in self.points:
            array[point.dz - z_lo, point.dy - y_lo, point.dx - x_lo] = point.coefficient
        return array

    # -- reference implementation --------------------------------------------
    def reference(self, grid: np.ndarray, iterations: int = 1,
                  precision: object = None) -> np.ndarray:
        """Apply the stencil ``iterations`` times on the host (ground truth)."""
        if precision is None:
            dtype = grid.dtype
        else:
            dtype = resolve_precision(precision).numpy_dtype
        current = np.asarray(grid, dtype=np.float64)
        if current.ndim != self.dims:
            raise SpecificationError(
                f"stencil {self.name!r} is {self.dims}-D but the grid is {current.ndim}-D"
            )
        for _ in range(iterations):
            current = self._apply_once(current)
        return current.astype(dtype)

    def _apply_once(self, grid: np.ndarray) -> np.ndarray:
        (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = self.x_range, self.y_range, self.z_range
        if self.dims == 2:
            height, width = grid.shape
            padded = np.pad(grid, ((max(0, -y_lo), max(0, y_hi)),
                                   (max(0, -x_lo), max(0, x_hi))), mode="edge")
            result = np.zeros_like(grid)
            for point in self.points:
                y0 = point.dy + max(0, -y_lo)
                x0 = point.dx + max(0, -x_lo)
                result += point.coefficient * padded[y0:y0 + height, x0:x0 + width]
            return result
        depth, height, width = grid.shape
        padded = np.pad(grid, ((max(0, -z_lo), max(0, z_hi)),
                               (max(0, -y_lo), max(0, y_hi)),
                               (max(0, -x_lo), max(0, x_hi))), mode="edge")
        result = np.zeros_like(grid)
        for point in self.points:
            z0 = point.dz + max(0, -z_lo)
            y0 = point.dy + max(0, -y_lo)
            x0 = point.dx + max(0, -x_lo)
            result += point.coefficient * padded[z0:z0 + depth, y0:y0 + height, x0:x0 + width]
        return result

    # -- conversions ----------------------------------------------------------
    def to_convolution(self):
        """Express a 2-D stencil as an equivalent convolution specification."""
        from ..convolution.spec import ConvolutionSpec

        if self.dims != 2:
            raise SpecificationError("only 2-D stencils convert to 2-D convolutions")
        (x_lo, _), (y_lo, _) = self.x_range, self.y_range
        weights = self.coefficient_array()[0]
        anchor = (-x_lo, -y_lo)
        return ConvolutionSpec(weights=weights, anchor=anchor, boundary="edge",
                               name=f"{self.name}-as-conv")


# ---------------------------------------------------------------------------
# constructors used by the Table 3 catalog and by tests
# ---------------------------------------------------------------------------

def star2d(radius: int, center_coefficient: float = 0.5,
           neighbor_coefficient: Optional[float] = None, name: Optional[str] = None,
           flops_per_point: Optional[int] = None) -> StencilSpec:
    """Star-shaped 2-D stencil of the given radius (4*radius + 1 points)."""
    if radius < 1:
        raise SpecificationError("radius must be >= 1")
    if neighbor_coefficient is None:
        neighbor_coefficient = 0.5 / (4 * radius)
    points = [StencilPoint(0, 0, 0, center_coefficient)]
    for r in range(1, radius + 1):
        for dx, dy in ((r, 0), (-r, 0), (0, r), (0, -r)):
            points.append(StencilPoint(dx, dy, 0, neighbor_coefficient / r))
    return StencilSpec(name=name or f"2d{4 * radius + 1}pt-star", points=tuple(points),
                       dims=2, flops_per_point=flops_per_point)


def box2d(radius_x: int, radius_y: Optional[int] = None, name: Optional[str] = None,
          flops_per_point: Optional[int] = None,
          asymmetric: bool = False) -> StencilSpec:
    """Dense box-shaped 2-D stencil.

    ``asymmetric=True`` drops the most negative row/column to produce
    even-extent footprints such as the 8x8 used by the ``2d64pt`` benchmark.
    """
    radius_y = radius_x if radius_y is None else radius_y
    x_lo = -radius_x + (1 if asymmetric else 0)
    y_lo = -radius_y + (1 if asymmetric else 0)
    points = []
    count = (radius_x - x_lo + 1) * (radius_y - y_lo + 1)
    for dy in range(y_lo, radius_y + 1):
        for dx in range(x_lo, radius_x + 1):
            weight = 1.0 / count if (dx, dy) != (0, 0) else 1.0 / count + 0.25
            points.append(StencilPoint(dx, dy, 0, weight))
    return StencilSpec(name=name or f"2dbox{count}", points=tuple(points), dims=2,
                       flops_per_point=flops_per_point)


def star3d(radius: int, name: Optional[str] = None,
           flops_per_point: Optional[int] = None) -> StencilSpec:
    """Star-shaped 3-D stencil (6*radius + 1 points)."""
    if radius < 1:
        raise SpecificationError("radius must be >= 1")
    neighbor = 0.5 / (6 * radius)
    points = [StencilPoint(0, 0, 0, 0.5)]
    for r in range(1, radius + 1):
        for dx, dy, dz in ((r, 0, 0), (-r, 0, 0), (0, r, 0), (0, -r, 0), (0, 0, r), (0, 0, -r)):
            points.append(StencilPoint(dx, dy, dz, neighbor / r))
    return StencilSpec(name=name or f"3d{6 * radius + 1}pt-star", points=tuple(points),
                       dims=3, flops_per_point=flops_per_point)


def box3d(radius: int, name: Optional[str] = None,
          flops_per_point: Optional[int] = None) -> StencilSpec:
    """Dense box-shaped 3-D stencil ((2r+1)^3 points)."""
    if radius < 1:
        raise SpecificationError("radius must be >= 1")
    extent = 2 * radius + 1
    count = extent ** 3
    points = []
    for dz in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                weight = 1.0 / count if (dx, dy, dz) != (0, 0, 0) else 1.0 / count + 0.25
                points.append(StencilPoint(dx, dy, dz, weight))
    return StencilSpec(name=name or f"3dbox{count}", points=tuple(points), dims=3,
                       flops_per_point=flops_per_point)


def diffusion2d(name: str = "2d5pt") -> StencilSpec:
    """The first-order 2-D diffusion (Jacobi) 5-point stencil of Figure 1a."""
    west, north, current, south, east = 0.125, 0.125, 0.5, 0.125, 0.125
    points = (
        StencilPoint(-1, 0, 0, west),
        StencilPoint(0, -1, 0, north),
        StencilPoint(0, 0, 0, current),
        StencilPoint(0, 1, 0, south),
        StencilPoint(1, 0, 0, east),
    )
    return StencilSpec(name=name, points=points, dims=2, flops_per_point=9)


def diffusion3d(name: str = "3d7pt") -> StencilSpec:
    """The 3-D diffusion 7-point stencil of Figure 1b."""
    center = 0.4
    neighbor = 0.1
    points = (
        StencilPoint(0, 0, 0, center),
        StencilPoint(-1, 0, 0, neighbor),
        StencilPoint(1, 0, 0, neighbor),
        StencilPoint(0, -1, 0, neighbor),
        StencilPoint(0, 1, 0, neighbor),
        StencilPoint(0, 0, -1, neighbor),
        StencilPoint(0, 0, 1, neighbor),
    )
    return StencilSpec(name=name, points=points, dims=3, flops_per_point=13)

"""Overlapped (halo) blocking — Sections 4.5, 4.7 and 5.3 of the paper.

Each warp caches a ``WarpSize x C`` tile of the input but only produces a
``(WarpSize - M + 1) x P`` tile of valid outputs; neighbouring warp tiles
overlap by the filter footprint so no intra-block communication (and hence
no warp divergence) is ever needed.  This module computes the tile geometry,
the grid dimensions of Section 4.7, the halo ratio ``HR_rc`` of Section 5.3
and the resulting redundant-load factors used by the analytic traffic
profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from ..dtypes import resolve_precision
from ..errors import ConfigurationError
from .register_cache import RegisterCachePlan


@dataclass(frozen=True)
class OverlappedBlocking:
    """Geometry of the overlapped blocking scheme for a 2-D SSAM kernel.

    Attributes
    ----------
    filter_width:
        M — footprint extent along the warp-lane (x) direction.
    filter_height:
        N — footprint extent along the register-cache (y) direction.
    outputs_per_thread:
        P — outputs per thread produced by the sliding window.
    block_threads:
        B — threads per CUDA block (must be a warp-size multiple).
    block_rows:
        R — warp rows per block.  The classic scheme (R=1) lays every warp
        of a block along x; R>1 splits the block's warps into R bands that
        cover R consecutive P-row strips, trading x-extent for y-extent
        (per-dimension block shapes).  Must divide the block's warp count.
    """

    filter_width: int
    filter_height: int
    outputs_per_thread: int
    block_threads: int = 128
    warp_size: int = 32
    block_rows: int = 1

    def __post_init__(self) -> None:
        if self.filter_width < 1 or self.filter_height < 1:
            raise ConfigurationError("filter extents must be >= 1")
        if self.filter_width > self.warp_size:
            raise ConfigurationError(
                f"filter width M={self.filter_width} exceeds the warp size "
                f"{self.warp_size}; a single warp cannot produce any valid output"
            )
        if self.outputs_per_thread < 1:
            raise ConfigurationError("outputs per thread P must be >= 1")
        if self.block_threads % self.warp_size != 0:
            raise ConfigurationError("block size must be a multiple of the warp size")
        if self.block_rows < 1:
            raise ConfigurationError("block rows R must be >= 1")
        if (self.block_threads // self.warp_size) % self.block_rows != 0:
            raise ConfigurationError(
                f"block rows R={self.block_rows} must divide the block's "
                f"warp count {self.block_threads // self.warp_size}")

    # -- warp tile geometry ----------------------------------------------------
    @property
    def cache_values(self) -> int:
        """C = N + P - 1 rows cached per thread."""
        return self.filter_height + self.outputs_per_thread - 1

    @property
    def valid_outputs_x(self) -> int:
        """Valid output columns per warp: WarpSize - M + 1."""
        return self.warp_size - self.filter_width + 1

    @property
    def valid_outputs_y(self) -> int:
        """Valid output rows per warp: P."""
        return self.outputs_per_thread

    @property
    def valid_outputs_per_warp(self) -> int:
        """Valid outputs per warp tile: (WarpSize - M + 1) x P (Figure 3)."""
        return self.valid_outputs_x * self.valid_outputs_y

    @property
    def cached_elements_per_warp(self) -> int:
        """Elements cached per warp tile: WarpSize x C."""
        return self.warp_size * self.cache_values

    @property
    def warps_per_block(self) -> int:
        """WarpCount = B / WarpSize (Section 4.7)."""
        return self.block_threads // self.warp_size

    @property
    def warps_x(self) -> int:
        """Warps laid along x per band: WarpCount / R (= WarpCount at R=1)."""
        return self.warps_per_block // self.block_rows

    @property
    def rows_per_block(self) -> int:
        """Output rows one block covers: R x P."""
        return self.block_rows * self.outputs_per_thread

    # -- halo analysis (Section 5.3) -------------------------------------------
    @property
    def halo_ratio(self) -> float:
        """HR_rc = (S*C - (S-M)*(C-N)) / (S*C) with S = WarpSize."""
        s, c, m, n = self.warp_size, self.cache_values, self.filter_width, self.filter_height
        return (s * c - (s - m) * (c - n)) / (s * c)

    @property
    def halo_ratio_upper_bound(self) -> float:
        """The bound HR_rc < (S*N + C*M) / (S*C) derived in Section 5.3."""
        s, c, m, n = self.warp_size, self.cache_values, self.filter_width, self.filter_height
        return (s * n + c * m) / (s * c)

    @property
    def load_redundancy(self) -> float:
        """Elements loaded per valid output (= 1 with no halo)."""
        return self.cached_elements_per_warp / self.valid_outputs_per_warp

    @property
    def compute_redundancy_x(self) -> float:
        """Lane-direction over-compute factor: WarpSize / (WarpSize - M + 1)."""
        return self.warp_size / self.valid_outputs_x

    # -- grid geometry (Section 4.7) --------------------------------------------
    def grid_dim(self, width: int, height: int) -> Tuple[int, int, int]:
        """CUDA grid dimensions for a ``width x height`` output domain.

        ``GridDim.x = ceil(W / (WarpsX * (WarpSize - M + 1)))`` and
        ``GridDim.y = ceil(H / (R * P))`` — with the paper's R=1 this is
        exactly Section 4.7.
        """
        if width <= 0 or height <= 0:
            raise ConfigurationError("domain dimensions must be positive")
        grid_x = math.ceil(width / (self.warps_x * self.valid_outputs_x))
        grid_y = math.ceil(height / self.rows_per_block)
        return (grid_x, grid_y, 1)

    def total_blocks(self, width: int, height: int) -> int:
        """Number of thread blocks needed to cover the domain."""
        gx, gy, gz = self.grid_dim(width, height)
        return gx * gy * gz

    def loaded_elements(self, width: int, height: int) -> int:
        """Total elements loaded from global memory including halos."""
        warps = self.total_blocks(width, height) * self.warps_per_block
        return warps * self.cached_elements_per_warp

    def traffic_summary(self, width: int, height: int,
                        precision: object = "float32") -> Dict[str, float]:
        """Bytes moved for one pass over a ``width x height`` domain."""
        prec = resolve_precision(precision)
        loaded = self.loaded_elements(width, height)
        outputs = width * height
        return {
            "read_bytes": float(loaded * prec.itemsize),
            "write_bytes": float(outputs * prec.itemsize),
            "read_amplification": loaded / outputs,
            "halo_ratio": self.halo_ratio,
        }

    # -- constructors --------------------------------------------------------------
    @classmethod
    def from_plan(cls, plan: RegisterCachePlan, filter_width: int,
                  block_threads: int = 128,
                  block_rows: int = 1) -> "OverlappedBlocking":
        """Blocking geometry consistent with a register-cache plan."""
        return cls(
            filter_width=filter_width,
            filter_height=plan.filter_height,
            outputs_per_thread=plan.outputs_per_thread,
            block_threads=block_threads,
            warp_size=plan.warp_size,
            block_rows=block_rows,
        )


@dataclass(frozen=True)
class SharedMemoryBlocking:
    """Tile geometry of a conventional shared-memory (scratchpad) kernel.

    Used by the Section 5.3 comparison: the scratchpad tile is shared by
    the whole block (not just one warp), so its halo ratio ``HR_smc`` is
    much smaller than ``HR_rc`` — the paper's point is that the
    register-cache method wins despite the larger halo.
    """

    tile_width: int
    tile_height: int
    halo_x: int
    halo_y: int

    def __post_init__(self) -> None:
        if self.tile_width <= 0 or self.tile_height <= 0:
            raise ConfigurationError("tile extents must be positive")
        if self.halo_x < 0 or self.halo_y < 0:
            raise ConfigurationError("halo extents cannot be negative")

    @property
    def cached_elements(self) -> int:
        """Elements staged in shared memory per block (tile + halo)."""
        return (self.tile_width + self.halo_x) * (self.tile_height + self.halo_y)

    @property
    def valid_outputs(self) -> int:
        """Valid outputs per block."""
        return self.tile_width * self.tile_height

    @property
    def halo_ratio(self) -> float:
        """HR_smc: fraction of the staged tile that is halo."""
        return 1.0 - self.valid_outputs / self.cached_elements

    @property
    def load_redundancy(self) -> float:
        """Elements loaded per valid output."""
        return self.cached_elements / self.valid_outputs

    def shared_bytes(self, precision: object = "float32") -> int:
        """Shared-memory bytes needed per block for the staged tile."""
        prec = resolve_precision(precision)
        return self.cached_elements * prec.itemsize

"""Global-memory buffers and traffic accounting for the simulated GPU.

Data movement policy
--------------------
The timing model charges DRAM for the *unique* cache lines touched by each
thread block (perfect intra-block reuse through L1/L2) and assumes no reuse
between blocks.  This is exactly the halo/redundancy analysis of Section 5.3
of the paper: a blocked kernel pays for its tile plus its halo once per
block, regardless of how the accesses are scheduled inside the block.
Per-warp coalescing is still tracked (number of 128-byte sectors per warp
load/store) because uncoalesced access patterns increase the number of
transactions the load/store units must issue.

Write traffic is charged directly per store (write-through, no write
combining across stores), so stores do not go through the unique-line
tracker; only reads do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..dtypes import resolve_precision
from ..errors import LaunchError, SimulationError
from .simt import grouped_warp_counts

_buffer_ids = itertools.count(1)


@dataclass
class DeviceBuffer:
    """A linear global-memory allocation backed by a NumPy array.

    The array may be multi-dimensional for convenience; all traffic
    accounting happens on the flattened view.  ``cached=True`` marks small
    constant-like buffers (filter weights, coefficients) whose reads are
    assumed to hit in L2/constant cache and therefore generate no DRAM
    traffic after the first block.
    """

    array: np.ndarray
    name: str = ""
    cached: bool = False
    buffer_id: int = field(default_factory=lambda: next(_buffer_ids))

    def __post_init__(self) -> None:
        if not isinstance(self.array, np.ndarray):
            raise LaunchError("DeviceBuffer requires a NumPy array")
        if not self.name:
            self.name = f"buffer{self.buffer_id}"

    # -- host/device movement ------------------------------------------------
    def to_host(self) -> np.ndarray:
        """Copy the buffer contents back to the host."""
        return np.array(self.array, copy=True)

    def fill(self, value: float) -> None:
        """Fill the buffer with a constant (device-side memset)."""
        self.array.fill(value)

    # -- geometry -------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.array.shape

    @property
    def size(self) -> int:
        return int(self.array.size)

    @property
    def dtype(self) -> np.dtype:
        return self.array.dtype

    @property
    def itemsize(self) -> int:
        return int(self.array.itemsize)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    @property
    def flat(self) -> np.ndarray:
        """Flat (1-D) view used for index-based access."""
        return self.array.reshape(-1)


class GlobalMemory:
    """Device global-memory manager.

    Allocates :class:`DeviceBuffer` objects, moves data to/from the host and
    tracks the total footprint so experiments can check they fit in the 16 GB
    of the evaluated Tesla parts.
    """

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        self.capacity_bytes = capacity_bytes
        self._buffers: Dict[int, DeviceBuffer] = {}

    @property
    def allocated_bytes(self) -> int:
        """Total bytes currently allocated on the simulated device."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def allocate(self, shape: Tuple[int, ...], precision: object = "float32",
                 name: str = "", fill: Optional[float] = None) -> DeviceBuffer:
        """Allocate a zero-initialised device buffer."""
        prec = resolve_precision(precision)
        array = np.zeros(shape, dtype=prec.numpy_dtype)
        if fill is not None:
            array.fill(fill)
        return self._register(DeviceBuffer(array=array, name=name))

    def to_device(self, host_array: np.ndarray, name: str = "",
                  cached: bool = False) -> DeviceBuffer:
        """Copy a host array into a new device buffer."""
        array = np.array(host_array, copy=True)
        return self._register(DeviceBuffer(array=array, name=name, cached=cached))

    def free(self, buffer: DeviceBuffer) -> None:
        """Release a device buffer."""
        self._buffers.pop(buffer.buffer_id, None)

    def _register(self, buffer: DeviceBuffer) -> DeviceBuffer:
        new_total = self.allocated_bytes + buffer.nbytes
        if self.capacity_bytes is not None and new_total > self.capacity_bytes:
            raise LaunchError(
                f"device out of memory: need {new_total} bytes, "
                f"capacity {self.capacity_bytes} bytes"
            )
        self._buffers[buffer.buffer_id] = buffer
        return buffer


_SENTINEL = np.iinfo(np.int64).max


def rowwise_sorted_firsts(values: np.ndarray,
                          mask: Optional[np.ndarray] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Sort each row and flag the first occurrence of every distinct value.

    The one segmented-unique primitive shared by every vectorised
    accounting path (coalescing sectors, unique-line DRAM traffic, bank
    conflicts): returns ``(work, firsts)`` where ``work`` is the row-sorted
    copy of ``values`` with masked-off entries replaced by the int64-max
    sentinel, and ``firsts`` marks, per row, the first occurrence of each
    distinct non-sentinel value — so ``firsts.sum(axis=1)`` is the per-row
    unique count and ``work[firsts]`` are the unique values themselves.
    Sentinel entries already present in ``values`` are treated as padding.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 2:
        raise SimulationError("rowwise_sorted_firsts expects a 2-D matrix")
    work = np.where(mask, values, _SENTINEL) if mask is not None else np.array(values)
    work.sort(axis=1)
    valid = work != _SENTINEL
    firsts = np.empty(work.shape, dtype=bool)
    if work.shape[1]:
        firsts[:, 0] = valid[:, 0]
        firsts[:, 1:] = valid[:, 1:] & (work[:, 1:] != work[:, :-1])
    return work, firsts


def rowwise_unique_counts(values: np.ndarray,
                          mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Number of distinct values among the active entries of each row.

    Vectorised equivalent of ``np.unique(row[mask]).size`` applied row by
    row: one sort over the whole matrix instead of a Python loop, which is
    what lets the batched execution engine compute per-warp coalescing and
    per-block unique-line traffic for a whole batch of blocks at once.

    Parameters
    ----------
    values:
        Integer matrix of shape ``(rows, width)``.  Values must be
        non-negative (the engine passes cache-line / element indices).
    mask:
        Optional boolean matrix of the same shape; ``False`` entries are
        excluded.  Rows with no active entry count 0.
    """
    _, firsts = rowwise_sorted_firsts(values, mask)
    return firsts.sum(axis=1)


def rowwise_unique_pad(values: np.ndarray,
                       mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-row sorted unique values, right-padded with a sentinel.

    Entries equal to ``np.iinfo(np.int64).max`` (and entries excluded by
    ``mask``) are treated as padding on input, so the output of one call can
    be concatenated with fresh data and fed back in — the compaction step of
    the batched traffic tracker's bounded-memory accumulation.
    """
    work, firsts = rowwise_sorted_firsts(values, mask)
    rows = work.shape[0]
    if rows == 0 or work.shape[1] == 0:
        return np.full((rows, 1), _SENTINEL, dtype=np.int64)
    padded_width = max(1, int(firsts.sum(axis=1).max()))
    out = np.full((rows, padded_width), _SENTINEL, dtype=np.int64)
    positions = np.cumsum(firsts, axis=1) - 1
    row_ids = np.broadcast_to(np.arange(rows)[:, None], work.shape)
    out[row_ids[firsts], positions[firsts]] = work[firsts]
    return out


class GlobalAccessCounts(NamedTuple):
    """What one counted global load or store adds to the counters."""

    #: counter deltas (``gmem_load``/``gmem_store``, its transactions,
    #: ``divergent_branches`` and the byte field of the access)
    counters: Dict[str, float]
    #: cache-line sectors each warp touches, one entry per warp
    sectors: np.ndarray
    #: cache line of every lane (the DRAM traffic record of a load)
    lines: np.ndarray
    #: number of active lanes
    active: int


def global_access_counts(flat_indices: np.ndarray, mask: Optional[np.ndarray],
                         itemsize: int, line_bytes: int, warp_size: int, *,
                         store: bool, cached: bool) -> GlobalAccessCounts:
    """The counter rule of one global-memory access, shared by every engine.

    ``flat_indices`` (and ``mask``, ``None`` meaning every lane is active)
    hold one entry per lane, lanes last: one block's ``(threads,)`` row or
    a batch's ``(blocks, threads)`` matrix.  A warp issues the access when
    any lane is active and diverges when its lanes disagree; it pays one
    transaction per distinct cache line its active lanes touch.  Loads
    count cache read bytes; stores count DRAM write bytes unless the
    buffer is ``cached``.  Unique-line DRAM *read* traffic spans many
    accesses, so it is left to the caller (from ``lines``).
    """
    lines = (flat_indices * itemsize) // line_bytes
    if mask is None:
        warps, divergent, active = lines.size // warp_size, 0, lines.size
        warp_mask = None
    else:
        warp_mask = np.ascontiguousarray(mask).reshape(-1, warp_size)
        warps, divergent = grouped_warp_counts(warp_mask, warp_size)
        active = int(np.count_nonzero(warp_mask))
    sectors = rowwise_unique_counts(
        np.ascontiguousarray(lines).reshape(-1, warp_size), warp_mask)
    nbytes = float(active * itemsize)
    if store:
        counters = {"gmem_store": warps, "divergent_branches": divergent,
                    "gmem_store_transactions": int(sectors.sum())}
        if not cached:
            counters["dram_write_bytes"] = nbytes
    else:
        counters = {"gmem_load": warps, "divergent_branches": divergent,
                    "gmem_load_transactions": int(sectors.sum()),
                    "cache_read_bytes": nbytes}
    return GlobalAccessCounts(counters, sectors, lines, active)


def linear_index_2d(row: np.ndarray, col: np.ndarray, width: int) -> np.ndarray:
    """Row-major flattened index for 2-D coordinates."""
    return row.astype(np.int64) * int(width) + col.astype(np.int64)


def linear_index_3d(z: np.ndarray, y: np.ndarray, x: np.ndarray,
                    height: int, width: int) -> np.ndarray:
    """Row-major flattened index for 3-D coordinates (z-major)."""
    return (z.astype(np.int64) * int(height) + y.astype(np.int64)) * int(width) + x.astype(np.int64)

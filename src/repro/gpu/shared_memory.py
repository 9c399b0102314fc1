"""Per-block scratchpad (CUDA shared memory) with bank-conflict accounting.

Shared memory on every evaluated architecture has 32 banks of 4 bytes; a
warp access that maps two or more *distinct* addresses to the same bank is
serialised (its cost multiplies by the conflict degree), while all lanes
reading the *same* address is a broadcast and costs a single access.
The SSAM convolution kernel deliberately uses the broadcast pattern for
filter weights (Section 4.6), which is why the distinction is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..dtypes import resolve_precision
from ..errors import ResourceExhaustedError, SimulationError
from .memory import rowwise_sorted_firsts


@dataclass
class SharedArray:
    """A named shared-memory allocation replicated across a batch of blocks.

    ``array`` has shape ``(num_blocks, *shape)``: every block of the batch
    owns an independent copy, exactly as each block owns its own scratchpad
    on hardware.
    """

    name: str
    array: np.ndarray
    offset_bytes: int

    @property
    def num_blocks(self) -> int:
        return int(self.array.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes of one block's copy (what counts against the capacity)."""
        return int(self.array.nbytes // max(1, self.num_blocks))

    @property
    def flat(self) -> np.ndarray:
        """Per-block flat view, shape ``(num_blocks, size)``."""
        return self.array.reshape(self.array.shape[0], -1)


def bank_conflict_degree(flat_indices: np.ndarray, itemsize: int,
                         banks: int = 32, bank_bytes: int = 4) -> int:
    """Worst-case serialisation factor of one warp shared-memory access.

    Parameters
    ----------
    flat_indices:
        Element indices accessed by the active lanes of one warp.
    itemsize:
        Element size in bytes (8-byte accesses occupy two banks each).

    Returns
    -------
    int
        1 for conflict-free or broadcast accesses, otherwise the maximum
        number of distinct addresses that fall into one bank.
    """
    if flat_indices.size == 0:
        return 0
    addresses = flat_indices.astype(np.int64) * itemsize
    unique_addresses = np.unique(addresses)
    if unique_addresses.size == 1:
        return 1  # broadcast
    words = unique_addresses // bank_bytes
    degree = 1
    # 8-byte elements touch two consecutive banks; account for both words.
    words_per_element = max(1, itemsize // bank_bytes)
    for sub in range(words_per_element):
        bank_ids = (words + sub) % banks
        counts = np.bincount(bank_ids.astype(np.int64), minlength=banks)
        degree = max(degree, int(counts.max()))
    return degree


def bank_conflict_profile(flat_indices: np.ndarray, itemsize: int,
                          banks: int = 32, bank_bytes: int = 4,
                          mask: Optional[np.ndarray] = None
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`bank_conflict_degree` over a matrix of warp accesses.

    Each row of ``flat_indices`` holds the element indices of one warp-level
    shared-memory access; ``mask`` (same shape) marks the active lanes.

    Returns
    -------
    (degrees, broadcasts, active_counts):
        Per-row arrays.  ``degrees[r]`` equals
        ``bank_conflict_degree(row_r_active, itemsize, banks, bank_bytes)``
        (0 for rows with no active lane), ``broadcasts[r]`` is True when all
        active lanes of the row read the same address, and
        ``active_counts[r]`` is the number of active lanes.
    """
    idx = np.asarray(flat_indices, dtype=np.int64)
    if idx.ndim != 2:
        raise SimulationError("bank_conflict_profile expects a 2-D matrix")
    rows, width = idx.shape
    if rows == 0 or width == 0:
        empty = np.zeros(rows, dtype=np.int64)
        return empty, empty.astype(bool), empty
    if mask is None:
        mask = np.ones(idx.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
    active_counts = mask.sum(axis=1)
    addresses, uniq = rowwise_sorted_firsts(idx * itemsize, mask)
    unique_counts = uniq.sum(axis=1)
    broadcasts = unique_counts == 1
    degrees = (unique_counts > 0).astype(np.int64)
    # count distinct addresses per (row, bank); 8-byte elements occupy two
    # consecutive banks, hence the sub-word loop (as in bank_conflict_degree)
    words = addresses // bank_bytes
    row_ids = np.broadcast_to(np.arange(rows)[:, None], addresses.shape)
    words_per_element = max(1, itemsize // bank_bytes)
    for sub in range(words_per_element):
        bank_ids = (words + sub) % banks
        keys = (row_ids * banks + bank_ids)[uniq]
        counts = np.bincount(keys, minlength=rows * banks).reshape(rows, banks)
        degrees = np.maximum(degrees, counts.max(axis=1))
    return degrees, broadcasts, active_counts


class SharedAccessCounts(NamedTuple):
    """What one counted shared-memory load or store adds to the counters."""

    #: counter deltas (``smem_load``/``smem_store``, ``smem_broadcast``,
    #: ``smem_bank_conflicts`` and the byte field of the access)
    counters: Dict[str, float]
    #: conflict degree of every warp that pays a bank access (broadcast
    #: reads and fully inactive warps pay none)
    degrees: np.ndarray


def shared_access_counts(flat_indices: np.ndarray, mask: Optional[np.ndarray],
                         itemsize: int, banks: int, bank_bytes: int,
                         warp_size: int, *, store: bool,
                         uniform: bool) -> SharedAccessCounts:
    """The counter rule of one shared-memory access, shared by every engine.

    Indices and ``mask`` (``None``: all lanes active) are laid out lanes
    last, as for :func:`repro.gpu.memory.global_access_counts`.  A read
    whose active lanes all hit one address is a broadcast; any other
    access by a warp with an active lane costs its bank-conflict degree in
    accesses, of which ``degree - 1`` are conflicts.  ``uniform`` marks a
    warp-uniform index (a scalar or per-block column), a broadcast by
    construction, so the conflict analysis is skipped.
    """
    warp_mask = (None if mask is None
                 else np.ascontiguousarray(mask).reshape(-1, warp_size))
    if uniform:
        if warp_mask is None:
            active_counts = np.full(flat_indices.size // warp_size, warp_size,
                                    dtype=np.int64)
        else:
            active_counts = warp_mask.sum(axis=1)
        broadcasts = active_counts > 0
        degrees = broadcasts.astype(np.int64)
    else:
        degrees, broadcasts, active_counts = bank_conflict_profile(
            np.ascontiguousarray(flat_indices).reshape(-1, warp_size),
            itemsize, banks, bank_bytes, warp_mask)
    occupied = active_counts > 0
    nbytes = float(int(active_counts.sum()) * itemsize)
    if store:
        paid = degrees[occupied]
        counters = {"smem_store": int(paid.sum()),
                    "smem_bank_conflicts": int((paid - 1).sum()),
                    "smem_write_bytes": nbytes}
    else:
        paid = degrees[occupied & ~broadcasts]
        counters = {"smem_broadcast": int(broadcasts.sum()),
                    "smem_load": int(paid.sum()),
                    "smem_bank_conflicts": int((paid - 1).sum()),
                    "smem_read_bytes": nbytes}
    return SharedAccessCounts(counters, paid)


class SharedMemory:
    """Shared-memory arenas for a batch of thread blocks.

    Capacity is checked per block; each named array is allocated once for
    the batch with a leading block axis.
    """

    def __init__(self, capacity_bytes: int, num_blocks: int = 1,
                 banks: int = 32, bank_bytes: int = 4) -> None:
        self.capacity_bytes = int(capacity_bytes)
        self.num_blocks = int(num_blocks)
        self.banks = banks
        self.bank_bytes = bank_bytes
        self._arrays: Dict[str, SharedArray] = {}
        self._used_bytes = 0

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated in each block's scratchpad."""
        return self._used_bytes

    def allocate(self, name: str, shape: Tuple[int, ...],
                 precision: object = "float32") -> SharedArray:
        """Allocate a named shared array (like ``__shared__ T name[...]``)
        in every block of the batch."""
        if name in self._arrays:
            raise SimulationError(f"shared array {name!r} already allocated")
        prec = resolve_precision(precision)
        per_block = int(np.prod(shape, dtype=np.int64)) * prec.itemsize
        if self._used_bytes + per_block > self.capacity_bytes:
            raise ResourceExhaustedError(
                f"shared memory exhausted: {self._used_bytes + per_block} bytes "
                f"requested, {self.capacity_bytes} available per block"
            )
        array = np.zeros((self.num_blocks,) + tuple(shape), dtype=prec.numpy_dtype)
        shared = SharedArray(name=name, array=array, offset_bytes=self._used_bytes)
        self._arrays[name] = shared
        self._used_bytes += per_block
        return shared

    def get(self, name: str) -> SharedArray:
        """Look up a previously allocated shared array."""
        try:
            return self._arrays[name]
        except KeyError as exc:
            raise SimulationError(f"shared array {name!r} was never allocated") from exc

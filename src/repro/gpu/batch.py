"""The SIMT programming surface kernels are written against.

A :class:`BatchedBlockContext` executes a *batch* of CUDA thread blocks as
one vectorized pass.  Kernels are ordinary Python functions
``kernel(ctx, *args)`` in which every "per-thread" value is a NumPy array of
shape ``(num_blocks, block_threads)`` (structure-of-arrays, one row per
block) and the block indices are ``(num_blocks, 1)`` column vectors, so
per-block scalars broadcast along the leading axis.  A batch of one block is
an ordinary batch.  The context provides

* thread/block/lane indices,
* counted global-memory loads and stores (with per-warp coalescing and
  per-block unique-line DRAM accounting),
* counted shared-memory allocation and access (with bank conflicts),
* warp shuffles restricted to 32-lane groups, and
* counted arithmetic intrinsics (``mad``, ``add``, ``mul``) so the timing
  model sees the same instruction mix the GPU would execute.

Using the intrinsics is what makes a kernel's cost observable; plain NumPy
arithmetic still computes correctly but is invisible to the profiler, so the
library's kernels always go through the intrinsics.

All accounting is vectorized, and is independent of how the grid is split
into batches (the differential tests assert bit-identical outputs and
counters between a batch of one block and larger batches):

* each memory access is counted by the one per-access rule that replay
  and the static verifier share:
  :func:`repro.gpu.memory.global_access_counts` (active and divergent
  warps, per-warp line transactions, bytes) and
  :func:`repro.gpu.shared_memory.shared_access_counts` (broadcasts versus
  bank-conflict degrees, bytes);
* per-block unique-line DRAM accounting: a segmented unique over the batch
  (:class:`BatchedTrafficTracker`).

Functional scatter semantics do not depend on the batch size either:
batches are flattened in block order, so when two blocks store to the same
location the higher block index wins.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dtypes import Precision, resolve_precision
from ..errors import SimulationError
from .architecture import GPUArchitecture
from .check import active_race_checker
from .counters import KernelCounters
from .memory import (
    _SENTINEL,
    DeviceBuffer,
    global_access_counts,
    rowwise_unique_pad,
)
from .shared_memory import SharedArray, SharedMemory, shared_access_counts
from . import warp as warp_ops


class BatchedTrafficTracker:
    """Per-block unique-line DRAM read accounting for a batch of blocks.

    Records the ``(batch, lanes)`` cache-line matrices of every counted load
    and computes each block's unique-line count with segmented sorts.

    Memory is bounded: whenever a buffer's pending matrices exceed
    ``compact_columns`` columns they are folded into a sentinel-padded
    per-block unique-line matrix (:func:`~repro.gpu.memory.rowwise_unique_pad`),
    whose width is the per-block working set (tile + halo lines) rather than
    the total number of recorded accesses.  Kernels with many counted loads
    per block therefore hold O(batch * (compact_columns + unique_lines))
    instead of O(batch * threads * loads).

    Compaction *work* is bounded too.  Folding into a single compact matrix
    would re-sort the whole accumulated working set on every fold — on an
    adversarial pattern where every load touches fresh lines (zero reuse,
    so the working set never stops growing) that is quadratic in the number
    of recorded columns.  Instead, folds append *segments* that merge
    size-tiered, LSM style: a segment is only merged into its neighbour
    when it has grown to a comparable width, so each recorded column is
    re-sorted O(log columns) times and total compaction work is
    O(columns * log columns) with O(log columns) live segments.
    ``compaction_work`` counts the cells every fold/merge sorts — the
    regression benchmark pins its growth on the adversarial pattern.
    """

    #: pending columns per buffer before folding into the compact form
    COMPACT_COLUMNS = 1024
    #: a segment at least this many times wider than the one folded after
    #: it is left alone; smaller neighbours merge (amortization factor)
    MERGE_FACTOR = 2

    def __init__(self, num_blocks: int, line_bytes: int = 128,
                 compact_columns: Optional[int] = None) -> None:
        self.num_blocks = int(num_blocks)
        self.line_bytes = line_bytes
        self.compact_columns = int(compact_columns or self.COMPACT_COLUMNS)
        self._pending: Dict[int, List[np.ndarray]] = {}
        self._pending_columns: Dict[int, int] = {}
        #: per-buffer compacted segments, widest first
        self._segments: Dict[int, List[np.ndarray]] = {}
        #: total cells (rows x columns) sorted by folds and merges
        self.compaction_work: int = 0

    def record_read(self, buffer: DeviceBuffer, lines: np.ndarray,
                    mask: Optional[np.ndarray]) -> None:
        """Record one load's line matrix (``mask`` marks the active lanes)."""
        if buffer.cached:
            return
        chunk = np.where(mask, lines, _SENTINEL) if mask is not None \
            else np.ascontiguousarray(lines)
        key = buffer.buffer_id
        self._pending.setdefault(key, []).append(chunk)
        self._pending_columns[key] = self._pending_columns.get(key, 0) + chunk.shape[1]
        if self._pending_columns[key] >= self.compact_columns:
            self._fold(key)

    def _unique(self, chunks: List[np.ndarray]) -> np.ndarray:
        stacked = chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)
        self.compaction_work += stacked.size
        return rowwise_unique_pad(stacked)

    def _fold(self, key: int) -> None:
        """Compact the pending run into a new segment; merge size tiers."""
        chunks = self._pending.pop(key, [])
        self._pending_columns[key] = 0
        if not chunks:
            return
        segments = self._segments.setdefault(key, [])
        segments.append(self._unique(chunks))
        # size-tiered merge: fold the newest segment into its neighbour
        # until the neighbour is comfortably wider (binary-counter style)
        while (len(segments) >= 2 and segments[-2].shape[1]
               < self.MERGE_FACTOR * segments[-1].shape[1]):
            tail = segments.pop()
            segments[-1] = self._unique([segments[-1], tail])

    def finalize(self) -> float:
        """Total DRAM read bytes: unique lines per block, summed over blocks."""
        total = 0
        for key in set(self._pending) | set(self._segments):
            self._fold(key)
            segments = self._segments.get(key)
            if not segments:
                continue
            compact = (segments[0] if len(segments) == 1
                       else self._unique(segments))
            self._segments[key] = [compact]
            total += int((compact != _SENTINEL).sum()) * self.line_bytes
        return float(total)


class BatchedBlockContext:
    """Execution context of a batch of thread blocks on the simulated GPU.

    Register vectors are ``(num_blocks, block_threads)`` arrays,
    ``block_idx_x/y/z`` are ``(num_blocks, 1)`` columns and every index/mask
    argument may be anything broadcastable to the register shape.  Every
    counted instruction is issued once per warp of every block of the batch.
    """

    def __init__(
        self,
        block_indices: np.ndarray,
        grid_dim: Tuple[int, int, int],
        block_threads: int,
        architecture: GPUArchitecture,
        counters: KernelCounters,
        precision: Precision,
        count_traffic: bool = True,
    ) -> None:
        block_indices = np.asarray(block_indices, dtype=np.int64)
        if block_indices.ndim != 2 or block_indices.shape[1] != 3:
            raise SimulationError("block_indices must have shape (num_blocks, 3)")
        self.block_indices = block_indices
        self.num_blocks = int(block_indices.shape[0])
        self.grid_dim = grid_dim
        self.block_threads = int(block_threads)
        self.architecture = architecture
        self.counters = counters
        self.precision = precision
        self.warp_size = architecture.warp_size
        if self.block_threads % self.warp_size != 0:
            raise SimulationError(
                f"block size {self.block_threads} must be a multiple of the warp size"
            )
        self.num_warps = self.block_threads // self.warp_size
        self.shared = SharedMemory(architecture.shared_memory_per_block,
                                   self.num_blocks,
                                   architecture.shared_memory_banks,
                                   architecture.shared_memory_bank_bytes)
        self._traffic = (BatchedTrafficTracker(self.num_blocks,
                                               architecture.cache_line_bytes)
                         if count_traffic else None)
        self._thread_idx = np.arange(self.block_threads, dtype=np.int64)
        self._register_shape = (self.num_blocks, self.block_threads)
        self._issue_warps = self.num_blocks * self.num_warps
        checker = active_race_checker()
        self._race = (checker.attach(self.num_blocks, self.block_threads)
                      if checker is not None else None)
        counters.blocks_executed += self.num_blocks
        counters.warps_executed += self.num_blocks * self.num_warps

    # ------------------------------------------------------------------ ids
    @property
    def register_shape(self) -> Tuple[int, int]:
        """Shape of a per-thread register vector: ``(num_blocks, threads)``."""
        return self._register_shape

    @property
    def thread_idx_x(self) -> np.ndarray:
        """``threadIdx.x`` of every thread (shape ``(B,)``, same per block)."""
        return self._thread_idx

    @property
    def lane_id(self) -> np.ndarray:
        """Lane index of every thread within its warp."""
        return self._thread_idx % self.warp_size

    @property
    def warp_id(self) -> np.ndarray:
        """Warp index of every thread within its block."""
        return self._thread_idx // self.warp_size

    @property
    def block_idx_x(self) -> np.ndarray:
        """``blockIdx.x`` per batch entry, shape ``(num_blocks, 1)``."""
        return self.block_indices[:, 0:1]

    @property
    def block_idx_y(self) -> np.ndarray:
        return self.block_indices[:, 1:2]

    @property
    def block_idx_z(self) -> np.ndarray:
        return self.block_indices[:, 2:3]

    # ------------------------------------------------------------ registers
    @property
    def numpy_dtype(self) -> np.dtype:
        """Element dtype of the kernel's working precision."""
        return self.precision.numpy_dtype

    def zeros(self) -> np.ndarray:
        """A zero-filled per-thread register vector."""
        return np.zeros(self._register_shape, dtype=self.numpy_dtype)

    def full(self, value: float) -> np.ndarray:
        """A constant per-thread register vector."""
        return np.full(self._register_shape, value, dtype=self.numpy_dtype)

    # ------------------------------------------------------------- coercion
    def _as_indices(self, flat_indices: object, op: str) -> np.ndarray:
        """Coerce indices to one ``int64`` entry per thread (broadcasting)."""
        arr = np.asarray(flat_indices, dtype=np.int64)
        try:
            return np.broadcast_to(arr, self._register_shape)
        except ValueError:
            raise SimulationError(f"{op} expects one index per thread") from None

    def _as_mask(self, mask: Optional[object]) -> Optional[np.ndarray]:
        if mask is None:
            return None
        arr = np.asarray(mask, dtype=bool)
        try:
            return np.broadcast_to(arr, self._register_shape)
        except ValueError:
            raise SimulationError("mask must broadcast to one lane per thread") from None

    def _as_register(self, values: object) -> np.ndarray:
        return np.broadcast_to(np.asarray(values), self._register_shape)

    # --------------------------------------------------------------- shuffles
    def shfl_up(self, values: np.ndarray, delta: int = 1) -> np.ndarray:
        """``__shfl_up_sync`` across each warp (counted)."""
        self.counters.shfl += self._issue_warps
        return warp_ops.shfl_up(self._as_register(values), delta, self.warp_size)

    def shfl_down(self, values: np.ndarray, delta: int = 1) -> np.ndarray:
        """``__shfl_down_sync`` across each warp (counted)."""
        self.counters.shfl += self._issue_warps
        return warp_ops.shfl_down(self._as_register(values), delta, self.warp_size)

    def shfl_idx(self, values: np.ndarray, source_lane: int) -> np.ndarray:
        """``__shfl_sync`` broadcast from ``source_lane`` (counted)."""
        self.counters.shfl += self._issue_warps
        return warp_ops.shfl_idx(self._as_register(values), source_lane, self.warp_size)

    # -------------------------------------------------------------- arithmetic
    def mad(self, a: np.ndarray, b: np.ndarray, acc: np.ndarray) -> np.ndarray:
        """Fused multiply-add ``a * b + acc`` (one FMA warp instruction)."""
        self.counters.fma += self._issue_warps
        return np.asarray(a, dtype=self.numpy_dtype) * np.asarray(b, dtype=self.numpy_dtype) + acc

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Counted addition."""
        self.counters.add += self._issue_warps
        return np.asarray(a, dtype=self.numpy_dtype) + np.asarray(b, dtype=self.numpy_dtype)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Counted multiplication."""
        self.counters.mul += self._issue_warps
        return np.asarray(a, dtype=self.numpy_dtype) * np.asarray(b, dtype=self.numpy_dtype)

    def overhead(self, instructions: float = 1.0) -> None:
        """Account for integer/addressing instructions not modelled explicitly."""
        self.counters.misc += instructions * self._issue_warps

    # ----------------------------------------------------------- global mem
    def load_global(self, buffer: DeviceBuffer, flat_indices: np.ndarray,
                    mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Gather ``buffer[flat_indices]`` for every block of the batch."""
        flat_indices = self._as_indices(flat_indices, "load_global")
        if np.any(flat_indices < 0) or np.any(flat_indices >= buffer.size):
            raise SimulationError(f"out-of-bounds global load on {buffer.name!r}")
        mask = self._as_mask(mask)
        access = global_access_counts(
            flat_indices, mask, buffer.itemsize,
            self.architecture.cache_line_bytes, self.warp_size,
            store=False, cached=buffer.cached)
        self.counters.accumulate(access.counters)
        if self._traffic is not None and access.active:
            self._traffic.record_read(buffer, access.lines, mask)
        values = np.zeros(self._register_shape, dtype=buffer.dtype)
        if mask is None:
            values[:] = buffer.flat[flat_indices]
        else:
            values[mask] = buffer.flat[flat_indices[mask]]
        return values.astype(self.numpy_dtype, copy=False)

    def store_global(self, buffer: DeviceBuffer, flat_indices: np.ndarray,
                     values: np.ndarray, mask: Optional[np.ndarray] = None) -> None:
        """Scatter ``values`` into ``buffer`` for every block of the batch.

        Duplicate destinations resolve in block order (later block wins),
        whatever the batch size.
        """
        flat_indices = self._as_indices(flat_indices, "store_global")
        if np.any(flat_indices < 0) or np.any(flat_indices >= buffer.size):
            raise SimulationError(f"out-of-bounds global store on {buffer.name!r}")
        mask = self._as_mask(mask)
        self.counters.accumulate(global_access_counts(
            flat_indices, mask, buffer.itemsize,
            self.architecture.cache_line_bytes, self.warp_size,
            store=True, cached=buffer.cached).counters)
        values = np.broadcast_to(np.asarray(values), self._register_shape)
        if mask is None:
            buffer.flat[flat_indices] = values.astype(buffer.dtype, copy=False)
        else:
            buffer.flat[flat_indices[mask]] = values[mask].astype(buffer.dtype,
                                                                  copy=False)

    # ----------------------------------------------------------- shared mem
    def alloc_shared(self, name: str, shape: Tuple[int, ...],
                     precision: Optional[object] = None) -> SharedArray:
        """Allocate a named shared-memory array in every block of the batch."""
        prec = self.precision if precision is None else resolve_precision(precision)
        return self.shared.allocate(name, shape, prec)

    def _smem_access(self, shared: SharedArray, flat_indices: object,
                     mask: Optional[object], op: str):
        """Bounds-check and count one shared access; returns the coerced
        ``(indices, mask, uniform)``."""
        raw = np.asarray(flat_indices)
        # a scalar or per-block column index is warp-uniform
        uniform = raw.ndim == 0 or raw.shape[-1] == 1
        flat_indices = self._as_indices(flat_indices, op)
        size = shared.flat.shape[1]
        if np.any(flat_indices < 0) or np.any(flat_indices >= size):
            raise SimulationError(
                f"out-of-bounds shared {op.split('_')[0]} on {shared.name!r}")
        lane_mask = self._as_mask(mask)
        self.counters.accumulate(shared_access_counts(
            flat_indices, lane_mask, shared.array.itemsize, self.shared.banks,
            self.shared.bank_bytes, self.warp_size,
            store=op == "store_shared", uniform=uniform).counters)
        return flat_indices, lane_mask, uniform

    def load_shared(self, shared: SharedArray, flat_indices: np.ndarray,
                    mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Counted shared-memory gather (bank conflicts and broadcasts).

        Warp-uniform unmasked reads (the broadcast-weight pattern) gather
        one element per block and broadcast it across the lanes, instead of
        gathering one element per lane.
        """
        flat_indices, lane_mask, uniform = \
            self._smem_access(shared, flat_indices, mask, "load_shared")
        if self._race is not None:
            self._race.on_access(shared.name, shared.flat.shape[1],
                                 flat_indices, lane_mask, None,
                                 is_store=False)
        if lane_mask is None and uniform:
            per_block = shared.flat[np.arange(self.num_blocks), flat_indices[:, 0]]
            values = np.empty(self._register_shape, dtype=self.numpy_dtype)
            values[:] = per_block.astype(self.numpy_dtype, copy=False)[:, None]
            return values
        rows = np.broadcast_to(np.arange(self.num_blocks)[:, None], self._register_shape)
        if lane_mask is None:
            return shared.flat[rows, flat_indices].astype(self.numpy_dtype, copy=False)
        values = np.zeros(self._register_shape, dtype=self.numpy_dtype)
        values[lane_mask] = shared.flat[rows[lane_mask], flat_indices[lane_mask]] \
            .astype(self.numpy_dtype, copy=False)
        return values

    def store_shared(self, shared: SharedArray, flat_indices: np.ndarray,
                     values: np.ndarray, mask: Optional[np.ndarray] = None) -> None:
        """Counted shared-memory scatter."""
        flat_indices, lane_mask, _ = \
            self._smem_access(shared, flat_indices, mask, "store_shared")
        values = np.broadcast_to(np.asarray(values), self._register_shape)
        if self._race is not None:
            self._race.on_access(shared.name, shared.flat.shape[1],
                                 flat_indices, lane_mask,
                                 values.astype(shared.array.dtype,
                                               copy=False),
                                 is_store=True)
        rows = np.broadcast_to(np.arange(self.num_blocks)[:, None], self._register_shape)
        if lane_mask is None:
            shared.flat[rows, flat_indices] = values.astype(shared.array.dtype,
                                                            copy=False)
        else:
            shared.flat[rows[lane_mask], flat_indices[lane_mask]] = \
                values[lane_mask].astype(shared.array.dtype, copy=False)

    # -------------------------------------------------------------- control
    def syncthreads(self) -> None:
        """``__syncthreads()`` — counted barrier; closes a race-check phase."""
        self.counters.sync += self._issue_warps
        if self._race is not None:
            self._race.on_barrier()

    # ------------------------------------------------------------- finalize
    def finalize(self) -> None:
        """Fold the batch's unique-line DRAM reads into the launch counters."""
        if self._traffic is not None:
            self.counters.dram_read_bytes += self._traffic.finalize()

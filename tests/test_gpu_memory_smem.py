"""Tests for global-memory traffic accounting and shared-memory bank conflicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import resolve_precision
from repro.errors import ResourceExhaustedError, SimulationError
from repro.gpu.architecture import TESLA_P100
from repro.gpu.batch import BatchedBlockContext, BatchedTrafficTracker
from repro.gpu.counters import KernelCounters
from repro.gpu.memory import (
    DeviceBuffer,
    GlobalMemory,
    global_access_counts,
    linear_index_2d,
    linear_index_3d,
)
from repro.gpu.shared_memory import SharedMemory, bank_conflict_degree


# --- coalescing -----------------------------------------------------------

def coalesced_transactions(indices, itemsize):
    """Sectors touched by one warp access (every lane of it active)."""
    indices = np.asarray(indices, dtype=np.int64)
    return int(global_access_counts(indices, None, itemsize, 128,
                                    max(1, indices.size), store=False,
                                    cached=False).sectors.sum())


def test_contiguous_float32_access_is_one_transaction():
    indices = np.arange(32)
    assert coalesced_transactions(indices, 4) == 1


def test_contiguous_float64_access_is_two_transactions():
    indices = np.arange(32)
    assert coalesced_transactions(indices, 8) == 2


def test_strided_access_inflates_transactions():
    indices = np.arange(32) * 32  # one element per cache line
    assert coalesced_transactions(indices, 4) == 32


def test_broadcast_access_is_one_transaction():
    assert coalesced_transactions(np.zeros(32, dtype=np.int64), 4) == 1


def test_empty_access_has_no_transactions():
    assert coalesced_transactions(np.array([], dtype=np.int64), 4) == 0


@settings(max_examples=40, deadline=None)
@given(start=st.integers(min_value=0, max_value=10_000))
def test_aligned_warp_load_never_exceeds_two_sectors(start):
    indices = np.arange(start, start + 32)
    assert 1 <= coalesced_transactions(indices, 4) <= 2


# --- global memory ---------------------------------------------------------

def test_global_memory_allocation_and_capacity():
    memory = GlobalMemory(capacity_bytes=1024)
    buf = memory.allocate((16,), "float32", fill=2.0)
    assert buf.nbytes == 64
    assert np.all(buf.to_host() == 2.0)
    with pytest.raises(Exception):
        memory.allocate((1024,), "float64")


def test_to_device_copies_data():
    memory = GlobalMemory()
    host = np.arange(10.0)
    buf = memory.to_device(host)
    host[0] = 99.0
    assert buf.to_host()[0] == 0.0
    memory.free(buf)


def _record_read(tracker, buf, indices):
    """Record one single-block load of ``indices`` (element indices)."""
    lines = (np.asarray(indices)[None, :] * buf.itemsize) // tracker.line_bytes
    tracker.record_read(buf, lines, None)


def test_block_traffic_tracker_unique_lines():
    buf = DeviceBuffer(array=np.zeros(1024, dtype=np.float32))
    tracker = BatchedTrafficTracker(1)
    _record_read(tracker, buf, np.arange(32))        # one 128 B line
    _record_read(tracker, buf, np.arange(32))        # same line again: free
    _record_read(tracker, buf, np.arange(32, 64))    # a second line
    assert tracker.finalize() == 256.0


def test_cached_buffers_generate_no_dram_traffic():
    buf = DeviceBuffer(array=np.zeros(1024, dtype=np.float32), cached=True)
    tracker = BatchedTrafficTracker(1)
    _record_read(tracker, buf, np.arange(64))
    assert tracker.finalize() == 0.0


def test_linear_index_helpers():
    assert linear_index_2d(np.array([2]), np.array([3]), width=10)[0] == 23
    assert linear_index_3d(np.array([1]), np.array([2]), np.array([3]), height=5, width=10)[0] == 73


# --- shared memory ----------------------------------------------------------

def test_bank_conflict_free_for_contiguous_access():
    assert bank_conflict_degree(np.arange(32), 4) == 1


def test_bank_conflict_degree_for_strided_access():
    # stride 32 floats: every lane hits bank 0 -> 32-way conflict
    assert bank_conflict_degree(np.arange(32) * 32, 4) == 32
    # stride 2: 2-way conflict
    assert bank_conflict_degree(np.arange(32) * 2, 4) == 2


def test_broadcast_is_conflict_free():
    assert bank_conflict_degree(np.full(32, 7), 4) == 1


def test_shared_memory_allocation_and_limits():
    smem = SharedMemory(capacity_bytes=256)
    arr = smem.allocate("a", (32,), "float32")
    assert arr.nbytes == 128
    # a batch holds one copy per block; capacity is per block
    batch = SharedMemory(capacity_bytes=256, num_blocks=3)
    arr = batch.allocate("a", (32,), "float32")
    assert arr.nbytes == 128 and arr.flat.shape == (3, 32)
    with pytest.raises(ResourceExhaustedError):
        smem.allocate("b", (64,), "float32")
    with pytest.raises(SimulationError):
        smem.allocate("a", (4,), "float32")
    with pytest.raises(SimulationError):
        smem.get("missing")


def test_shared_memory_access_accounting():
    counters = KernelCounters()
    ctx = BatchedBlockContext(np.zeros((1, 3), dtype=np.int64), (1, 1, 1), 32,
                              TESLA_P100, counters, resolve_precision("float32"))
    arr = ctx.alloc_shared("tile", (512,))
    ctx.load_shared(arr, np.full(32, 3))
    assert (counters.smem_broadcast, counters.smem_load) == (1, 0)
    ctx.load_shared(arr, np.arange(32) * 2)
    assert counters.smem_load == 2
    assert counters.smem_bank_conflicts == 1
    ctx.store_shared(arr, np.arange(32), np.ones(32))
    assert counters.smem_store == 1
    assert counters.smem_write_bytes == 32 * 4


# --- fp64 parity against a brute-force oracle ------------------------------
#
# 8-byte elements occupy two consecutive 4-byte banks; both accounting paths
# expand the access into its two word phases.  The oracle below recomputes
# the conflict degree the slow way — per phase, per bank, over the unique
# byte addresses — so any drift in either fast path (or between them) fails.

def _oracle_degree(indices, itemsize, banks=32, bank_bytes=4):
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return 0
    addresses = sorted(set(int(i) * itemsize for i in indices))
    if len(addresses) == 1:
        return 1  # broadcast
    degree = 1
    for phase in range(max(1, itemsize // bank_bytes)):
        hits = {}
        for address in addresses:
            bank = (address // bank_bytes + phase) % banks
            hits[bank] = hits.get(bank, 0) + 1
        degree = max(degree, max(hits.values()))
    return degree


@pytest.mark.parametrize("itemsize", [4, 8])
def test_bank_conflict_paths_agree_with_oracle(itemsize):
    from repro.gpu.shared_memory import bank_conflict_profile

    rng = np.random.default_rng(20260730)
    cases = [rng.integers(0, 96, size=int(rng.integers(1, 33)))
             for _ in range(300)]
    # adversarial patterns: contiguous, strided, same-bank, broadcast
    cases += [np.arange(32), np.arange(32) * 2, np.arange(32) * 16,
              np.arange(32) * 32, np.full(32, 7), np.array([5])]
    for indices in cases:
        expected = _oracle_degree(indices, itemsize)
        assert bank_conflict_degree(indices, itemsize) == expected, indices
        degrees, broadcasts, counts = bank_conflict_profile(
            np.asarray(indices, dtype=np.int64)[None, :], itemsize)
        assert int(degrees[0]) == expected, indices
        assert int(counts[0]) == indices.size


def test_fp64_bank_conflicts_pin_known_degrees():
    """Double-precision degrees on 4-byte-bank hardware, pinned exactly.

    A contiguous fp64 warp access is the classic 2-way conflict (lanes 0
    and 16 share banks); stride-16 in elements lands every lane in one
    bank pair (32-way); a broadcast is always conflict-free.
    """
    assert bank_conflict_degree(np.arange(32), 8) == 2
    assert bank_conflict_degree(np.arange(32) * 16, 8) == 32
    assert bank_conflict_degree(np.full(32, 11), 8) == 1
    # the same accesses through the vectorised (batched-engine) path, with
    # an inactive-lane mask thrown in
    from repro.gpu.shared_memory import bank_conflict_profile

    rows = np.stack([np.arange(32), np.arange(32) * 16, np.full(32, 11)])
    degrees, broadcasts, _ = bank_conflict_profile(rows, 8)
    assert degrees.tolist() == [2, 32, 1]
    assert broadcasts.tolist() == [False, False, True]
    mask = np.zeros((1, 32), dtype=bool)
    mask[0, :16] = True  # half-warp: contiguous fp64 is then conflict-free
    degrees, _, counts = bank_conflict_profile(np.arange(32)[None, :], 8,
                                               mask=mask)
    assert int(degrees[0]) == _oracle_degree(np.arange(16), 8) == 1
    assert int(counts[0]) == 16

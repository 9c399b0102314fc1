"""Counter-oracle property tests for the memory-system accounting.

Seeded-random address streams are issued by a small traced kernel and
counted three ways — the batched engine
(:class:`~repro.gpu.batch.BatchedBlockContext`), a warm compiled replay
launch (:mod:`repro.trace.replay`) and the static IR prediction
(:func:`repro.analysis.lint.predict_counters` over the full grid) — and the
counted quantities are checked against deliberately brute-force Python
oracles:

* per-warp coalescing sectors (``gmem_load_transactions`` /
  ``gmem_store_transactions``),
* per-block unique-line DRAM read traffic (``dram_read_bytes``),
* shared-memory bank conflicts / broadcasts (``smem_bank_conflicts``,
  ``smem_load``, ``smem_broadcast``),
* and, counter for counter, everything else the memory paths write: active
  and divergent warps (``gmem_load``/``gmem_store``,
  ``divergent_branches``) and the byte counts (``cache_read_bytes``,
  ``dram_write_bytes``, ``smem_read_bytes``, ``smem_write_bytes``).

The oracles use nothing but Python sets/dicts and loops, so any bug in the
segmented NumPy accounting paths shows up as a disagreement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.concrete import evaluate_data_free
from repro.analysis.lint import predict_counters
from repro.dtypes import resolve_precision
from repro.gpu.architecture import get_architecture
from repro.gpu.batch import BatchedBlockContext
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.gpu.memory import GlobalMemory
from repro.trace.replay import fallback_log, record_trace

WARP_SIZE = 32
LINE_BYTES = 128
BLOCK_THREADS = 64
NUM_BLOCKS = 3
NUM_ACCESSES = 4
BUFFER_ELEMENTS = 4096
SMEM_ELEMENTS = 256


# ----------------------------------------------------------------- oracles

def oracle_sectors(active_indices, itemsize, line_bytes=LINE_BYTES):
    """Brute force: distinct memory sectors touched by one warp access."""
    return len({(int(i) * itemsize) // line_bytes for i in active_indices})


def oracle_warp_sectors(indices, mask, itemsize):
    """Total sectors for one block-wide access, warp by warp."""
    total = 0
    for w in range(0, len(indices), WARP_SIZE):
        lanes = range(w, w + WARP_SIZE)
        active = [indices[i] for i in lanes if mask is None or mask[i]]
        if active:
            total += oracle_sectors(active, itemsize)
    return total


def oracle_warp_activity(width, mask):
    """Brute force ``(active warps, divergent warps)`` of one block-wide
    access: a warp is active when any lane is, divergent when its lanes
    disagree."""
    active = divergent = 0
    for w in range(0, width, WARP_SIZE):
        lanes = [mask is None or bool(mask[i]) for i in range(w, w + WARP_SIZE)]
        if any(lanes):
            active += 1
            divergent += not all(lanes)
    return active, divergent


def oracle_unique_line_bytes(reads, itemsize, line_bytes=LINE_BYTES):
    """Brute force: per-block unique-line DRAM bytes for a list of reads
    (each a ``(indices, mask)`` pair) against a single buffer."""
    lines = set()
    for indices, mask in reads:
        for i, idx in enumerate(indices):
            if mask is None or mask[i]:
                lines.add((int(idx) * itemsize) // line_bytes)
    return len(lines) * line_bytes


def oracle_bank_degree(active_indices, itemsize, banks=32, bank_bytes=4):
    """Brute force bank-conflict degree of one warp shared-memory access.

    Returns ``(degree, is_broadcast)`` exactly as the simulator defines
    them: all active lanes on one address is a broadcast; otherwise the
    degree is the worst per-bank count of *distinct* addresses, where
    8-byte elements occupy two consecutive banks.
    """
    addresses = sorted({int(i) * itemsize for i in active_indices})
    if len(addresses) == 1:
        return 1, True
    words_per_element = max(1, itemsize // bank_bytes)
    degree = 1
    for sub in range(words_per_element):
        per_bank = {}
        for address in addresses:
            bank = (address // bank_bytes + sub) % banks
            per_bank[bank] = per_bank.get(bank, 0) + 1
        degree = max(degree, max(per_bank.values()))
    return degree, False


def oracle_smem_counts(accesses, itemsize, is_store):
    """Brute force (loads_or_stores, broadcasts, conflicts) for a list of
    block-wide shared accesses (``(indices, mask)`` pairs)."""
    ops = broadcasts = conflicts = 0
    for indices, mask in accesses:
        for w in range(0, len(indices), WARP_SIZE):
            lanes = range(w, w + WARP_SIZE)
            active = [indices[i] for i in lanes if mask is None or mask[i]]
            if not active:
                continue
            degree, broadcast = oracle_bank_degree(active, itemsize)
            if broadcast and not is_store:
                broadcasts += 1
            else:
                ops += degree
                conflicts += degree - 1
    return ops, broadcasts, conflicts


def oracle_counters(kind, streams, itemsize, cached):
    """Brute force: every counter one engine run of ``streams`` writes.

    ``kind`` names the context method every access goes through; all the
    counters that method does not touch must stay zero.
    """
    expected = KernelCounters(blocks_executed=NUM_BLOCKS,
                              warps_executed=NUM_BLOCKS * BLOCK_THREADS // WARP_SIZE)
    flat = [(list(indices), mask)
            for per_block in streams for indices, mask in per_block]
    for indices, mask in flat:
        active_bytes = itemsize * sum(
            1 for i in range(len(indices)) if mask is None or mask[i])
        if kind == "load_shared":
            expected.smem_read_bytes += active_bytes
            continue
        if kind == "store_shared":
            expected.smem_write_bytes += active_bytes
            continue
        warps, divergent = oracle_warp_activity(len(indices), mask)
        sectors = oracle_warp_sectors(indices, mask, itemsize)
        expected.divergent_branches += divergent
        if kind == "load_global":
            expected.gmem_load += warps
            expected.gmem_load_transactions += sectors
            expected.cache_read_bytes += active_bytes
        else:
            expected.gmem_store += warps
            expected.gmem_store_transactions += sectors
            if not cached:
                expected.dram_write_bytes += active_bytes
    if kind == "load_global" and not cached:
        expected.dram_read_bytes = sum(
            oracle_unique_line_bytes(
                [(list(per_block[b][0]), per_block[b][1]) for per_block in streams],
                itemsize)
            for b in range(NUM_BLOCKS))
    if kind in ("load_shared", "store_shared"):
        is_store = kind == "store_shared"
        ops, broadcasts, conflicts = oracle_smem_counts(flat, itemsize, is_store)
        if is_store:
            expected.smem_store = ops
        else:
            expected.smem_load = ops
            expected.smem_broadcast = broadcasts
        expected.smem_bank_conflicts = conflicts
    return expected.as_dict()


# ----------------------------------------------------------------- drivers

def _stream(rng, high, mask_mode):
    """One seeded block-wide address stream plus an optional lane mask."""
    indices = rng.integers(0, high, size=BLOCK_THREADS, dtype=np.int64)
    if mask_mode == "none":
        return indices, None
    mask = rng.random(BLOCK_THREADS) < 0.7
    if mask_mode == "dead-warp":
        mask[:WARP_SIZE] = False  # a fully inactive warp must count nothing
    return indices, mask


def _make_streams(seed, high, patterns=("random",), variation="varying"):
    """Per-block access streams: ``streams[a][b] = (indices, mask)``.

    ``variation="uniform"`` gives every block the same random streams.
    """
    rng = np.random.default_rng(seed)
    streams = []
    for access in range(NUM_ACCESSES):
        mask_mode = ("none", "random", "dead-warp")[access % 3]
        if variation == "uniform":
            per_block = [_stream(rng, high, mask_mode)] * NUM_BLOCKS
        else:
            per_block = [_stream(rng, high, mask_mode)
                         for _ in range(NUM_BLOCKS)]
        streams.append(per_block)
    if "contiguous" in patterns:
        base = np.arange(BLOCK_THREADS, dtype=np.int64)
        streams.append([(base, None) for _ in range(NUM_BLOCKS)])
    if "broadcast" in patterns:
        same = np.full(BLOCK_THREADS, 7, dtype=np.int64)
        streams.append([(same, None) for _ in range(NUM_BLOCKS)])
    if "strided" in patterns:
        strided = (np.arange(BLOCK_THREADS, dtype=np.int64) * 2) % high
        streams.append([(strided, None) for _ in range(NUM_BLOCKS)])
    return streams


#: the launch every engine runs: one row of NUM_BLOCKS blocks
GRID = (NUM_BLOCKS, 1, 1)
BLOCKS = np.array([(b, 0, 0) for b in range(NUM_BLOCKS)], dtype=np.int64)


def _select(ctx, per_block):
    """One access's ``(indices, mask)`` for the block(s) ``ctx`` runs.

    Block-uniform streams are plain constants (launch-static in replay);
    block-varying ones are picked with ``np.where`` on ``blockIdx.x`` —
    data-free, so replay compiles them to its chunk-tier path and the
    static prediction covers them.
    """
    indices, mask = per_block[0]
    if all(i is indices and m is mask for i, m in per_block):
        return indices, mask
    for b in range(1, NUM_BLOCKS):
        hit = ctx.block_idx_x == b
        indices = np.where(hit, per_block[b][0], indices)
        if mask is not None:
            mask = np.where(hit, per_block[b][1], mask)
    return indices, mask


def _stream_kernel(streams, op):
    """A kernel issuing every access of ``streams`` through ``ctx.<op>``."""
    def body(ctx, target):
        if op.endswith("shared"):
            target = ctx.alloc_shared("s", (SMEM_ELEMENTS,))
        for per_block in streams:
            indices, mask = _select(ctx, per_block)
            if op.startswith("store"):
                getattr(ctx, op)(target, indices, np.float64(1.0), mask=mask)
            else:
                getattr(ctx, op)(target, indices, mask=mask)
    return Kernel(body, name=f"oracle_{op}")


def _run_batched(kernel, make_args, arch, precision):
    """All blocks in one batch of the eager engine."""
    counters = KernelCounters()
    ctx = BatchedBlockContext(block_indices=BLOCKS, grid_dim=GRID,
                              block_threads=BLOCK_THREADS, architecture=arch,
                              counters=counters, precision=precision)
    kernel.func(ctx, *make_args())
    ctx.finalize()
    return counters


def _run_replay(kernel, make_args, arch, precision):
    """A warm replay launch: every chunk runs the compiled program, and
    neither launch falls back to the batched engine."""
    config = LaunchConfig(grid_dim=GRID, block_threads=BLOCK_THREADS,
                          precision=precision)
    before = len(fallback_log())
    kernel.launch(config, make_args(), architecture=arch, batch_size="replay")
    for program in kernel._trace_cache.values():
        program.counter_cache.clear()  # re-derive, don't reuse, the counters
    counters = kernel.launch(config, make_args(), architecture=arch,
                             batch_size="replay").counters
    assert fallback_log()[before:] == [], "replay fell back to batched"
    return counters


def _run_static(kernel, make_args, arch, precision):
    """``predict_counters`` over the full grid, nothing left unpredicted."""
    config = LaunchConfig(grid_dim=GRID, block_threads=BLOCK_THREADS,
                          precision=precision)
    trace = record_trace(kernel, config, make_args(), arch, KernelCounters(),
                         BLOCKS)
    prediction = predict_counters(trace, evaluate_data_free(trace, BLOCKS),
                                  NUM_BLOCKS, arch)
    assert not prediction.unpredicted
    return KernelCounters.from_dict(prediction.counters)


def _run_global(engine, arch, precision, streams, store=False, cached=False):
    """Run the streams through one engine; returns the counters."""
    def make_args():
        memory = GlobalMemory()
        return (memory.to_device(np.zeros(BUFFER_ELEMENTS,
                                          precision.numpy_dtype),
                                 name="g", cached=cached),)
    kernel = _stream_kernel(streams, "store_global" if store
                            else "load_global")
    return CONTEXTS[engine](kernel, make_args, arch, precision)


def _run_shared(engine, arch, precision, streams, store=False):
    kernel = _stream_kernel(streams, "store_shared" if store
                            else "load_shared")
    return CONTEXTS[engine](kernel, lambda: (None,), arch, precision)


#: the execution contexts the oracles check, by engine name
CONTEXTS = {"batched": _run_batched, "replay": _run_replay,
            "static": _run_static}
ENGINES = tuple(CONTEXTS)
SEEDS = (0, 1, 2)
#: block-varying streams reach replay's chunk-tier value steps and are
#: counted on every block's row; block-uniform ones run launch-static and
#: are counted on one row, scaled to the blocks
VARIATIONS = ("varying", "uniform")
#: ``(engine, variation)`` pairs every access kind is checked on
LEGS = [(engine, variation) for engine in ENGINES for variation in VARIATIONS]
LEG_IDS = [f"{engine}-{variation}" for engine, variation in LEGS]


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("engine, variation", LEGS, ids=LEG_IDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("precision_name", ["float32", "float64"])
def test_coalescing_sectors_match_oracle(engine, variation, seed,
                                         precision_name):
    arch = get_architecture("p100")
    precision = resolve_precision(precision_name)
    itemsize = precision.itemsize
    streams = _make_streams(seed, BUFFER_ELEMENTS,
                            patterns=("contiguous", "strided"),
                            variation=variation)
    counters = _run_global(engine, arch, precision, streams)
    expected = sum(
        oracle_warp_sectors(list(indices), mask, itemsize)
        for per_block in streams for indices, mask in per_block
    )
    assert counters.gmem_load_transactions == expected
    # a fully coalesced float32 warp access is exactly one 128-byte sector
    if precision_name == "float32":
        solo = KernelCounters()
        ctx = BatchedBlockContext(np.zeros((1, 3), dtype=np.int64), (1, 1, 1),
                                  BLOCK_THREADS, arch, solo, precision)
        memory = GlobalMemory()
        buffer = memory.allocate((BUFFER_ELEMENTS,), precision)
        ctx.load_global(buffer, np.arange(BLOCK_THREADS, dtype=np.int64))
        assert solo.gmem_load_transactions == BLOCK_THREADS // WARP_SIZE


@pytest.mark.parametrize("engine, variation", LEGS, ids=LEG_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_store_sectors_match_oracle(engine, variation, seed):
    arch = get_architecture("v100")
    precision = resolve_precision("float32")
    streams = _make_streams(seed, BUFFER_ELEMENTS, variation=variation)
    counters = _run_global(engine, arch, precision, streams, store=True)
    expected = sum(
        oracle_warp_sectors(list(indices), mask, precision.itemsize)
        for per_block in streams for indices, mask in per_block
    )
    assert counters.gmem_store_transactions == expected
    active = sum(
        (len(indices) if mask is None else int(np.sum(mask)))
        for per_block in streams for indices, mask in per_block
    )
    assert counters.dram_write_bytes == active * precision.itemsize


@pytest.mark.parametrize("engine, variation", LEGS, ids=LEG_IDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("precision_name", ["float32", "float64"])
def test_unique_line_dram_traffic_matches_oracle(engine, variation, seed,
                                                 precision_name):
    arch = get_architecture("p100")
    precision = resolve_precision(precision_name)
    streams = _make_streams(seed, BUFFER_ELEMENTS, variation=variation)
    counters = _run_global(engine, arch, precision, streams)
    expected = sum(
        oracle_unique_line_bytes(
            [(list(per_block[b][0]), per_block[b][1]) for per_block in streams],
            precision.itemsize)
        for b in range(NUM_BLOCKS)
    )
    assert counters.dram_read_bytes == expected


@pytest.mark.parametrize("engine, variation", LEGS, ids=LEG_IDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("precision_name", ["float32", "float64"])
def test_bank_conflicts_match_oracle(engine, variation, seed, precision_name):
    arch = get_architecture("p100")
    precision = resolve_precision(precision_name)
    itemsize = precision.itemsize
    streams = _make_streams(seed, SMEM_ELEMENTS,
                            patterns=("contiguous", "broadcast", "strided"),
                            variation=variation)
    counters = _run_shared(engine, arch, precision, streams)
    flat = [(list(indices), mask)
            for per_block in streams for indices, mask in per_block]
    loads, broadcasts, conflicts = oracle_smem_counts(flat, itemsize, is_store=False)
    assert counters.smem_load == loads
    assert counters.smem_broadcast == broadcasts
    assert counters.smem_bank_conflicts == conflicts


@pytest.mark.parametrize("engine, variation", LEGS, ids=LEG_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_bank_conflicts_on_stores_match_oracle(engine, variation, seed):
    arch = get_architecture("v100")
    precision = resolve_precision("float64")
    streams = _make_streams(seed, SMEM_ELEMENTS, patterns=("strided",),
                            variation=variation)
    counters = _run_shared(engine, arch, precision, streams, store=True)
    flat = [(list(indices), mask)
            for per_block in streams for indices, mask in per_block]
    stores, _, conflicts = oracle_smem_counts(flat, precision.itemsize, is_store=True)
    assert counters.smem_store == stores
    assert counters.smem_bank_conflicts == conflicts


#: (context method, buffer cached?) of each memory path
ACCESSES = (("load_global", False), ("load_global", True),
            ("store_global", False), ("store_global", True),
            ("load_shared", False), ("store_shared", False))
#: every (engine, variation, kind, cached) case of the counter-for-counter test
PATH_CASES = [(engine, variation, kind, cached)
              for kind, cached in ACCESSES for engine, variation in LEGS]


@pytest.mark.parametrize(
    "engine, variation, kind, cached", PATH_CASES,
    ids=[f"{e}-{v}-{k}" + ("-cached" if c else "")
         for e, v, k, c in PATH_CASES])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("precision_name", ["float32", "float64"])
def test_memory_paths_match_oracle_counter_for_counter(engine, variation, kind,
                                                       cached, seed,
                                                       precision_name):
    """Every counter a memory path writes, against the brute-force oracles."""
    shared = kind.endswith("shared")
    arch = get_architecture("p100")
    precision = resolve_precision(precision_name)
    store = kind.startswith("store")
    if shared:
        streams = _make_streams(seed, SMEM_ELEMENTS,
                                patterns=("broadcast", "strided"),
                                variation=variation)
        counters = _run_shared(engine, arch, precision, streams, store=store)
    else:
        streams = _make_streams(seed, BUFFER_ELEMENTS,
                                patterns=("contiguous", "strided"),
                                variation=variation)
        counters = _run_global(engine, arch, precision, streams,
                               store=store, cached=cached)
    expected = oracle_counters(kind, streams, precision.itemsize, cached)
    actual = counters.as_dict()
    mismatched = {name: (actual[name], expected[name])
                  for name in expected if actual[name] != expected[name]}
    assert not mismatched, f"(engine, oracle) mismatch: {mismatched}"

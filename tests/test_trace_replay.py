"""Unit tests for the compiled replay engine's internals.

The differential matrix (``test_scenario_matrix.py``) proves whole-launch
bit-identity; this file pins the engine-level contracts of replay: counter
memoization, bounds errors raised by the count of a warm launch, a
compiled program that keeps no recorded registers, the untraceable-kernel
fallback, and one program per memory geometry shared across parts (with
each part's shared-memory capacity still checked).  Each entry of the
compiler's lowering table is driven by a minimal kernel at every tier it
emits, and the loaded-operand and shuffle-into-mad peephole passes are
pinned on their own, as are the cache-sized replay chunks.  The sort-free paths of the counter rule are tested
in ``test_gpu_memory_smem.py``.  Row-form global accesses are pinned by a
lowering case, by a guard that every chunk-tier access of the five
engine-large kernels takes the row form, and by a property test against
the batched engine on those kernels.
"""

from __future__ import annotations

import contextlib
import dataclasses
import re
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ResourceExhaustedError, SimulationError
from repro.gpu.architecture import TESLA_P100, get_architecture
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import (
    REPLAY_CACHE_BYTES,
    Kernel,
    LaunchConfig,
    auto_batch_size,
    block_schedule,
)
from repro.gpu.memory import GlobalMemory
from repro.kernels import conv2d_ssam as conv2d_mod
from repro.kernels.conv2d_ssam import (
    CONV2D_SSAM_KERNEL,
    ssam_convolve2d,
    ssam_convolve2d_chain,
)
from repro.convolution.spec import ConvolutionSpec
from repro.kernels.conv1d_ssam import CONV1D_SSAM_KERNEL, ssam_convolve1d
from repro.kernels.scan_ssam import SCAN_SSAM_KERNEL, ssam_scan
from repro.kernels.stencil2d_ssam import STENCIL2D_SSAM_KERNEL, ssam_stencil2d
from repro.kernels.stencil3d_ssam import STENCIL3D_SSAM_KERNEL, ssam_stencil3d
from repro.stencils.catalog import get_stencil
from repro.trace import replay as replay_mod
from repro.trace.ir import (
    B_AXIS,
    KIND_THREAD,
    TIER_CHUNK,
    TIER_COMPILE,
    TIER_LAUNCH,
)
from repro.trace.replay import (
    LOWERINGS,
    ReplaySession,
    _assign_tiers,
    _fuse_shuffles,
    _loaded_operands,
    capture_traces,
    fallback_log,
    record_trace,
    replay_launch,
)
from repro.trace.fusion import FusedStage, fused_launch


# -------------------------------------------------------------- block_schedule

def test_block_index_matrix_matches_launch_order():
    grid = (3, 4, 2)
    out = block_schedule(grid)
    expected = [(bx, by, bz)
                for bz in range(grid[2])
                for by in range(grid[1])
                for bx in range(grid[0])]
    assert out.shape == (24, 3)
    assert [tuple(row) for row in out] == expected


@pytest.mark.parametrize("max_blocks", [1, 5, 7, 23, 24, 100])
def test_block_schedule_samples_a_uniform_stride(max_blocks):
    grid = (3, 4, 2)
    full = [tuple(row) for row in block_schedule(grid)]
    stride = max(1, len(full) // max_blocks)
    out = block_schedule(grid, max_blocks)
    assert out.flags.c_contiguous and out.dtype == np.int64
    assert [tuple(row) for row in out] == full[::stride][:max_blocks]


# ----------------------------------------------------------------- memoization

def test_counter_memoization_is_exact():
    """Warm launches reuse cached counters; values must be bit-identical."""
    spec = ConvolutionSpec.gaussian(5)
    image = np.random.default_rng(3).random((80, 96), dtype=np.float32)
    CONV2D_SSAM_KERNEL._trace_cache.clear()  # hermetic: other tests compile too
    cold = ssam_convolve2d(image, spec, batch_size="replay")
    program = next(p for p in CONV2D_SSAM_KERNEL._trace_cache.values()
                   if p is not None)
    assert program.memoizable  # SSAM indices are data-free by construction
    assert program.counter_cache  # populated by the completed launch
    warm = ssam_convolve2d(image, spec, batch_size="replay")
    np.testing.assert_array_equal(warm.output, cold.output)
    assert warm.launch.counters.as_dict() == cold.launch.counters.as_dict()


def _ndarray_bytes(root) -> int:
    """Bytes of the distinct ndarrays reachable from ``root`` through
    containers, attributes, slots, closures and defaults (modules, classes
    and function globals are not followed)."""
    seen, buffers, stack = set(), {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (types.ModuleType, type, str, bytes, int, float)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            buffers[id(base)] = base.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(obj.__defaults__ or ())
            stack.extend((obj.__kwdefaults__ or {}).values())
            for cell in obj.__closure__ or ():
                with contextlib.suppress(ValueError):  # empty cell
                    stack.append(cell.cell_contents)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for name in getattr(type(obj), "__slots__", ()):
                stack.append(getattr(obj, name, None))
    return sum(buffers.values())


def test_compiled_program_keeps_no_recorded_registers():
    """A program keeps a count plan, not the trace: its arrays stay small
    although the recording chunk's registers do not."""
    image = np.random.default_rng(13).random((512, 512), dtype=np.float32)
    CONV2D_SSAM_KERNEL._trace_cache.clear()
    with capture_traces() as capture:
        ssam_convolve2d(image, ConvolutionSpec.gaussian(5),
                        batch_size="replay")
    (record,) = capture.records
    blocks = record.chunk_blocks.shape[0]
    eager = sum(blocks * int(np.prod(node.shape[1:], dtype=np.int64))
                * np.dtype(node.dtype).itemsize
                for node in record.trace.nodes
                if node.shape and node.shape[0] == B_AXIS)
    assert eager > 10 * 2**20
    (program,) = CONV2D_SSAM_KERNEL._trace_cache.values()
    assert program.counter_cache  # the launch completed and was counted
    assert _ndarray_bytes(program) < 2**20


def test_memoized_counters_match_batched():
    spec = ConvolutionSpec.gaussian(5)
    image = np.random.default_rng(4).random((64, 96), dtype=np.float32)
    ssam_convolve2d(image, spec, batch_size="replay")  # cold: fills cache
    warm = ssam_convolve2d(image, spec, batch_size="replay")
    batched = ssam_convolve2d(image, spec, batch_size="auto")
    assert warm.launch.counters.as_dict() == batched.launch.counters.as_dict()


# ------------------------------------------------------------------- fallback

def _branchy_kernel(ctx, src, dst, size):
    idx = np.minimum(ctx.thread_idx_x, size - 1)
    values = ctx.load_global(src, idx, mask=ctx.thread_idx_x < size)
    if np.max(values) > 0:  # data-dependent host branch: untraceable
        values = values + 1.0
    ctx.store_global(dst, idx, values, mask=ctx.thread_idx_x < size)


BRANCHY = Kernel(_branchy_kernel, name="branchy")


def test_untraceable_kernel_falls_back_to_batched():
    memory = GlobalMemory()
    data = np.random.default_rng(5).random(100).astype(np.float32)
    src = memory.to_device(data, name="src")
    dst_replay = memory.allocate((128,), "float32", name="dst_replay")
    dst_batched = memory.allocate((128,), "float32", name="dst_batched")
    config = LaunchConfig(grid_dim=(1, 1, 1), block_threads=128)

    replay = BRANCHY.launch(config, (src, dst_replay, 100),
                            batch_size="replay")
    batched = BRANCHY.launch(config, (src, dst_batched, 100),
                             batch_size="auto")
    np.testing.assert_array_equal(dst_replay.to_host(), dst_batched.to_host())
    assert replay.counters.as_dict() == batched.counters.as_dict()
    # the failed trace is negatively cached: no re-recording on reuse
    assert any(p is None for p in BRANCHY._trace_cache.values())


def _thread_past_the_end(ctx, src, dst, size):
    idx = ctx.thread_idx_x + 1  # last thread runs off the end
    ctx.store_global(dst, idx, ctx.load_global(src, idx))


def _row_past_the_end(ctx, src, dst, size):
    # block 1, replayed, has a warp row whose base leaves the buffer
    idx = ctx.block_idx_x * ctx.block_threads + ctx.thread_idx_x + 1
    ctx.store_global(dst, idx, ctx.load_global(src, idx))


def _row_below_zero(ctx, src, dst, size):
    # block 1, replayed, starts its first warp row at -1 (NumPy would wrap)
    idx = (1 - ctx.block_idx_x) * ctx.block_threads + ctx.thread_idx_x - 1
    ctx.store_global(dst, np.maximum(idx, 0), ctx.load_global(src, idx))


@pytest.mark.parametrize("body, grid", [
    (_thread_past_the_end, 1), (_row_past_the_end, 2), (_row_below_zero, 2)])
def test_replay_bounds_error_matches_eager(body, grid):
    """Out-of-bounds accesses raise the engines' error on replay too,
    also where a row-form access's row base leaves the buffer (its block
    takes the per-lane path, whose error the count reports)."""
    kernel = Kernel(body, name=body.__name__)
    memory = GlobalMemory()
    size = 128 * grid
    src = memory.to_device(np.zeros(size, dtype=np.float32), name="input")
    dst = memory.allocate((size,), "float32", name="output")
    config = LaunchConfig(grid_dim=(grid, 1, 1), block_threads=128)
    for batch_size in ("auto", "replay"):
        with pytest.raises(SimulationError, match="out-of-bounds global load"):
            kernel.launch(config, (src, dst, size), batch_size=batch_size)
        with _rows_on_every_chunk(), pytest.raises(
                SimulationError, match="out-of-bounds global load"):
            kernel.launch(config, (src, dst, size), batch_size=batch_size)
    if grid > 1:
        # the replayed block's rows leave the buffer: it takes the
        # per-lane steps, as every block did before the row form
        (program,) = kernel._trace_cache.values()
        assert program.row_accesses
        session = ReplaySession(program, (src, dst, size), TESLA_P100,
                                None, max_chunk_blocks=1)
        blocks = block_schedule((grid, 1, 1))[1:]
        session.B = 1
        for node_id, axis in program.block_inputs:
            session.env[node_id] = blocks[:, axis:axis + 1]
        with _rows_on_every_chunk():
            program.chunk_steps[0](session)
        assert session.exact_blocks.tolist() == [0]


def _gather_kernel(ctx, src, where, dst, n):
    gidx = ctx.block_idx_x * ctx.block_threads + ctx.thread_idx_x
    idx = ctx.load_global(where, gidx).astype(np.int64)
    ctx.store_global(dst, gidx, ctx.load_global(src, idx))


@pytest.mark.parametrize("case", ["data-free", "loaded"])
def test_warm_replay_raises_the_bounds_error_of_a_counted_chunk(case):
    """The count checks every access of a counted launch: a grid past the
    buffers (data-free index) or a loaded index below zero raises the
    batched engine's error, not NumPy's."""
    memory = GlobalMemory()
    src = memory.to_device(np.arange(256, dtype=np.float32), name="src")
    where = memory.to_device(np.arange(256, dtype=np.float32), name="where")
    dst = memory.allocate((256,), "float32", name="dst")
    kernel = Kernel(_gather_kernel, name=f"bounds_{case}")
    config = LaunchConfig(grid_dim=(4, 1, 1), block_threads=64)
    kernel.launch(config, (src, where, dst, 256), batch_size="replay")
    if case == "data-free":
        config = LaunchConfig(grid_dim=(8, 1, 1), block_threads=64)
        buffer = "where"
    else:
        where.array[200] = -1.0
        buffer = "src"
    message = f"out-of-bounds global load on {buffer!r}"
    with pytest.raises(SimulationError, match=re.escape(message)):
        kernel.launch(config, (src, where, dst, 256), batch_size="auto")
    with pytest.raises(SimulationError, match=re.escape(message)):
        kernel.launch(config, (src, where, dst, 256), batch_size="replay")


# ------------------------------------------------- one program per geometry

def _arch_reading_kernel(ctx, src, dst, size):
    idx = np.minimum(ctx.thread_idx_x, size - 1)
    scale = 2.0 if ctx.architecture.name == "Tesla P100" else 3.0
    values = ctx.load_global(src, idx, mask=ctx.thread_idx_x < size)
    ctx.store_global(dst, idx, values * scale, mask=ctx.thread_idx_x < size)


def test_kernel_reading_the_architecture_falls_back():
    kernel = Kernel(_arch_reading_kernel, name="reads_architecture")
    memory = GlobalMemory()
    data = np.random.default_rng(8).random(100).astype(np.float32)
    src = memory.to_device(data, name="src")
    dst_replay = memory.allocate((128,), "float32", name="dst_replay")
    dst_batched = memory.allocate((128,), "float32", name="dst_batched")
    config = LaunchConfig(grid_dim=(1, 1, 1), block_threads=128)
    before = len(fallback_log())
    replay = kernel.launch(config, (src, dst_replay, 100),
                           batch_size="replay")
    assert fallback_log()[before:] == [
        {"kernel": "reads_architecture",
         "reason": "kernel body reads the architecture"}]
    batched = kernel.launch(config, (src, dst_batched, 100),
                            batch_size="auto")
    np.testing.assert_array_equal(dst_replay.to_host(), dst_batched.to_host())
    np.testing.assert_array_equal(dst_batched.to_host()[:100], data * 2.0)
    assert replay.counters.as_dict() == batched.counters.as_dict()


def test_conv2d_compiles_once_across_architectures():
    spec = ConvolutionSpec.gaussian(5)
    image = np.random.default_rng(9).random((64, 96), dtype=np.float32)
    CONV2D_SSAM_KERNEL._trace_cache.clear()
    for name in ("p100", "v100", "a100", "h100"):
        replay = ssam_convolve2d(image, spec, architecture=name,
                                 batch_size="replay")
        batched = ssam_convolve2d(image, spec, architecture=name,
                                  batch_size="auto")
        assert replay.launch.architecture is get_architecture(name)
        np.testing.assert_array_equal(replay.output, batched.output)
        assert (replay.launch.counters.as_dict()
                == batched.launch.counters.as_dict())
    assert len(CONV2D_SSAM_KERNEL._trace_cache) == 1


def test_another_memory_geometry_gets_its_own_program():
    narrow = dataclasses.replace(TESLA_P100, name="Narrow-line P100",
                                 cache_line_bytes=32)
    spec = ConvolutionSpec.gaussian(5)
    image = np.random.default_rng(10).random((64, 96), dtype=np.float32)
    CONV2D_SSAM_KERNEL._trace_cache.clear()
    ssam_convolve2d(image, spec, architecture="p100", batch_size="replay")
    replay = ssam_convolve2d(image, spec, architecture=narrow,
                             batch_size="replay")
    assert len(CONV2D_SSAM_KERNEL._trace_cache) == 2
    batched = ssam_convolve2d(image, spec, architecture=narrow,
                              batch_size="auto")
    np.testing.assert_array_equal(replay.output, batched.output)
    assert (replay.launch.counters.as_dict()
            == batched.launch.counters.as_dict())


#: 64 KB of float32: fits H100's per-block shared memory, not P100's 48 KB
BIG_SHARED = 16 * 1024


def _big_shared_kernel(ctx, src, dst, n):
    tid = ctx.thread_idx_x
    gidx = ctx.block_idx_x * ctx.block_threads + tid
    tile = ctx.alloc_shared("tile", (BIG_SHARED,))
    ctx.store_shared(tile, tid, ctx.load_global(src, gidx))
    ctx.syncthreads()
    ctx.store_global(dst, gidx, ctx.load_shared(tile, tid))


def _copy_kernel(ctx, src, dst, n):
    gidx = ctx.block_idx_x * ctx.block_threads + ctx.thread_idx_x
    ctx.store_global(dst, gidx, ctx.load_global(src, gidx))


def _big_shared_args():
    memory = GlobalMemory()
    data = np.random.default_rng(12).random(4 * 64).astype(np.float32)
    return (memory.to_device(data, name="src"),
            memory.allocate((4 * 64,), "float32", name="mid"),
            memory.allocate((4 * 64,), "float32", name="dst"))


def _batched_capacity_error(kernel, config, args):
    with pytest.raises(ResourceExhaustedError) as excinfo:
        kernel.launch(config, args, architecture="p100", batch_size="auto")
    return str(excinfo.value)


def test_reused_program_checks_shared_capacity_on_replay():
    kernel = Kernel(_big_shared_kernel, name="big_shared_replay")
    config = LaunchConfig(grid_dim=(4, 1, 1), block_threads=64)
    src, mid, _ = _big_shared_args()
    args = (src, mid, 4 * 64)
    before = len(fallback_log())
    replay_launch(kernel, config, args, architecture="h100")
    assert fallback_log()[before:] == []
    np.testing.assert_array_equal(mid.to_host(), src.to_host())
    assert len(kernel._trace_cache) == 1
    message = _batched_capacity_error(kernel, config, args)
    with pytest.raises(ResourceExhaustedError, match=re.escape(message)):
        replay_launch(kernel, config, args, architecture="p100")


def test_reused_program_checks_shared_capacity_on_fused_launch():
    producer = Kernel(_big_shared_kernel, name="big_shared_fused")
    consumer = Kernel(_copy_kernel, name="copy_fused")
    config = LaunchConfig(grid_dim=(4, 1, 1), block_threads=64)
    src, mid, dst = _big_shared_args()
    stages = [FusedStage(producer, config, (src, mid, 4 * 64)),
              FusedStage(consumer, config, (mid, dst, 4 * 64))]
    fused_launch(stages, architecture="h100")
    np.testing.assert_array_equal(dst.to_host(), src.to_host())
    (program,) = producer._trace_cache.values()
    assert program is not None
    message = _batched_capacity_error(producer, config, stages[0].args)
    with pytest.raises(ResourceExhaustedError, match=re.escape(message)):
        fused_launch(stages, architecture="p100")


# ------------------------------------------------------- lowering table
#
# Every kernel below takes the same arguments: ``src`` (read-only float32,
# one block's worth longer than the grid), ``wide`` (read-only float64, so
# loads leave the working dtype), ``taps`` (read-only, cached: no DRAM
# traffic), ``scratch`` (cached, written) and ``dst`` (written; the grid
# region is the output, the next block's worth is read but never written,
# and the one after it takes launch-static stores).  Reads and writes never
# overlap across blocks, so any chunking gives the same bytes.

GRID = (6, 1, 1)
THREADS = 64
CELLS = GRID[0] * THREADS


def _make_args():
    memory = GlobalMemory()
    rng = np.random.default_rng(11)
    src = memory.to_device(
        rng.standard_normal(CELLS + THREADS).astype(np.float32), name="src")
    wide = memory.to_device(rng.standard_normal(CELLS), name="wide")
    taps = memory.to_device(rng.standard_normal(THREADS).astype(np.float32),
                            name="taps", cached=True)
    scratch = memory.to_device(np.zeros(THREADS, dtype=np.float32),
                               name="scratch", cached=True)
    dst = memory.to_device(
        rng.standard_normal(CELLS + 2 * THREADS).astype(np.float32),
        name="dst")
    return src, wide, taps, scratch, dst, CELLS


def _launch(kernel, batch_size):
    args = _make_args()
    config = LaunchConfig(grid_dim=GRID, block_threads=THREADS)
    result = kernel.launch(config, args, batch_size=batch_size)
    return [args[3].to_host(), args[4].to_host()], result.counters.as_dict()


def _assert_replay_matches_batched(kernel):
    """Cold, warm (accounting re-derived) and memoized replay launches are
    bit-identical to the batched engine, without a fallback."""
    outputs, counters = _launch(kernel, "auto")
    kernel._trace_cache.clear()
    before = len(fallback_log())
    runs = [_launch(kernel, "replay")]
    for program in kernel._trace_cache.values():
        program.counter_cache.clear()
    runs.append(_launch(kernel, "replay"))
    runs.append(_launch(kernel, "replay"))
    assert fallback_log()[before:] == []
    for got_outputs, got_counters in runs:
        for got, want in zip(got_outputs, outputs):
            np.testing.assert_array_equal(got, want)
        assert got_counters == counters


def _record(kernel):
    arch = get_architecture("p100")
    config = LaunchConfig(grid_dim=GRID, block_threads=THREADS)
    return record_trace(kernel, config, _make_args(), arch, KernelCounters(),
                        block_schedule(GRID)[:3])


def _reached(kernel):
    """``{(op, tier)}`` of every node of the kernel's trace."""
    trace = _record(kernel)
    tiers, _ = _assign_tiers(trace, frozenset())
    return {(node.op, tiers[node.id]) for node in trace.nodes}


def _ids(ctx):
    tid = ctx.thread_idx_x
    return tid, ctx.block_idx_x * ctx.block_threads + tid


def _leaf_kernel(ctx, src, wide, taps, scratch, dst, n):
    _, gidx = _ids(ctx)
    ctx.store_global(dst, gidx, ctx.full(1.5))


def _pure_kernel(ctx, src, wide, taps, scratch, dst, n):
    tid, gidx = _ids(ctx)
    odd = (tid % 2).astype(bool)
    launch = np.maximum(ctx.load_global(src, tid), 0.0)
    x = ctx.load_global(src, gidx)
    picked = np.clip(np.where(odd, x, launch), -1.0, 1.0)
    rounded = (picked * 4).astype(np.int32).astype(np.float32)
    widened = np.add(rounded, 1.0, dtype=np.float64)
    unpooled = ctx.load_global(dst, n + tid) * 2.0
    ctx.store_global(dst, gidx, widened + unpooled)


def _arith_kernel(ctx, src, wide, taps, scratch, dst, n):
    tid, gidx = _ids(ctx)
    k = ctx.mad((tid % 5).astype(np.float32), ctx.full(0.5), ctx.full(1.0))
    launch = ctx.mul(ctx.add(ctx.load_global(src, tid), k), ctx.full(3.0))
    x = ctx.load_global(src, gidx)
    acc = ctx.mul(ctx.add(ctx.mad(x, launch, k), x), ctx.full(0.25))
    acc = ctx.mad(x, launch, ctx.shfl_up(acc, 1))
    acc = ctx.mad(x, launch, ctx.shfl_down(acc, 2))
    ctx.store_global(dst, gidx, ctx.add(acc, tid))


def _shfl_kernel(ctx, src, wide, taps, scratch, dst, n):
    tid, gidx = _ids(ctx)
    const = ctx.shfl_down(tid.astype(np.float32), 3)
    base = ctx.load_global(src, tid)
    launch = ctx.add(ctx.shfl_up(base, 2), ctx.shfl_idx(base, 7))
    x = ctx.load_global(src, gidx)
    # dst is written, so these rows are recomputed per chunk although every
    # block sees the same one: lane-varying, then warp-uniform
    row = ctx.load_global(dst, n + tid)
    warp_row = ctx.load_global(dst, n + ctx.warp_id)
    total = ctx.add(const, launch)
    for shuffled in (ctx.shfl_up(x, 1), ctx.shfl_down(x, 4),
                     ctx.shfl_idx(x, 31), ctx.shfl_up(x, 0),
                     ctx.shfl_down(x, 32), ctx.shfl_up(row, 3),
                     ctx.shfl_idx(warp_row, 5)):
        total = ctx.add(total, shuffled)
    ctx.store_global(dst, gidx, total)


def _counted_kernel(ctx, src, wide, taps, scratch, dst, n):
    _, gidx = _ids(ctx)
    x = ctx.load_global(src, gidx)
    ctx.overhead(3.0)
    ctx.syncthreads()
    ctx.overhead()
    ctx.store_global(dst, gidx, x)


def _global_kernel(ctx, src, wide, taps, scratch, dst, n):
    tid, gidx = _ids(ctx)
    half = tid < ctx.block_threads // 2
    launch = ctx.add(ctx.load_global(src, tid),
                     ctx.load_global(src, tid + 3, mask=half))
    launch = ctx.add(launch, ctx.load_global(taps, tid))
    static = ctx.load_global(dst, n + tid, mask=half)
    values = [ctx.load_global(src, gidx),
              ctx.load_global(src, (gidx * 7) % n),
              ctx.load_global(src, gidx, mask=gidx % 3 != 0),
              ctx.load_global(wide, gidx),
              ctx.load_global(wide, gidx, mask=half)]
    total = ctx.add(launch, static)
    for value in values:
        total = ctx.add(total, value)
    values.append(ctx.load_global(src, gidx.astype(np.int32)))
    ctx.store_global(dst, n + ctx.block_threads + tid, launch)
    ctx.store_global(dst, n + ctx.block_threads + tid,
                     ctx.mul(launch, ctx.full(2.0)), mask=half)
    ctx.store_global(dst, n + ctx.block_threads + tid, static, mask=half)
    ctx.store_global(scratch, tid, launch)
    ctx.store_global(dst, gidx, total)
    ctx.store_global(dst, gidx, ctx.mul(total, ctx.full(2.0)),
                     mask=gidx % 2 == 0)


def _row_global_kernel(ctx, src, wide, taps, scratch, dst, n):
    """Chunk-tier global accesses in row form: a clip that binds on the
    last block's rows (under a guard-free lane and block mask), a float64
    buffer read into float32 registers under a lane mask and a block-only
    mask, a read whose only guard is its mask's ordering, a warp-uniform
    (stride-0) read, a store whose ordering mask cuts the last rows short,
    one whose rows overlap across blocks, and stride-0 stores of one and
    of several lanes a row, the latter under an ordering that cuts the
    last rows short, so its chunk also scatters rebuilt stride-0 rows."""
    tid, gidx = _ids(ctx)
    lane, block = ctx.lane_id, ctx.block_idx_x
    x = ctx.load_global(src, np.clip(gidx + 7, 0, n - 1),
                        mask=(lane >= 1) & (block > 0))
    low = ctx.load_global(wide, np.minimum(gidx, n - 1),
                          mask=(lane >= 3) & (block < 4))
    head = ctx.load_global(src, gidx, mask=gidx < n - 37)
    per_warp = ctx.load_global(src, block * ctx.num_warps + ctx.warp_id)
    total = ctx.add(ctx.add(ctx.add(x, low), head), per_warp)
    ctx.store_global(dst, np.minimum(gidx + 5, n - 1), total,
                     mask=(gidx + 5 < n) & (lane >= 2))
    ctx.store_global(dst, np.minimum(n + tid + 20 * block, n + 2 * THREADS - 1),
                     ctx.mul(total, ctx.full(3.0)))
    ctx.store_global(scratch, block, total,
                     mask=tid == ctx.block_threads - 1)
    ctx.store_global(scratch, block + 8, total,
                     mask=(lane >= 30) & (gidx < n - 37))


def _alloc_shared_kernel(ctx, src, wide, taps, scratch, dst, n):
    tid, gidx = _ids(ctx)
    threads = ctx.block_threads
    stage = ctx.alloc_shared("stage", (threads,))
    ctx.store_shared(stage, tid, ctx.load_global(src, tid))
    tile = ctx.alloc_shared("tile", (threads,))
    ctx.store_shared(tile, tid, ctx.load_global(src, gidx))
    ctx.syncthreads()
    ctx.store_global(dst, gidx,
                     ctx.add(ctx.load_shared(stage, (tid + 1) % threads),
                             ctx.load_shared(tile, (tid + 1) % threads)))


def _load_shared_kernel(ctx, src, wide, taps, scratch, dst, n):
    tid, gidx = _ids(ctx)
    threads = ctx.block_threads
    stage = ctx.alloc_shared("stage", (threads,))
    ctx.store_shared(stage, tid, ctx.load_global(src, tid))
    tile = ctx.alloc_shared("tile", (threads,))
    ctx.store_shared(tile, tid, ctx.load_global(src, gidx))
    wide_tile = ctx.alloc_shared("wide_tile", (threads,), "float64")
    ctx.store_shared(wide_tile, tid, ctx.load_global(wide, gidx))
    ctx.syncthreads()
    values = [ctx.load_shared(stage, np.int64(3)),
              ctx.load_shared(stage, (tid * 3) % threads),
              ctx.load_shared(stage, tid, mask=tid % 4 != 0),
              ctx.load_shared(tile, np.int64(5)),
              ctx.load_shared(tile, ((tid + 7) % threads).astype(np.int32)),
              ctx.load_shared(tile, (tid + 2) % threads, mask=tid >= 2),
              ctx.load_shared(wide_tile, (tid + 9) % threads)]
    total = values[0]
    for value in values[1:]:
        total = ctx.add(total, value)
    ctx.store_global(dst, gidx, total)


def _store_shared_kernel(ctx, src, wide, taps, scratch, dst, n):
    tid, gidx = _ids(ctx)
    threads = ctx.block_threads
    stage = ctx.alloc_shared("stage", (threads,))
    base = ctx.load_global(src, tid)
    ctx.store_shared(stage, tid, base)
    ctx.store_shared(stage, tid, ctx.mul(base, ctx.full(2.0)),
                     mask=tid % 3 == 0)
    tile = ctx.alloc_shared("tile", (threads,))
    x = ctx.load_global(src, gidx)
    ctx.store_shared(tile, tid, x)
    ctx.store_shared(tile, (tid + 1) % threads, ctx.add(x, base),
                     mask=tid % 2 == 0)
    ctx.syncthreads()
    ctx.store_global(dst, gidx,
                     ctx.add(ctx.load_shared(stage, (tid + 5) % threads),
                             ctx.load_shared(tile, (tid + 3) % threads)))


C, L, K = TIER_COMPILE, TIER_LAUNCH, TIER_CHUNK

#: lowering -> (minimal kernel, the (op, tier) pairs it must reach)
LOWERING_CASES = {
    "leaf": (_leaf_kernel, {("const", C), ("input", C), ("input", K)}),
    "pure": (_pure_kernel, {("pure", C), ("pure", L), ("pure", K)}),
    "arith": (_arith_kernel, {("arith", C), ("arith", L), ("arith", K)}),
    "shfl": (_shfl_kernel, {("shfl", C), ("shfl", L), ("shfl", K)}),
    "counted": (_counted_kernel, {("sync", C), ("misc", C)}),
    "global": (_global_kernel, {("load_global", L), ("load_global", K),
                                ("store_global", L), ("store_global", K)}),
    "global_rows": (_row_global_kernel, {("load_global", K),
                                         ("store_global", K)}),
    "alloc_shared": (_alloc_shared_kernel,
                     {("alloc_shared", L), ("alloc_shared", K)}),
    "load_shared": (_load_shared_kernel,
                    {("load_shared", L), ("load_shared", K)}),
    "store_shared": (_store_shared_kernel,
                     {("store_shared", L), ("store_shared", K)}),
}


def test_every_lowering_has_a_case():
    covered = {LOWERINGS[op] for _, reach in LOWERING_CASES.values()
               for op, _ in reach}
    assert covered == set(LOWERINGS.values())


@contextlib.contextmanager
def _rows_on_every_chunk():
    """Compile the row pass for launches of any size (one whose chunks
    hold fewer lanes than ``_ROW_MIN_LANES`` otherwise runs its accesses
    per lane), so the small test grids reach its window loads, row stores
    and lane remaps."""
    saved = replay_mod._ROW_MIN_LANES
    replay_mod._ROW_MIN_LANES = 0
    try:
        yield
    finally:
        replay_mod._ROW_MIN_LANES = saved


@pytest.mark.parametrize("lowering", sorted(LOWERING_CASES))
def test_lowering_matches_batched(lowering):
    body, reach = LOWERING_CASES[lowering]
    kernel = Kernel(body, name=f"lowering_{lowering}")
    assert reach <= _reached(kernel)
    _assert_replay_matches_batched(kernel)
    with _rows_on_every_chunk():
        kernel._trace_cache.clear()
        _assert_replay_matches_batched(kernel)


def _shuffle_kernel(direction, amount, fused):
    """A chunk-tier shuffle by ``amount`` lanes consumed only by a mad's
    accumulator (the peephole fuses it) or by an add (its own step), plus
    a shuffle of one value per block (a source of stride 0 along the
    lanes)."""
    def body(ctx, src, wide, taps, scratch, dst, n):
        tid, gidx = _ids(ctx)
        shift = ctx.shfl_up if direction == "up" else ctx.shfl_down
        x = ctx.load_global(src, gidx)
        w = ctx.load_global(src, tid)
        if fused:
            acc = ctx.mad(x, w, shift(ctx.mul(x, x), amount))
        else:
            acc = ctx.add(shift(ctx.mul(x, x), amount), w)
        column = shift((ctx.block_idx_x * 0.5).astype(np.float32), amount)
        ctx.store_global(dst, gidx, ctx.add(acc, column))
    name = f"shuffle_{direction}_{amount}_{'fused' if fused else 'own'}"
    return Kernel(body, name=name)


@settings(max_examples=25, deadline=None)
@given(direction=st.sampled_from(["up", "down"]),
       amount=st.integers(min_value=0, max_value=64),
       fused=st.booleans())
def test_shuffle_lowerings_match_batched(direction, amount, fused):
    """Property: replay's fused and unfused shuffle lowerings (both
    through the one lane-shift helper) are bit-identical to the batched
    engine for any amount, inside the warp or past it."""
    kernel = _shuffle_kernel(direction, amount, fused)
    trace = _record(kernel)
    tiers, _ = _assign_tiers(trace, frozenset())
    peephole = _fuse_shuffles(trace.nodes, tiers,
                              np.dtype(trace.numpy_dtype), trace.warp_size)
    assert bool(peephole) == (fused and 0 < amount < trace.warp_size)
    _assert_replay_matches_batched(kernel)


def test_uniform_shared_load_of_thread_uniform_chunk_content():
    """Regression: a warp-uniform shared read of content that is the same
    for every block but recomputed per chunk (staged from a buffer the
    kernel also writes) had no (B, 1) scratch column and crashed replay
    with a TypeError."""
    def staged(ctx, src, wide, taps, scratch, dst, n):
        tid, gidx = _ids(ctx)
        tile = ctx.alloc_shared("tile", (ctx.block_threads,))
        ctx.store_shared(tile, tid, ctx.load_global(dst, n + tid))
        ctx.syncthreads()
        ctx.store_global(dst, gidx,
                         ctx.add(ctx.load_shared(tile, np.int64(3)),
                                 ctx.load_shared(tile, (tid + 1) % 64)))

    kernel = Kernel(staged, name="uniform_thread_content")
    assert ("load_shared", TIER_CHUNK) in _reached(kernel)
    _assert_replay_matches_batched(kernel)


@pytest.mark.parametrize("content", ["launch", "chunk"])
def test_warp_uniform_block_varying_shared_index(content):
    """The (B, 1) branch of the chunk-tier shared load: every thread of a
    block reads one slot, chosen by the block index, of launch-static
    content (staged from the read-only ``src``) or of chunk-tier content
    (staged from each block's own tile)."""
    def picked(ctx, src, wide, taps, scratch, dst, n):
        tid, gidx = _ids(ctx)
        threads = ctx.block_threads
        tile = ctx.alloc_shared("tile", (threads,))
        ctx.store_shared(tile, tid, ctx.load_global(
            src, tid if content == "launch" else gidx))
        ctx.syncthreads()
        pick = (ctx.block_idx_x * 5 + 3) % threads
        ctx.store_global(dst, gidx, ctx.add(ctx.load_shared(tile, pick),
                                            ctx.load_global(src, gidx)))

    kernel = Kernel(picked, name=f"block_picked_{content}")
    trace = _record(kernel)
    tiers, content_tiers = _assign_tiers(trace, frozenset())
    (load,) = [node for node in trace.nodes if node.op == "load_shared"]
    assert load.params["uniform"] and not load.params["masked"]
    assert trace.nodes[load.inputs[0]].kind > KIND_THREAD
    assert tiers[load.id] == TIER_CHUNK
    want = TIER_CHUNK if content == "chunk" else TIER_LAUNCH
    assert content_tiers[load.params["shared"]] == want
    _assert_replay_matches_batched(kernel)


# ------------------------------------------------------------ replay chunks

def _spy_chunks(monkeypatch):
    """Record the recording chunk's size, each replayed chunk's
    ``(blocks, arena bytes, program)`` and the blocks of each count."""
    seen = {"recorded": [], "replayed": [], "counted": []}
    record, run_chunk = replay_mod.record_trace, ReplaySession.run_chunk
    count = ReplaySession.count

    def spy_record(kernel, config, args, arch, counters, chunk):
        seen["recorded"].append((config, chunk.shape[0]))
        return record(kernel, config, args, arch, counters, chunk)

    def spy_run(session, block_indices, *args, **kwargs):
        blocks = block_indices.shape[0]
        program = session.program
        seen["replayed"].append(
            (blocks, blocks * program.arena_bytes_per_block, program))
        return run_chunk(session, block_indices, *args, **kwargs)

    def spy_count(session, block_indices):
        if session.counters is not None:
            seen["counted"].append(block_indices.shape[0])
        return count(session, block_indices)

    monkeypatch.setattr(replay_mod, "record_trace", spy_record)
    monkeypatch.setattr(ReplaySession, "run_chunk", spy_run)
    monkeypatch.setattr(ReplaySession, "count", spy_count)
    return seen


def test_replay_chunks_fit_the_cache_budget(monkeypatch):
    """A cold launch, a warm one and a warm one that counts again each
    replay at least three cache-sized chunks, bit-identical to batched."""
    image = np.random.default_rng(8).random((768, 1024), dtype=np.float32)
    spec = ConvolutionSpec.gaussian(5)
    monkeypatch.setattr(conv2d_mod, "CONV2D_SSAM_KERNEL",
                        Kernel(CONV2D_SSAM_KERNEL.func, name="conv2d_chunks"))
    batched = ssam_convolve2d(image, spec, batch_size="auto")
    n = batched.launch.blocks_executed
    seen = _spy_chunks(monkeypatch)
    before = len(fallback_log())
    runs, chunks_per_run = [], []
    for clear_counters in (False, False, True):
        if clear_counters:
            program.counter_cache.clear()
        replayed = len(seen["replayed"])
        runs.append(ssam_convolve2d(image, spec, batch_size="replay"))
        chunks_per_run.append(len(seen["replayed"]) - replayed)
        (program,) = conv2d_mod.CONV2D_SSAM_KERNEL._trace_cache.values()
    assert fallback_log()[before:] == []
    assert min(chunks_per_run) >= 3
    for run in runs:
        np.testing.assert_array_equal(run.output, batched.output)
        assert run.launch.counters.as_dict() == \
            batched.launch.counters.as_dict()

    # chunk 0 of the cold launch keeps the batched engine's size
    ((config, recorded),) = seen["recorded"]
    assert recorded == min(auto_batch_size(config), (n + 1) // 2)
    # every replayed chunk's scratch arena fits the cache budget
    chunk = program.chunk_blocks(n)
    assert chunk * program.arena_bytes_per_block <= REPLAY_CACHE_BYTES
    assert all(arena <= REPLAY_CACHE_BYTES for _, arena, _ in seen["replayed"])
    blocks = [b for b, _, _ in seen["replayed"]]
    assert sum(blocks) == 3 * n - recorded
    assert set(blocks) <= {chunk, (n - recorded) % chunk, n % chunk}
    # the data-free count keeps the recording-size chunks: the cold launch
    # and the launch with its memo cleared count, the memo hit does not
    assert program.memoizable
    counted = seen["counted"]
    assert sum(counted) == 2 * n - recorded
    assert set(counted) <= {recorded, (n - recorded) % recorded,
                            n % recorded}


def test_fused_chunks_keep_the_batched_size(monkeypatch):
    """Stage fusion couples its stages' chunks through the halo lead, so
    it keeps the batched engine's chunk size."""
    image = np.random.default_rng(9).random((768, 1024), dtype=np.float32)
    spec = ConvolutionSpec.gaussian(5)
    seen = _spy_chunks(monkeypatch)
    result = ssam_convolve2d_chain(image, spec, fused=True)
    config = result.launch.config
    n = int(np.prod(config.grid_dim))
    chunk = min(auto_batch_size(config), (n + 1) // 2)
    blocks = [b for b, _, _ in seen["replayed"]]
    assert blocks and set(blocks) <= {chunk, n % chunk}
    # the cache-sized chunks would differ, so this pins the fused size
    assert all(program.chunk_blocks(n) != chunk
               for _, _, program in seen["replayed"])


# ----------------------------------------------------------- compile passes

def test_peephole_fuses_shuffles_on_conv2d_ssam():
    image = np.random.default_rng(6).random((64, 96), dtype=np.float32)
    CONV2D_SSAM_KERNEL._trace_cache.clear()
    with capture_traces() as capture:
        ssam_convolve2d(image, ConvolutionSpec.gaussian(5),
                        batch_size="replay")
    trace = capture.records[0].trace
    tiers, _ = _assign_tiers(trace, frozenset())
    fused = _fuse_shuffles(trace.nodes, tiers, np.dtype(trace.numpy_dtype),
                           32)
    assert fused
    for mad_id, shfl_id in fused.items():
        mad, shfl = trace.nodes[mad_id], trace.nodes[shfl_id]
        assert mad.params["kind"] == "mad" and shfl.op == "shfl"
        assert mad.inputs[2] == shfl_id


def test_peephole_keeps_a_shuffle_with_a_second_consumer():
    def shared_shuffle(ctx, src, wide, taps, scratch, dst, n):
        _, gidx = _ids(ctx)
        x = ctx.load_global(src, gidx)
        shifted = ctx.shfl_up(ctx.mul(x, ctx.full(2.0)), 1)
        acc = ctx.mad(x, x, shifted)
        ctx.store_global(dst, gidx, ctx.add(acc, ctx.add(shifted, x)))

    kernel = Kernel(shared_shuffle, name="shared_shuffle")
    trace = _record(kernel)
    tiers, _ = _assign_tiers(trace, frozenset())
    assert _fuse_shuffles(trace.nodes, tiers, np.dtype(trace.numpy_dtype),
                          32) == {}
    _assert_replay_matches_batched(kernel)


def test_memoizable_when_indices_are_data_free():
    assert _loaded_operands(_record(Kernel(_global_kernel,
                                           name="data_free"))) == ()


def test_not_memoizable_when_an_index_is_loaded():
    def gather(ctx, src, wide, taps, scratch, dst, n):
        _, gidx = _ids(ctx)
        raw = ctx.load_global(src, gidx)
        idx = (np.absolute(raw) * 10).astype(np.int64) % n
        ctx.store_global(dst, gidx, ctx.load_global(src, idx))

    kernel = Kernel(gather, name="loaded_index")
    assert _loaded_operands(_record(kernel))
    _assert_replay_matches_batched(kernel)
    program = next(iter(kernel._trace_cache.values()))
    assert not program.memoizable and not program.counter_cache


# ------------------------------------------------- row-form global accesses

def _conv2d_mixed(image, batch_size, max_blocks=None):
    """The SSAM conv2d with a float32 input buffer under float64 registers
    (the wrappers stage their input in the working precision)."""
    spec = ConvolutionSpec.gaussian(5)
    plan = conv2d_mod.plan_convolution(spec, "p100", "float64")
    height, width = image.shape
    memory = GlobalMemory()
    src = memory.to_device(image.astype(np.float32), name="src",
                           read_only=True)
    dst = memory.allocate((height, width), "float64", name="dst")
    weights = memory.to_device(spec.weights, name="weights", cached=True,
                               dtype=np.float64)
    anchor_x, anchor_y = spec.anchor
    launch = CONV2D_SSAM_KERNEL.launch(
        plan.launch_config(width, height),
        (src, dst, weights, width, height, spec.filter_width,
         spec.filter_height, plan.outputs_per_thread, anchor_x, anchor_y,
         plan.block_rows),
        architecture="p100", max_blocks=max_blocks, batch_size=batch_size)
    return dst.array, launch


def _engine_kernel(name, shape, batch_size, max_blocks=None):
    """One of the five engine-large kernels (``perfbench/inputs.py``'s
    filters and stencils) on a seeded input of ``shape``: its output and
    launch."""
    data = np.random.default_rng(sum(shape)).random(shape, dtype=np.float32)
    kwargs = dict(batch_size=batch_size, max_blocks=max_blocks,
                  keep_output=True)
    if name == "conv2d-mixed":
        return _conv2d_mixed(data, batch_size, max_blocks)
    if name == "conv2d":
        result = ssam_convolve2d(data, ConvolutionSpec.gaussian(9), **kwargs)
    elif name == "stencil2d":
        result = ssam_stencil2d(data, get_stencil("2d9pt"), **kwargs)
    elif name == "stencil3d":
        result = ssam_stencil3d(data, get_stencil("3d7pt"), **kwargs)
    elif name == "conv1d":
        result = ssam_convolve1d(data, np.linspace(0.1, 0.7, 7), **kwargs)
    else:
        result = ssam_scan(data, **kwargs)
    return result.output, result.launch


#: the five engine-large kernels at reduced sizes of the same rank, and
#: the conv2d with a float32 buffer under float64 registers
ENGINE_SHAPES = {"conv2d": (192, 256), "stencil2d": (192, 256),
                 "stencil3d": (16, 64, 64), "conv1d": (1 << 14,),
                 "scan": (1 << 14,), "conv2d-mixed": (192, 256)}
ENGINE_KERNELS = {"conv2d": CONV2D_SSAM_KERNEL,
                  "stencil2d": STENCIL2D_SSAM_KERNEL,
                  "stencil3d": STENCIL3D_SSAM_KERNEL,
                  "conv1d": CONV1D_SSAM_KERNEL, "scan": SCAN_SSAM_KERNEL,
                  "conv2d-mixed": CONV2D_SSAM_KERNEL}


@pytest.mark.parametrize("name", sorted(ENGINE_SHAPES))
def test_engine_kernels_address_every_chunk_access_by_rows(name):
    """Every chunk-tier global load and store of the five engine-large
    kernels takes the row form: a tracer change that sent one back to
    per-lane addressing fails here, not only in the benchmark.  Replay
    still equals the batched engine."""
    kernel = ENGINE_KERNELS[name]
    want, batched = _engine_kernel(name, ENGINE_SHAPES[name], "auto")
    kernel._trace_cache.clear()
    with capture_traces() as capture:
        got, replay = _engine_kernel(name, ENGINE_SHAPES[name], "replay")
    np.testing.assert_array_equal(got, want)
    assert replay.counters.as_dict() == batched.counters.as_dict()
    (record,) = capture.unique_records()
    tiers, _ = _assign_tiers(record.trace, frozenset())
    accesses = {node.id for node in record.trace.nodes
                if node.op in ("load_global", "store_global")
                and tiers[node.id] == TIER_CHUNK}
    (program,) = [p for p in kernel._trace_cache.values() if p is not None]
    assert accesses and accesses <= program.row_accesses
    # and the replayed chunks ran them: every access read or wrote rows of
    # some chunk in row form, the rows at the domain's edges by lane remaps
    def rows_ran(chunk, nid):
        fits = chunk.addresses[nid][2]
        return fits is None or (
            np.ndim(fits) == 2
            and chunk.exact_blocks.shape[0] < fits.shape[0])

    chunks = program.chunk_steps[0].memo.values()
    assert all(any(rows_ran(chunk, nid) for chunk in chunks)
               for nid in accesses)


def _edge_store_kernel(stride):
    """Each block stores one warp-row run per warp from ``block * stride -
    10``: a stride below the block size overlaps later blocks' rows.  The
    first rows are edge rows: a maximum clamps their index at 0 and an
    ordering cuts their mask, and with overlap a later block's rows in
    form write over them."""
    def body(ctx, src, wide, taps, scratch, dst, n):
        tid, gidx = _ids(ctx)
        x = ctx.block_idx_x * stride + tid - 10
        ctx.store_global(dst, np.maximum(x, 0), ctx.load_global(src, gidx),
                         mask=(x >= -5) & (ctx.lane_id >= 1))
    return Kernel(body, name=f"edge_store_{stride}")


@pytest.mark.parametrize("stride, disjoint", [(8, False), (THREADS, True)])
def test_edge_row_stores_keep_lane_order_where_rows_overlap(stride, disjoint):
    """A row-form store writes its edge rows lane by lane after the other
    rows only when no two rows' destinations overlap; where they do, the
    chunk scatters lane by lane in lane order, so later blocks still win,
    as in the batched engine."""
    kernel = _edge_store_kernel(stride)
    with _rows_on_every_chunk():
        _assert_replay_matches_batched(kernel)
    (program,) = kernel._trace_cache.values()
    rows = program.chunk_steps[0]
    (store,) = [nid for nid, access in rows.accesses.items() if access.store]
    edges = [chunk.edges[store] for chunk in rows.memo.values()
             if store in chunk.edges]
    assert edges and all((edge.keep is not None) is disjoint
                         for edge in edges)


def test_row_pass_waits_for_a_launch_whose_chunks_can_take_it():
    """A launch whose chunks hold fewer than ``_ROW_MIN_LANES`` lanes
    compiles without the row pass and runs every access per lane; the
    first launch of the same program whose chunks can take the row form
    compiles it again, once, with the pass."""
    kernel = CONV2D_SSAM_KERNEL
    shape = ENGINE_SHAPES["conv2d"]
    kernel._trace_cache.clear()
    for max_blocks, row_pass in ((4, False), (None, True), (4, True)):
        want, batched = _engine_kernel("conv2d", shape, "auto", max_blocks)
        got, replay = _engine_kernel("conv2d", shape, "replay", max_blocks)
        np.testing.assert_array_equal(got, want)
        assert replay.counters.as_dict() == batched.counters.as_dict()
        (program,) = kernel._trace_cache.values()
        assert program.row_pass is row_pass
        assert bool(program.row_accesses) is row_pass
        if max_blocks is None:
            compiled = program
    assert program is compiled


def _shape_for(name, sizes):
    if name == "stencil3d":
        return sizes[0] // 4 + 1, sizes[2] // 2 + 1, sizes[1]
    if name in ("conv1d", "scan"):
        return (sizes[0] * sizes[1],)
    return sizes[:2]


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(ENGINE_SHAPES)),
       sizes=st.tuples(st.integers(1, 40), st.integers(1, 400),
                       st.integers(1, 90)),
       max_blocks=st.one_of(st.none(), st.integers(2, 24)))
@example(name="conv2d", sizes=(9, 20, 1), max_blocks=None)  # all edges
@example(name="scan", sizes=(4, 128, 1), max_blocks=None)   # no edge
@example(name="conv2d-mixed", sizes=(40, 400, 1), max_blocks=None)
# a domain narrower than a warp row: the x clamp's lo and hi bind on a row
@example(name="stencil2d", sizes=(12, 5, 1), max_blocks=None)
@example(name="conv2d", sizes=(20, 33, 1), max_blocks=None)  # ws + 1 wide
# a depth the slices overrun: the z clamp binds
@example(name="stencil3d", sizes=(24, 40, 20), max_blocks=None)
def test_row_form_replay_matches_batched(name, sizes, max_blocks):
    """Property: replay, whose global accesses run in row form with lane
    remaps at domain edges, equals the batched engine bit for bit
    — outputs and every counter field — on the engine-large kernels, for
    any domain size and block sampling, also with a float32 buffer read
    into float64 registers; both with small chunks run per lane and with
    the row form forced onto them."""
    shape = _shape_for(name, sizes)
    want, batched = _engine_kernel(name, shape, "auto", max_blocks)
    kernel = ENGINE_KERNELS[name]
    for forced in (False, True):
        with _rows_on_every_chunk() if forced else contextlib.nullcontext():
            if forced:
                # a new program: the cached one's chunk memo holds the
                # unforced pass's all-per-lane chunks under the same keys
                kernel._trace_cache.clear()
            for _ in range(2):  # cold (records and compiles), then warm
                got, replay = _engine_kernel(name, shape, "replay", max_blocks)
                np.testing.assert_array_equal(got, want)
                assert (replay.counters.as_dict()
                        == batched.counters.as_dict())
    # every forced chunk ran the row prologue (rows that hold their form
    # as rows, edge rows by their lane remaps), unless no access has a row
    # form
    (program,) = [p for p in kernel._trace_cache.values() if p is not None]
    if program.row_accesses:
        chunks = list(program.chunk_steps[0].memo.values())
        assert chunks and all(base is not None for chunk in chunks
                              for base, _, _ in chunk.addresses.values())

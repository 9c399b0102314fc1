"""Deliberately buggy fixture kernels exercising the static verifier.

Three kernels, each planted with exactly one defect class the analyzer
must flag — and must locate (category, phase, access node):

* :func:`build_racy_stencil` — a shared-memory staging stencil whose
  barrier between the stage and the neighbour read is **missing**, so the
  read-write pair lands in one phase (a classic missing-``__syncthreads``
  race).
* :func:`build_oob_conv` — a 3-point convolution whose right-halo clamp is
  off by one (``min(i + 1, length)`` instead of ``length - 1``), reading
  one element past the buffer in the last block only.  The recorded chunk
  (block 0) executes cleanly; the bug is invisible to the dynamic engine
  unless the faulty block happens to run.
* :func:`build_strided_scan` — a scan staging copy through a stride-32
  shared tile, landing every lane of a warp in bank 0 (degree-32 conflict
  on 4-byte elements).

Each builder returns ``(kernel, config, args)`` ready for
:func:`repro.trace.replay.record_trace` /
:meth:`repro.gpu.kernel.Kernel.launch`; ``record_fixture_trace`` records
the leading block(s) the way the replay engine would.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes import resolve_precision
from repro.gpu.architecture import get_architecture
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import Kernel, LaunchConfig, block_schedule
from repro.gpu.memory import GlobalMemory
from repro.trace.replay import record_trace


def _linear_setup(num_blocks: int, block_threads: int, precision: str,
                  slack: int = 0):
    """Src/dst buffers covering the grid exactly, plus the launch config."""
    prec = resolve_precision(precision)
    length = num_blocks * block_threads
    memory = GlobalMemory()
    rng = np.random.default_rng(length)
    data = rng.standard_normal(length + slack).astype(prec.numpy_dtype)
    src = memory.to_device(data, name="src")
    dst = memory.allocate((length + slack,), prec, name="dst")
    config = LaunchConfig(grid_dim=(num_blocks, 1, 1),
                          block_threads=block_threads,
                          precision=prec)
    return src, dst, length, config


# ------------------------------------------------------------ racy stencil

def _racy_stencil_block(ctx, src, dst, length):
    tid = ctx.thread_idx_x
    gidx = ctx.block_idx_x * ctx.block_threads + tid
    mask = gidx < length
    safe = np.minimum(gidx, length - 1)
    tile = ctx.alloc_shared("tile", (ctx.block_threads,))
    values = ctx.load_global(src, safe, mask=mask)
    ctx.store_shared(tile, tid, values)
    # BUG: no ctx.syncthreads() here — the neighbour read below races with
    # the staging store of the thread one lane over
    left = ctx.load_shared(tile, np.maximum(tid - 1, 0))
    ctx.store_global(dst, safe, ctx.add(values, left), mask=mask)


def build_racy_stencil(num_blocks: int = 4, block_threads: int = 64,
                       precision: str = "float32"):
    src, dst, length, config = _linear_setup(num_blocks, block_threads,
                                             precision)
    kernel = Kernel(_racy_stencil_block, name="fixture_racy_stencil")
    return kernel, config, (src, dst, length)


def _fixed_stencil_block(ctx, src, dst, length):
    """The same stencil with the barrier in place (the control fixture)."""
    tid = ctx.thread_idx_x
    gidx = ctx.block_idx_x * ctx.block_threads + tid
    mask = gidx < length
    safe = np.minimum(gidx, length - 1)
    tile = ctx.alloc_shared("tile", (ctx.block_threads,))
    values = ctx.load_global(src, safe, mask=mask)
    ctx.store_shared(tile, tid, values)
    ctx.syncthreads()
    left = ctx.load_shared(tile, np.maximum(tid - 1, 0))
    ctx.store_global(dst, safe, ctx.add(values, left), mask=mask)


def build_fixed_stencil(num_blocks: int = 4, block_threads: int = 64,
                        precision: str = "float32"):
    src, dst, length, config = _linear_setup(num_blocks, block_threads,
                                             precision)
    kernel = Kernel(_fixed_stencil_block, name="fixture_fixed_stencil")
    return kernel, config, (src, dst, length)


# ----------------------------------------------------------- off-by-one OOB

def _oob_conv_block(ctx, src, dst, length):
    tid = ctx.thread_idx_x
    gidx = ctx.block_idx_x * ctx.block_threads + tid
    center_idx = np.minimum(gidx, length - 1)
    # BUG: the right-halo clamp is off by one — the last thread of the last
    # block reads src[length], one element past the allocation
    right_idx = np.minimum(gidx + 1, length)
    left_idx = np.maximum(gidx - 1, 0)
    center = ctx.load_global(src, center_idx)
    right = ctx.load_global(src, right_idx)
    left = ctx.load_global(src, left_idx)
    total = ctx.add(ctx.add(center, right), left)
    ctx.store_global(dst, center_idx, total)


def build_oob_conv(num_blocks: int = 4, block_threads: int = 64,
                   precision: str = "float32"):
    src, dst, length, config = _linear_setup(num_blocks, block_threads,
                                             precision)
    kernel = Kernel(_oob_conv_block, name="fixture_oob_conv")
    return kernel, config, (src, dst, length)


# --------------------------------------------------------- strided bank scan

def _strided_scan_block(ctx, src, dst, length):
    tid = ctx.thread_idx_x
    gidx = ctx.block_idx_x * ctx.block_threads + tid
    mask = gidx < length
    safe = np.minimum(gidx, length - 1)
    # BUG: stride-32 staging — every lane of a warp maps to bank 0, a
    # degree-32 conflict on 4-byte elements
    tile = ctx.alloc_shared("tile", (ctx.block_threads * 32,))
    values = ctx.load_global(src, safe, mask=mask)
    ctx.store_shared(tile, tid * 32, values)
    ctx.syncthreads()
    staged = ctx.load_shared(tile, tid * 32)
    ctx.store_global(dst, safe, staged, mask=mask)


def build_strided_scan(num_blocks: int = 2, block_threads: int = 64,
                       precision: str = "float32"):
    src, dst, length, config = _linear_setup(num_blocks, block_threads,
                                             precision)
    kernel = Kernel(_strided_scan_block, name="fixture_strided_scan")
    return kernel, config, (src, dst, length)


# ------------------------------------------------------------------ helpers

def record_fixture_trace(kernel, config, args, architecture="p100",
                         blocks: int = 1):
    """Record the leading ``blocks`` blocks eagerly, like the replay engine.

    Returns ``(trace, chunk_blocks, chunk_counters)`` — exactly the context
    :func:`repro.analysis.verify.verify_trace` takes for its
    static-vs-dynamic cross-check.
    """
    arch = get_architecture(architecture)
    counters = KernelCounters()
    chunk_blocks = block_schedule(config.grid_dim)[:blocks]
    trace = record_trace(kernel, config, args, arch, counters, chunk_blocks)
    return trace, chunk_blocks, counters.as_dict()

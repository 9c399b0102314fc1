"""Host staging of the kernel wrappers: no copy in for an input the
kernel only reads, one for an input it writes, none out.

Every wrapper hands the caller's array to :meth:`GlobalMemory.to_device`.
An input the kernel never writes (a convolution or scan source, the grid
of a single stencil step) is staged ``read_only``: a non-writeable view of
the caller's array when its dtype and C layout already match, otherwise
the one converting copy, and a kernel store into it is an error.  An input
the kernel writes (the first ping-pong buffer of a multi-step stencil) is
the one converting copy.  Wrappers return their own output buffer's array
instead of copying it back.  The caller's array is never written, whatever
its dtype or memory order.  The scan's host carry pass is one vectorized
add per element, in place, bit-identical to the per-block loop it
replaced (kept here as the reference).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.baselines.conv2d import (
    arrayfire_like_convolve2d,
    halide_like_convolve2d,
    npp_like_convolve2d,
)
from repro.baselines.stencil2d import (
    halide_like_stencil2d,
    original_stencil2d,
    ppcg_like_stencil2d,
)
from repro.baselines.stencil3d import original_stencil3d
from repro.convolution.spec import ConvolutionSpec
from repro.errors import SimulationError
from repro.gpu.kernel import (REPLAY_CACHE_BYTES, Kernel, LaunchConfig,
                              sampled_blocks)
from repro.gpu.memory import GlobalMemory
from repro.kernels import scan_ssam
from repro.kernels.conv1d_ssam import ssam_convolve1d
from repro.kernels.conv2d_ssam import ssam_convolve2d, ssam_convolve2d_chain
from repro.kernels.scan_ssam import carry_blocks, ssam_scan
from repro.kernels.stencil2d_masked import ssam_stencil2d_masked
from repro.kernels.stencil2d_ssam import ssam_stencil2d
from repro.kernels.stencil3d_ssam import ssam_stencil3d
from repro.stencils.catalog import get_stencil
from repro.trace.fusion import FusedStage, fused_launch

GAUSS = ConvolutionSpec.gaussian(3)
S2D = get_stencil("2d5pt")
S3D = get_stencil("3d7pt")
TAPS = np.array([0.25, 0.5, 0.25])

#: wrapper -> (input shape, call); stencils run two iterations, so the
#: final buffer is the one the input was staged into
WRAPPERS = {
    "ssam_convolve1d": ((300,), lambda x: ssam_convolve1d(x, TAPS)),
    "ssam_convolve2d": ((40, 48), lambda x: ssam_convolve2d(x, GAUSS)),
    "ssam_convolve2d_chain": (
        (40, 48), lambda x: ssam_convolve2d_chain(x, GAUSS)),
    "ssam_convolve2d_chain_fused": (
        (40, 48), lambda x: ssam_convolve2d_chain(x, GAUSS, fused=True)),
    "ssam_stencil2d": ((40, 48), lambda x: ssam_stencil2d(
        x, S2D, iterations=2)),
    "ssam_stencil2d_masked": ((40, 48), lambda x: ssam_stencil2d_masked(
        x, S2D, iterations=2)),
    "ssam_stencil3d": ((6, 20, 40), lambda x: ssam_stencil3d(
        x, S3D, iterations=2)),
    "ssam_scan": ((300,), lambda x: ssam_scan(x)),
    "original_stencil2d": ((40, 48), lambda x: original_stencil2d(
        x, S2D, iterations=2)),
    "ppcg_like_stencil2d": ((40, 48), lambda x: ppcg_like_stencil2d(
        x, S2D, iterations=2)),
    "halide_like_stencil2d": ((40, 48), lambda x: halide_like_stencil2d(
        x, S2D, iterations=2)),
    "original_stencil3d": ((6, 20, 40), lambda x: original_stencil3d(
        x, S3D, iterations=2)),
    "npp_like_convolve2d": ((40, 48), lambda x: npp_like_convolve2d(
        x, GAUSS)),
    "arrayfire_like_convolve2d": (
        (40, 48), lambda x: arrayfire_like_convolve2d(x, GAUSS)),
    "halide_like_convolve2d": ((40, 48), lambda x: halide_like_convolve2d(
        x, GAUSS)),
    "ssam_stencil2d_step": ((40, 48), lambda x: ssam_stencil2d(x, S2D)),
    "ssam_stencil2d_masked_step": ((40, 48), lambda x: ssam_stencil2d_masked(
        x, S2D)),
    "ssam_stencil3d_step": ((6, 20, 40), lambda x: ssam_stencil3d(x, S3D)),
    "original_stencil2d_step": ((40, 48), lambda x: original_stencil2d(
        x, S2D)),
    "ppcg_like_stencil2d_step": ((40, 48), lambda x: ppcg_like_stencil2d(
        x, S2D)),
    "halide_like_stencil2d_step": ((40, 48), lambda x: halide_like_stencil2d(
        x, S2D)),
    "original_stencil3d_step": ((6, 20, 40), lambda x: original_stencil3d(
        x, S3D)),
}

#: wrappers whose kernels only read the staged input: every one but the
#: two-step stencils, whose second step writes the first buffer
READ_ONLY = sorted(name for name in WRAPPERS
                   if "stencil" not in name or name.endswith("_step"))


def _input(shape, dtype):
    return np.random.default_rng(5).random(shape).astype(dtype)


@pytest.mark.parametrize("dtype", ["float32", "float64"],
                         ids=["same-dtype", "converting"])
@pytest.mark.parametrize("name", sorted(WRAPPERS))
def test_wrapper_neither_writes_nor_aliases_its_input(name, dtype,
                                                      monkeypatch):
    shape, call = WRAPPERS[name]
    data = _input(shape, dtype)
    before = data.copy()
    staged = []
    to_device = GlobalMemory.to_device

    def spy(memory, host_array, *args, **kwargs):
        staged.append(host_array)
        return to_device(memory, host_array, *args, **kwargs)

    monkeypatch.setattr(GlobalMemory, "to_device", spy)
    output = call(data).output
    assert np.array_equal(data, before)
    assert output.dtype == np.float32
    assert not np.shares_memory(output, data)
    # the wrapper made no copy of its own: ``to_device`` got the caller's
    # array and made the one (converting) copy
    assert any(host is data for host in staged)


@pytest.mark.parametrize("name", ["ssam_stencil2d", "original_stencil2d",
                                  "ssam_stencil3d", "original_stencil3d",
                                  "ssam_convolve2d_chain"])
def test_fortran_ordered_input_gives_the_c_ordered_output(name):
    """Regression: a Fortran-ordered input was staged Fortran-ordered, so
    the buffer's flat view was a copy and the second iteration's writes to
    it were lost."""
    shape, call = WRAPPERS[name]
    data = _input(shape, "float32")
    want = call(data).output
    got = call(np.asfortranarray(data)).output
    np.testing.assert_array_equal(got, want)


def _staged_input(monkeypatch, data):
    """Spy on ``to_device``: the buffers staged from ``data`` itself and the
    bytes each staging call allocated."""
    staged = []
    to_device = GlobalMemory.to_device

    def spy(memory, host_array, *args, **kwargs):
        tracemalloc.start()
        try:
            buffer = to_device(memory, host_array, *args, **kwargs)
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if host_array is data:
            staged.append((buffer, allocated))
        return buffer

    monkeypatch.setattr(GlobalMemory, "to_device", spy)
    return staged


def _staging_shape(name):
    """The wrapper's input shape, 1-D ones lengthened so that a copy stands
    out from the staging call's own small allocations."""
    shape, _ = WRAPPERS[name]
    return shape if len(shape) > 1 else (20 * shape[0],)


@pytest.mark.parametrize("name", READ_ONLY)
def test_read_only_input_is_staged_without_a_copy(name, monkeypatch):
    _, call = WRAPPERS[name]
    data = _input(_staging_shape(name), "float32")
    before = data.copy()
    staged = _staged_input(monkeypatch, data)
    call(data)
    (buffer, allocated), = staged
    assert np.shares_memory(buffer.array, data)
    assert not buffer.array.flags.writeable
    assert data.flags.writeable  # the caller's own array is untouched
    assert allocated < data.nbytes / 2
    np.testing.assert_array_equal(data, before)


@pytest.mark.parametrize("layout", ["converting", "not-c-ordered"])
@pytest.mark.parametrize("name", READ_ONLY)
def test_read_only_input_needing_a_copy_gets_exactly_one(name, layout,
                                                         monkeypatch):
    _, call = WRAPPERS[name]
    shape = _staging_shape(name)
    if layout == "converting":
        data = _input(shape, "float64")
    elif len(shape) > 1:
        data = np.asfortranarray(_input(shape, "float32"))
    else:  # a 1-D array is Fortran-ordered too: take a strided view
        data = _input((2 * shape[0],), "float32")[::2]
    before = data.copy()
    staged = _staged_input(monkeypatch, data)
    call(data)
    (buffer, allocated), = staged
    assert not np.shares_memory(buffer.array, data)
    assert not buffer.array.flags.writeable
    assert buffer.array.flags.c_contiguous
    # the staging allocated the buffer and nothing of its size besides
    assert buffer.nbytes <= allocated < 1.5 * buffer.nbytes
    np.testing.assert_array_equal(data, before)


@pytest.mark.parametrize("name", sorted(set(WRAPPERS) - set(READ_ONLY)))
def test_written_input_is_staged_as_one_writeable_copy(name, monkeypatch):
    _, call = WRAPPERS[name]
    data = _input(_staging_shape(name), "float32")
    staged = _staged_input(monkeypatch, data)
    call(data)
    (buffer, allocated), = staged
    assert not np.shares_memory(buffer.array, data)
    assert buffer.array.flags.writeable
    assert buffer.nbytes <= allocated < 1.5 * buffer.nbytes


# ------------------------------------------------- stores into a read-only input

SCALE_THREADS = 64
SCALE_GRID = (4, 1, 1)


def _scale_in_place(ctx, data, n):
    """A kernel that writes its own input: ``data *= 2``."""
    gidx = ctx.block_idx_x * ctx.block_threads + ctx.thread_idx_x
    ctx.store_global(data, gidx, ctx.mul(ctx.load_global(data, gidx),
                                         ctx.full(2.0)), mask=gidx < n)


def _copy(ctx, src, dst, n):
    gidx = ctx.block_idx_x * ctx.block_threads + ctx.thread_idx_x
    ctx.store_global(dst, gidx, ctx.load_global(src, gidx))


def _scale_launch(kernel, host, read_only, batch_size):
    memory = GlobalMemory()
    data = memory.to_device(host, name="caller_input", read_only=read_only)
    config = LaunchConfig(grid_dim=SCALE_GRID, block_threads=SCALE_THREADS)
    return kernel.launch(config, (data, host.size), batch_size=batch_size)


def _fused_scale_launch(stages_kernels, host, read_only):
    memory = GlobalMemory()
    data = memory.to_device(host, name="caller_input", read_only=read_only)
    copy = memory.allocate(host.shape, "float32", name="copy")
    config = LaunchConfig(grid_dim=SCALE_GRID, block_threads=SCALE_THREADS)
    copier, scaler = stages_kernels
    return fused_launch([FusedStage(copier, config, (data, copy, host.size)),
                         FusedStage(scaler, config, (data, host.size))])


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("engine", ["auto", "replay", "fused"])
def test_store_into_a_read_only_input_is_an_error(engine, warm):
    """A kernel that writes an input staged read-only fails with the
    engines' error naming the buffer, on every engine, and the caller's
    array keeps its values.  Warm: the program was compiled on a writeable
    staging first, so the replayed store step itself refuses."""
    host = _input((SCALE_GRID[0] * SCALE_THREADS,), "float32")
    before = host.copy()
    scaler = Kernel(_scale_in_place, name=f"scale_{engine}_{warm}")
    copier = Kernel(_copy, name=f"copy_{engine}_{warm}")
    if engine == "fused":
        def launch(read_only):
            return _fused_scale_launch((copier, scaler), host, read_only)
    else:
        def launch(read_only):
            return _scale_launch(scaler, host, read_only, engine)
    if warm:
        launch(False)  # a copy: the caller's array stays as it was
        np.testing.assert_array_equal(host, before)
    with pytest.raises(SimulationError, match="'caller_input'"):
        launch(True)
    np.testing.assert_array_equal(host, before)
    assert host.flags.writeable


# ------------------------------------------------------------ memory peaks

def _warm_peak_bytes(call) -> int:
    call()  # record, compile and memoize the counters
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.output is not None
    return peak


def test_warm_scan_launch_allocates_no_extra_full_size_copy():
    sequence = _input((1 << 20,), "float32")
    full = sequence.nbytes
    peak = _warm_peak_bytes(lambda: ssam_scan(sequence, batch_size="replay"))
    # the staged input and the device output (which the carry pass
    # updates in place and the wrapper returns) plus replay's chunk
    # temporaries; one more full-size copy would add ``full``
    assert peak < 2 * full + REPLAY_CACHE_BYTES + full / 2, peak / full


def test_warm_stencil2d_launch_allocates_no_extra_full_size_copy():
    grid = _input((2048, 1024), "float32")
    full = grid.nbytes
    peak = _warm_peak_bytes(lambda: ssam_stencil2d(grid, S2D,
                                                   batch_size="replay"))
    # the two ping-pong buffers (one is returned) plus replay's chunk
    # temporaries; one more full-size copy would add ``full``
    assert peak < 2 * full + REPLAY_CACHE_BYTES + full / 2, peak / full


# ---------------------------------------------------------- scan carry pass

def _carry_loop(partial, block_sums, block_threads):
    """The per-block carry loop the vectorized pass replaced."""
    length = partial.size
    carries = np.cumsum(block_sums, dtype=np.float64)
    result = partial.astype(np.float64)
    for block in range(1, len(block_sums)):
        start = block * block_threads
        stop = min(length, start + block_threads)
        result[start:stop] += carries[block - 1]
    return result


T = 128
LENGTHS = [1, T - 1, T, T + 1, 7 * T + 45, 100003]


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("length", LENGTHS)
def test_carry_blocks_is_bit_identical_to_the_block_loop(length, precision):
    rng = np.random.default_rng(length)
    blocks = -(-length // T)
    partial = rng.standard_normal(length).astype(precision)
    block_sums = rng.standard_normal(blocks).astype(precision) * 1e3
    got = partial.copy()
    carry_blocks(got, block_sums, T)
    want = _carry_loop(partial, block_sums, T).astype(precision)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("length, max_blocks", [
    (7 * T + 45, 3), (7 * T + 45, 4), (100003, 64), (T + 1, 1), (2 * T, 1)])
def test_sampled_carry_fills_the_idle_blocks_bit_for_bit(length, max_blocks,
                                                          precision):
    """A sampled launch's carry adds only on the blocks it ran and fills
    the others, whose scan is +0.0: the bits are those of the block loop,
    also where a carry is -0.0 (the add turns it into +0.0)."""
    rng = np.random.default_rng(length + max_blocks)
    blocks = -(-length // T)
    ran = sampled_blocks(blocks, max_blocks)
    partial = np.zeros(length, precision)
    block_sums = np.zeros(blocks, precision)
    for block in ran:
        stop = min(length, (block + 1) * T)
        partial[block * T:stop] = rng.standard_normal(stop - block * T)
        block_sums[block] = rng.standard_normal() * 1e3
    block_sums[:2] = -0.0  # the first carries are -0.0
    got = partial.copy()
    carry_blocks(got, block_sums, T, ran)
    want = _carry_loop(partial, block_sums, T).astype(precision)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("engine", ["auto", "replay"])
@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("length", LENGTHS)
def test_scan_output_is_the_block_loop_carry(length, precision, engine,
                                             monkeypatch):
    calls = _spy_carry(monkeypatch)
    sequence = np.random.default_rng(length).standard_normal(length)
    output = ssam_scan(sequence, precision=precision, block_threads=T,
                       batch_size=engine).output
    (partial, block_sums), = calls
    want = _carry_loop(partial, block_sums, T).astype(precision)
    assert output.tobytes() == want.tobytes()


@pytest.mark.parametrize("engine", ["auto", "replay"])
def test_sampled_scan_keeps_the_block_loop_carry(engine, monkeypatch):
    calls = _spy_carry(monkeypatch)
    sequence = np.random.default_rng(3).standard_normal(100003)
    result = ssam_scan(sequence, block_threads=T, batch_size=engine,
                       max_blocks=64, keep_output=True)
    assert result.launch.sampled
    (partial, block_sums), = calls
    want = _carry_loop(partial, block_sums, T).astype(np.float32)
    assert result.output.tobytes() == want.tobytes()


def _spy_carry(monkeypatch):
    """Record copies of the carry pass's inputs."""
    calls = []
    real = scan_ssam.carry_blocks

    def spy(scanned, block_sums, block_threads, ran=None):
        calls.append((scanned.copy(), block_sums.copy()))
        real(scanned, block_sums, block_threads, ran)

    monkeypatch.setattr(scan_ssam, "carry_blocks", spy)
    return calls

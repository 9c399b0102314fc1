"""Host staging of the kernel wrappers: one copy in, none out.

Every wrapper hands the caller's array to :meth:`GlobalMemory.to_device`,
which makes the one converting copy, and returns its own output buffer's
array instead of copying it back.  The caller's array is never written or
aliased, whatever its dtype or memory order.  The scan's host carry pass
is one vectorized add per element, in place, bit-identical to the
per-block loop it replaced (kept here as the reference).
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
from repro.gpu.kernel import REPLAY_CACHE_BYTES
from repro.gpu.memory import GlobalMemory
from repro.kernels import scan_ssam
from repro.kernels.conv1d_ssam import ssam_convolve1d
from repro.kernels.conv2d_ssam import ssam_convolve2d, ssam_convolve2d_chain
from repro.kernels.scan_ssam import carry_blocks, ssam_scan
from repro.kernels.stencil2d_masked import ssam_stencil2d_masked
from repro.kernels.stencil2d_ssam import ssam_stencil2d
from repro.kernels.stencil3d_ssam import ssam_stencil3d
from repro.stencils.catalog import get_stencil

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
}


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

    def spy(scanned, block_sums, block_threads):
        calls.append((scanned.copy(), block_sums.copy()))
        real(scanned, block_sums, block_threads)

    monkeypatch.setattr(scan_ssam, "carry_blocks", spy)
    return calls

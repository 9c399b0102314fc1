"""Microbenchmarks of the execution engines: blocks/second.

Runs the SSAM conv2d kernel on a fixed workload through the batched engine
and through the replay engine with its program cached (warm), and reports
each one's simulated-blocks-per-second throughput, so both are tracked in
the perf trajectory.  The replay run must equal the batched one bit for
bit, output and counters.

It also pins the replay engine's speed: on the flagship conv2d and
stencil2d kernels at 2048x2048, warm replay runs at least 3x the batched
engine's blocks/second; and, structurally rather than by a timer, that a
warm replay of the 2-D and 3-D kernels at the engine benchmark's shapes
runs no block per lane, edge blocks included.
"""

import functools
import time

import numpy as np
import pytest

from repro.convolution.spec import ConvolutionSpec
from repro.kernels.conv2d_ssam import CONV2D_SSAM_KERNEL, ssam_convolve2d
from repro.kernels.stencil2d_ssam import STENCIL2D_SSAM_KERNEL, ssam_stencil2d
from repro.kernels.stencil3d_ssam import STENCIL3D_SSAM_KERNEL, ssam_stencil3d
from repro.stencils.catalog import get_stencil
from repro.workloads import random_image

#: fixed workload: 5x5 Gaussian on a 512x256 image (320 blocks at P=4, B=128)
FILTER_SIZE = 5
IMAGE_WIDTH = 512
IMAGE_HEIGHT = 256

_SPEC = ConvolutionSpec.gaussian(FILTER_SIZE)
_IMAGE = random_image(IMAGE_WIDTH, IMAGE_HEIGHT, seed=20190617)


def _run(batch_size):
    return ssam_convolve2d(_IMAGE, _SPEC, "p100", batch_size=batch_size)


def test_bench_batched_engine_blocks_per_second(benchmark):
    """Tracked metric: batched-engine wall time on the fixed conv2d workload."""
    result = benchmark(_run, "auto")
    blocks = result.launch.blocks_executed
    seconds = benchmark.stats.stats.mean
    benchmark.extra_info["blocks_per_second"] = blocks / seconds
    print(f"\nbatched engine: {blocks} blocks, "
          f"{blocks / seconds:,.0f} blocks/s (mean over {benchmark.stats.stats.rounds} rounds)")


def test_bench_replay_engine_blocks_per_second(benchmark):
    """Tracked metric: warm replay wall time on the fixed conv2d workload
    (the first, recording launch runs before timing starts)."""
    batched = _run("auto")
    _run("replay")
    result = benchmark(_run, "replay")
    np.testing.assert_array_equal(result.output, batched.output)
    assert result.launch.counters.as_dict() == batched.launch.counters.as_dict()
    blocks = result.launch.blocks_executed
    seconds = benchmark.stats.stats.mean
    benchmark.extra_info["blocks_per_second"] = blocks / seconds
    print(f"\nreplay engine (warm): {blocks} blocks, "
          f"{blocks / seconds:,.0f} blocks/s (mean over {benchmark.stats.stats.rounds} rounds)")


#: the replay pin's workload: sampled launches over a 2048x2048 image
PIN_MAX_BLOCKS = 4096
PIN_REPEATS = 3
MIN_REPLAY_SPEEDUP = 3.0

_PIN_KERNELS = {
    "conv2d": lambda image, batch_size: ssam_convolve2d(
        image, ConvolutionSpec.gaussian(9), batch_size=batch_size,
        max_blocks=PIN_MAX_BLOCKS),
    "stencil2d": lambda image, batch_size: ssam_stencil2d(
        image, get_stencil("2d9pt"), batch_size=batch_size,
        max_blocks=PIN_MAX_BLOCKS),
}


@pytest.fixture(scope="module")
def pin_image():
    return np.random.default_rng(20190617).random((2048, 2048),
                                                  dtype=np.float32)


def _best_blocks_per_second(run, batch_size):
    best = float("inf")
    for _ in range(PIN_REPEATS):
        start = time.perf_counter()
        result = run(batch_size)
        best = min(best, time.perf_counter() - start)
    return result, result.launch.blocks_executed / best


@pytest.mark.parametrize("kernel", sorted(_PIN_KERNELS))
def test_warm_replay_is_3x_batched_on_flagship_kernels(kernel, pin_image):
    """Warm replay blocks/s >= 3x batched, best of 3 runs each; the first,
    recording replay launch is not timed."""
    run = functools.partial(_PIN_KERNELS[kernel], pin_image)
    batched, batched_rate = _best_blocks_per_second(run, "auto")
    run("replay")
    replay, replay_rate = _best_blocks_per_second(run, "replay")
    assert (replay.launch.counters.as_dict()
            == batched.launch.counters.as_dict())
    speedup = replay_rate / batched_rate
    print(f"\n{kernel}: warm replay {replay_rate:,.0f} blocks/s, batched "
          f"{batched_rate:,.0f} blocks/s ({speedup:.2f}x)")
    assert speedup >= MIN_REPLAY_SPEEDUP, (
        f"{kernel}: warm replay is {speedup:.2f}x batched, "
        f"needs >= {MIN_REPLAY_SPEEDUP}x")


#: the engine benchmark's sampling, and its conv2d, stencil2d and stencil3d
#: shapes (``perfbench/inputs.py``)
EDGE_MAX_BLOCKS = 2048
_EDGE_KERNELS = {
    "conv2d": (CONV2D_SSAM_KERNEL, (2048, 2048), lambda data, bs: (
        ssam_convolve2d(data, ConvolutionSpec.gaussian(9), batch_size=bs,
                        max_blocks=EDGE_MAX_BLOCKS, keep_output=True))),
    "stencil2d": (STENCIL2D_SSAM_KERNEL, (2048, 2048), lambda data, bs: (
        ssam_stencil2d(data, get_stencil("2d9pt"), batch_size=bs,
                       max_blocks=EDGE_MAX_BLOCKS, keep_output=True))),
    "stencil3d": (STENCIL3D_SSAM_KERNEL, (64, 256, 256), lambda data, bs: (
        ssam_stencil3d(data, get_stencil("3d7pt"), batch_size=bs,
                       max_blocks=EDGE_MAX_BLOCKS, keep_output=True))),
}


@pytest.mark.parametrize("kernel", sorted(_EDGE_KERNELS))
def test_warm_replay_runs_no_block_per_lane(kernel):
    """Every chunk a cold and a warm replay memoize runs all its blocks in
    row form: the edge blocks, where the replicate clamp and the output
    mask bind, take their lane remaps instead of per-lane steps."""
    program_kernel, shape, run = _EDGE_KERNELS[kernel]
    data = np.random.default_rng(1).random(shape, dtype=np.float32)
    program_kernel._trace_cache.clear()
    run(data, "replay")
    run(data, "replay")
    (program,) = program_kernel._trace_cache.values()
    chunks = program.chunk_steps[0].memo.values()
    assert chunks and all(chunk.exact_blocks is None for chunk in chunks)
    assert any(chunk.edges for chunk in chunks)

"""Microbenchmarks of the execution engines: blocks/second.

Runs the SSAM conv2d kernel on a fixed workload through the batched engine
and through the replay engine with its program cached (warm), and reports
each one's simulated-blocks-per-second throughput, so both are tracked in
the perf trajectory.  The replay run must equal the batched one bit for
bit, output and counters.

It also pins the replay engine's speed: on the flagship conv2d and
stencil2d kernels at 2048x2048, warm replay runs at least 3x the batched
engine's blocks/second.
"""

import functools
import time

import numpy as np
import pytest

from repro.convolution.spec import ConvolutionSpec
from repro.kernels.conv2d_ssam import ssam_convolve2d
from repro.kernels.stencil2d_ssam import ssam_stencil2d
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

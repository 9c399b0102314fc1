"""Microbenchmarks of the execution engines: blocks/second.

Runs the SSAM conv2d kernel on a fixed workload through the batched engine
and through the replay engine with its program cached (warm), and reports
each one's simulated-blocks-per-second throughput, so both are tracked in
the perf trajectory.  The replay run must equal the batched one bit for
bit, output and counters.
"""

import numpy as np

from repro.convolution.spec import ConvolutionSpec
from repro.kernels.conv2d_ssam import ssam_convolve2d
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

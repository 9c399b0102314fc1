"""Benchmark regenerating Figure 4 (2-D convolution runtime vs. filter size).

Prints, for each architecture, the per-filter-size runtimes of SSAM and of
every baseline at the paper's 8192^2 problem size, plus the headline
SSAM-vs-NPP speedup the paper reports as ~2.5x.
"""

import pytest

from repro.analysis.tables import format_series
from repro.experiments import figure4
from repro.experiments.runner import run_experiment_results

#: the sizes the assertions read from the full figure (every size 2..20 is
#: in ``ssam-repro -e figure4``)
BENCH_FILTER_SIZES = (2, 3, 5, 7, 9, 11, 13, 15, 17, 20)


@pytest.mark.parametrize("architecture", ["p100", "v100"])
def test_bench_figure4_panel(benchmark, architecture):
    result = benchmark(run_experiment_results, "figure4")["figure4"]
    labels = [f"{s}x{s}" for s in BENCH_FILTER_SIZES]
    series = result.series(figure4.IMPLEMENTATIONS, architecture, labels)
    summary = figure4.summarize(series)
    print("\n" + format_series(
        f"Figure 4 ({architecture.upper()}, float32, 8192x8192) — runtime",
        "filter", labels, series, unit="ms"))
    print(f"summary: {summary}")
    assert summary["ssam_vs_npp_geomean_speedup"] > 1.5
    assert summary["ssam_fastest_fraction"] >= 0.6


def test_bench_figure4_functional_small_image(benchmark):
    """Times the actual simulated SSAM kernel end to end on a small image."""
    import numpy as np

    from repro.convolution.spec import ConvolutionSpec
    from repro.kernels.conv2d_ssam import ssam_convolve2d
    from repro.workloads import random_image

    spec = ConvolutionSpec.gaussian(5)
    image = random_image(256, 128, seed=1)
    result = benchmark(ssam_convolve2d, image, spec, "p100")
    np.testing.assert_allclose(result.output, spec.reference(image), rtol=2e-5, atol=2e-5)

"""Benchmark regenerating Figure 5 (stencil throughput across Table 3).

Each panel prints GCells/s for SSAM and the baseline implementations at the
paper's domain sizes (8192^2 / 512^3).
"""

import pytest

from repro.analysis.tables import format_series
from repro.experiments import figure5
from repro.experiments.runner import run_experiment_results

#: the benchmarks the assertions read from the full figure (the whole suite
#: is in ``ssam-repro -e figure5``)
BENCH_BENCHMARKS = ("2d5pt", "2d9pt", "2d25pt", "2d81pt", "2d121pt", "3d7pt", "poisson")


@pytest.mark.parametrize("architecture, precision", [
    ("p100", "float32"), ("v100", "float32"), ("p100", "float64"), ("v100", "float64"),
])
def test_bench_figure5_panel(benchmark, architecture, precision):
    result = benchmark(run_experiment_results, "figure5")["figure5"]
    series = result.series(figure5.IMPLEMENTATIONS, f"{architecture}:{precision}",
                           BENCH_BENCHMARKS)
    wins, total = figure5.ssam_wins(series), len(BENCH_BENCHMARKS)
    print("\n" + format_series(
        f"Figure 5 ({architecture.upper()}, {precision}) — stencil throughput",
        "benchmark", list(BENCH_BENCHMARKS), series, unit="GCells/s"))
    print(f"SSAM fastest or tied on {wins}/{total} benchmarks")
    assert wins >= total - 3


def test_bench_figure5_functional_small_grid(benchmark):
    """Times the simulated SSAM 2-D stencil kernel on a small grid."""
    import numpy as np

    from repro.kernels.stencil2d_ssam import ssam_stencil2d
    from repro.stencils.catalog import get_stencil
    from repro.workloads import random_image

    spec = get_stencil("2d5pt")
    grid = random_image(256, 128, seed=2)
    result = benchmark(ssam_stencil2d, grid, spec, 1, "v100")
    np.testing.assert_allclose(result.output, spec.reference(grid), rtol=2e-5, atol=2e-5)

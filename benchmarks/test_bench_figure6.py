"""Benchmark regenerating Figure 6 (temporal blocking comparison)."""

import pytest

from repro.analysis.tables import format_series
from repro.experiments import figure6
from repro.experiments.runner import run_experiment_results
from repro.stencils.catalog import FIGURE6_BENCHMARKS


@pytest.mark.parametrize("architecture, precision", [
    ("p100", "float32"), ("p100", "float64"), ("v100", "float32"), ("v100", "float64"),
])
def test_bench_figure6_panel(benchmark, architecture, precision):
    result = benchmark(run_experiment_results, "figure6")["figure6"]
    series = result.series(figure6.IMPLEMENTATIONS, f"{architecture}:{precision}",
                           FIGURE6_BENCHMARKS)
    print("\n" + format_series(
        f"Figure 6 ({architecture.upper()}, {precision}) — temporal blocking",
        "benchmark", list(FIGURE6_BENCHMARKS), series, unit="GCells/s"))
    ssam = [v for v in series["ssam"] if v]
    single_pass_roofline = 120.0 if precision == "float32" else 60.0
    # temporal blocking should push most benchmarks past the single-pass roofline
    assert max(ssam) > single_pass_roofline


def test_bench_figure6_diffusion_reference_comparison(benchmark):
    """SSAM vs the published Diffusion/Bricks numbers on 3d7pt (P100, fp32)."""
    from repro.baselines.temporal import published_reference, ssam_temporal_stencil
    from repro.stencils.catalog import get_benchmark

    bench = get_benchmark("3d7pt")
    width, height, depth = bench.domain

    def run():
        return ssam_temporal_stencil(bench.spec, width, height, depth, time_steps=32,
                                     architecture="p100").gcells_per_second(bench.cells, 32)

    ssam = benchmark(run)
    bricks = published_reference("bricks", "p100", "float32")
    print(f"\nSSAM temporal 3d7pt P100: {ssam:.1f} GCells/s "
          f"(Bricks published: {bricks}, Diffusion published: "
          f"{published_reference('diffusion', 'p100', 'float32')})")
    assert ssam > bricks

#!/usr/bin/env python
"""Survey the Table 3 stencil suite: SSAM vs baselines at paper scale.

Regenerates a compact version of Figure 5 (P100, single precision) and
prints the Section 5 latency-model prediction next to the measured speedup
so the two can be compared — the experiment behind Figure 5 (README,
"Experiment pipeline"; its quick report is ``tests/golden/figure5.txt``).
"""

from repro.analysis.tables import format_series, format_table
from repro.core.performance_model import compare_latencies
from repro.experiments import figure5, run_experiment_results
from repro.stencils.catalog import CATALOG

BENCHMARKS = ("2d5pt", "2d9pt", "2d25pt", "2d81pt", "3d7pt", "poisson")


def main() -> None:
    result = run_experiment_results("figure5")["figure5"]
    series = result.series(figure5.IMPLEMENTATIONS, "p100:float32", BENCHMARKS)
    print(format_series("Figure 5 subset — Tesla P100, float32", "benchmark",
                        list(BENCHMARKS), series, unit="GCells/s"))
    print(f"\nSSAM fastest or tied on {figure5.ssam_wins(series)}/{len(BENCHMARKS)} "
          "benchmarks\n")

    rows = []
    for i, name in enumerate(BENCHMARKS):
        spec = CATALOG[name].spec
        comparison = compare_latencies("p100", spec.footprint_width, spec.footprint_height)
        ssam = series["ssam"][i]
        smem = series["ppcg"][i]
        rows.append({
            "benchmark": name,
            "latency_model_speedup": round(comparison.speedup, 2),
            "measured_speedup_vs_ppcg": round(ssam / smem, 2),
        })
    print(format_table(rows))


if __name__ == "__main__":
    main()

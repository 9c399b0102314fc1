"""Figure 5: stencil throughput (GCells/s) across the Table 3 suite.

Four panels: {P100, V100} x {single, double} precision, comparing SSAM with
the "original", "reordered", "unrolled", ppcg and Halide implementations on
the 8192^2 / 512^3 domains.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.tables import format_series
from ..baselines.stencil2d import (
    halide_like_stencil2d_analytic,
    original_stencil2d_analytic,
    ppcg_like_stencil2d_analytic,
    reordered_stencil2d,
    unrolled_stencil2d,
)
from ..baselines.stencil3d import original_stencil3d_analytic, shared_stencil3d
from ..kernels.stencil2d_ssam import analytic_launch as ssam_stencil2d_analytic
from ..kernels.stencil3d_ssam import analytic_launch as ssam_stencil3d_analytic
from ..stencils.catalog import CATALOG, FIGURE5_BENCHMARKS, StencilBenchmark
from .jobs import SimulationJob
from .results import ExperimentResult, Measurement

IMPLEMENTATIONS = ("original", "reordered", "unrolled", "ppcg", "halide", "ssam")
#: benchmark subset used by ``--quick`` runs
QUICK_BENCHMARKS = ("2d5pt", "2d9pt", "2d25pt", "3d7pt", "poisson")
#: time steps of every throughput measurement
ITERATIONS = 1
#: the four panels of the figure
PANELS = (("figure5a", "p100", "float32"), ("figure5b", "v100", "float32"),
          ("figure5c", "p100", "float64"), ("figure5d", "v100", "float64"))

#: approximate values read off the paper's Figure 5 for the SSAM series
#: (GCells/s); no report reads them yet (the measured series is pinned by
#: ``tests/golden/figure5.txt``)
PAPER_SSAM_GCELLS = {
    ("p100", "float32", "2d5pt"): 60.0, ("p100", "float32", "3d7pt"): 48.0,
    ("v100", "float32", "2d5pt"): 90.0, ("v100", "float32", "3d7pt"): 70.0,
    ("p100", "float64", "2d5pt"): 32.0, ("v100", "float64", "2d5pt"): 45.0,
}


def _throughput(result, benchmark: StencilBenchmark, iterations: int) -> float:
    return result.gcells_per_second(benchmark.cells, iterations)


def run_benchmark(benchmark: StencilBenchmark, architecture: str, precision: str,
                  iterations: int = 1) -> Dict[str, float]:
    """GCells/s of every implementation on one Table 3 benchmark."""
    spec = benchmark.spec
    results: Dict[str, float] = {}
    if spec.dims == 2:
        width, height = benchmark.domain
        results["ssam"] = _throughput(
            ssam_stencil2d_analytic(spec, width, height, iterations, architecture, precision),
            benchmark, iterations)
        results["original"] = _throughput(
            original_stencil2d_analytic(spec, width, height, iterations, architecture,
                                        precision),
            benchmark, iterations)
        results["reordered"] = _throughput(
            reordered_stencil2d(spec, width, height, iterations, architecture, precision),
            benchmark, iterations)
        results["unrolled"] = _throughput(
            unrolled_stencil2d(spec, width, height, iterations, architecture, precision),
            benchmark, iterations)
        results["ppcg"] = _throughput(
            ppcg_like_stencil2d_analytic(spec, width, height, iterations, architecture,
                                         precision),
            benchmark, iterations)
        results["halide"] = _throughput(
            halide_like_stencil2d_analytic(spec, width, height, iterations,
                                           architecture, precision),
            benchmark, iterations)
    else:
        width, height, depth = benchmark.domain
        results["ssam"] = _throughput(
            ssam_stencil3d_analytic(spec, width, height, depth, iterations, architecture,
                                    precision),
            benchmark, iterations)
        results["original"] = _throughput(
            original_stencil3d_analytic(spec, width, height, depth, iterations,
                                        architecture, precision),
            benchmark, iterations)
        shared = _throughput(
            shared_stencil3d(spec, width, height, depth, iterations, architecture, precision),
            benchmark, iterations)
        results["ppcg"] = shared
        results["halide"] = shared * 0.9
        # the register-reordering schemes degrade gracefully to the naive
        # traffic profile in 3-D (column reuse only along y)
        results["reordered"] = results["original"] * 1.25
        results["unrolled"] = results["original"] * 1.1
    return results


def _measure_benchmark(benchmark: str, architecture: str, precision: str,
                       iterations: int) -> Dict[str, float]:
    """Worker: GCells/s of every implementation on one benchmark."""
    row = run_benchmark(CATALOG[benchmark], architecture, precision, iterations)
    return {"gcells_per_second": row}


# --------------------------------------------------------------- pipeline

def _benchmarks(quick: bool) -> Tuple[str, ...]:
    return QUICK_BENCHMARKS if quick else FIGURE5_BENCHMARKS


def _job_key(architecture: str, precision: str, benchmark: str) -> str:
    return f"figure5:{architecture}:{precision}:{benchmark}:i{ITERATIONS}"


def jobs(quick: bool = False) -> List[SimulationJob]:
    """One independent job per (panel, benchmark)."""
    return [
        SimulationJob(
            key=_job_key(arch, precision, name),
            func="repro.experiments.figure5:_measure_benchmark",
            params={"benchmark": name, "architecture": arch,
                    "precision": precision, "iterations": ITERATIONS},
            cache_fields={"kernel": "stencil_suite",
                          "spec": CATALOG[name].spec.fingerprint(),
                          "architecture": arch, "precision": precision,
                          "engine": "analytic",
                          "domain": list(CATALOG[name].domain)},
        )
        for _, arch, precision in PANELS
        for name in _benchmarks(quick)
    ]


def ssam_wins(series: Dict[str, List[Optional[float]]]) -> int:
    """Benchmarks on which SSAM is at least as fast as every other series."""
    return sum(
        1 for i, value in enumerate(series["ssam"])
        if value >= max(values[i] for impl, values in series.items()
                        if impl != "ssam" and values[i] is not None)
    )


def assemble(payloads: Dict[str, Dict[str, object]],
             quick: bool = False) -> ExperimentResult:
    """Fold per-benchmark payloads into the typed four-panel result."""
    names = _benchmarks(quick)
    measurements: List[Measurement] = []
    panels: Dict[str, Dict[str, object]] = {}
    for panel_key, arch, precision in PANELS:
        series: Dict[str, List[Optional[float]]] = {impl: [] for impl in IMPLEMENTATIONS}
        for name in names:
            row = payloads[_job_key(arch, precision, name)]["gcells_per_second"]
            for impl in IMPLEMENTATIONS:
                value = row.get(impl)
                series[impl].append(value)
                measurements.append(Measurement(
                    kernel=impl, architecture=f"{arch}:{precision}",
                    workload=name,
                    config={"iterations": ITERATIONS,
                            "domain": list(CATALOG[name].domain)},
                    value=value, unit="GCells/s"))
        panels[panel_key] = {
            "architecture": arch,
            "precision": precision,
            "benchmarks": list(names),
            "ssam_wins": ssam_wins(series),
            "total": len(names),
        }
    return ExperimentResult(
        experiment="figure5",
        title="Figure 5 — stencil throughput across the Table 3 suite",
        quick=quick,
        measurements=measurements,
        metadata={"panels": panels, "iterations": ITERATIONS,
                  "implementations": list(IMPLEMENTATIONS)},
    )


def render(result: ExperimentResult) -> str:
    """Format the four-panel report from the typed result (pure view)."""
    chunks = []
    for panel_key, panel in result.metadata["panels"].items():
        arch, precision = panel["architecture"], panel["precision"]
        series = result.series(result.metadata["implementations"],
                               f"{arch}:{precision}", panel["benchmarks"])
        chunks.append(format_series(
            f"Figure {panel_key[-2:]} — stencil throughput, {arch.upper()} "
            f"{precision}",
            "benchmark", panel["benchmarks"], series, unit="GCells/s"))
        chunks.append(f"SSAM fastest or tied on {panel['ssam_wins']}/{panel['total']} benchmarks")
    return "\n\n".join(chunks)

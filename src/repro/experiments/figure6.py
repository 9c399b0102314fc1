"""Figure 6: comparison with temporal/spatial blocking libraries.

Four panels ({P100, V100} x {single, double}) over the benchmarks 2d5pt,
2d9pt, 3d7pt, 3d13pt and poisson, comparing SSAM (register temporal
blocking) with StencilGen-style shared-memory temporal blocking and the
published Diffusion / Bricks numbers.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.tables import format_series
from ..baselines.temporal import (
    published_reference,
    ssam_temporal_stencil,
    stencilgen_like_stencil,
)
from ..stencils.catalog import CATALOG, FIGURE6_BENCHMARKS
from .jobs import SimulationJob
from .results import ExperimentResult, Measurement

IMPLEMENTATIONS = ("stencilgen", "ssam", "diffusion", "bricks")
#: number of fused/total time steps used for the throughput evaluation
TIME_STEPS = 64
#: the four panels of the figure
PANELS = (("figure6a", "p100", "float32"), ("figure6b", "p100", "float64"),
          ("figure6c", "v100", "float32"), ("figure6d", "v100", "float64"))


def _measure_benchmark(benchmark: str, architecture: str, precision: str,
                       time_steps: int) -> Dict[str, object]:
    """Worker: temporal-blocking throughputs on one benchmark.

    The ``diffusion``/``bricks`` series are published reference numbers
    (table lookups, only reported for 3d7pt) and ride along in the payload
    so the panel is complete.
    """
    bench = CATALOG[benchmark]
    spec = bench.spec
    if spec.dims == 2:
        width, height = bench.domain
        depth = 1
    else:
        width, height, depth = bench.domain
    sg = stencilgen_like_stencil(spec, width, height, depth, time_steps=time_steps,
                                 architecture=architecture, precision=precision)
    ss = ssam_temporal_stencil(spec, width, height, depth, time_steps=time_steps,
                               architecture=architecture, precision=precision)
    published = benchmark == "3d7pt"
    return {
        "gcells_per_second": {
            "stencilgen": sg.gcells_per_second(bench.cells, time_steps),
            "ssam": ss.gcells_per_second(bench.cells, time_steps),
            "diffusion": published_reference("diffusion", architecture, precision)
            if published else None,
            "bricks": published_reference("bricks", architecture, precision)
            if published else None,
        },
    }


# --------------------------------------------------------------- pipeline

def _job_key(architecture: str, precision: str, benchmark: str) -> str:
    return f"figure6:{architecture}:{precision}:{benchmark}:t{TIME_STEPS}"


def jobs(quick: bool = False) -> List[SimulationJob]:
    """One independent job per (panel, benchmark).

    Figure 6's benchmark list is already small (5 entries), so ``--quick``
    keeps the full sweep.
    """
    return [
        SimulationJob(
            key=_job_key(arch, precision, name),
            func="repro.experiments.figure6:_measure_benchmark",
            params={"benchmark": name, "architecture": arch,
                    "precision": precision, "time_steps": TIME_STEPS},
            cache_fields={"kernel": "temporal_blocking",
                          "spec": CATALOG[name].spec.fingerprint(),
                          "architecture": arch, "precision": precision,
                          "engine": "analytic",
                          "domain": list(CATALOG[name].domain)},
        )
        for _, arch, precision in PANELS
        for name in FIGURE6_BENCHMARKS
    ]


def assemble(payloads: Dict[str, Dict[str, object]],
             quick: bool = False) -> ExperimentResult:
    """Fold per-benchmark payloads into the typed four-panel result."""
    measurements: List[Measurement] = []
    panels: Dict[str, Dict[str, object]] = {}
    for panel_key, arch, precision in PANELS:
        for name in FIGURE6_BENCHMARKS:
            row = payloads[_job_key(arch, precision, name)]["gcells_per_second"]
            for impl in IMPLEMENTATIONS:
                measurements.append(Measurement(
                    kernel=impl, architecture=f"{arch}:{precision}",
                    workload=name,
                    config={"time_steps": TIME_STEPS,
                            "domain": list(CATALOG[name].domain)},
                    value=row.get(impl), unit="GCells/s"))
        panels[panel_key] = {
            "architecture": arch,
            "precision": precision,
            "benchmarks": list(FIGURE6_BENCHMARKS),
        }
    return ExperimentResult(
        experiment="figure6",
        title="Figure 6 — temporal blocking comparison",
        quick=quick,
        measurements=measurements,
        metadata={"panels": panels, "time_steps": TIME_STEPS,
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
            f"Figure {panel_key[-2:]} — temporal blocking, {arch.upper()} "
            f"{precision}",
            "benchmark", panel["benchmarks"], series, unit="GCells/s"))
    return "\n\n".join(chunks)

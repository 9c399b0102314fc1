"""Figure 4: 2-D convolution runtime vs. filter size on P100 and V100.

The paper sweeps square filters from 2x2 to 20x20 over an 8192^2 single
precision image (P=4, B=128) and compares SSAM against ArrayFire, NPP,
cuFFT, Halide and cuDNN.  This module regenerates both panels from the
kernels' cost profiles on the simulated architectures.

Structure (shared by every experiment module):

* ``_measure_cell`` — the simulation worker: one (implementation,
  filter size, architecture) point, returning a JSON payload;
* ``jobs``/``assemble``/``render`` — the only surface, the one the
  runner calls: independent jobs, deterministic folding of their payloads
  into a typed :class:`~repro.experiments.results.ExperimentResult`, and
  the pure text view over that result.  Callers that want a subset of the
  figure select its points from the result (``series``) and apply
  :func:`summarize` to them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..analysis.metrics import geometric_mean, speedup
from ..analysis.tables import format_series
from ..baselines.direct import ARRAYFIRE_MAX_FILTER
from ..convolution.spec import ConvolutionSpec
from ..scenarios import get_scenario
from .jobs import SimulationJob
from .results import ExperimentResult, Measurement

#: evaluation parameters from Section 6.2
IMAGE_WIDTH = 8192
IMAGE_HEIGHT = 8192
FILTER_SIZES = tuple(range(2, 21))
#: reduced sweep used by ``--quick`` runs
QUICK_FILTER_SIZES = (3, 5, 9, 13, 17, 20)
IMPLEMENTATIONS = ("ssam", "arrayfire", "npp", "halide", "cudnn", "cufft")
#: the two panels of the figure
PANELS = (("figure4a", "p100"), ("figure4b", "v100"))


def _scenario_name(implementation: str) -> str:
    """Map a figure series name onto its registered conv2d scenario."""
    return "conv2d" if implementation == "ssam" else f"conv2d-{implementation}"


def _measure_cell(implementation: str, filter_size: int, architecture: str,
                  precision: str, width: int, height: int) -> Dict[str, object]:
    """Worker: payload of one Figure 4 cell (time + counters + config).

    Implementations are looked up in the scenario registry and evaluated
    through their registered analytic engine; ArrayFire has no kernel above
    its largest filter, so its cell there carries no time.
    """
    if implementation == "arrayfire" and filter_size > ARRAYFIRE_MAX_FILTER:
        return {"milliseconds": None}
    scenario = get_scenario(_scenario_name(implementation))
    result = scenario.run_analytic(ConvolutionSpec.gaussian(filter_size),
                                   {"width": width, "height": height},
                                   architecture, precision)
    return {
        "milliseconds": result.milliseconds,
        "counters": result.launch.counters.as_dict(),
        "config": result.launch.config.to_dict(),
        "kernel_name": result.launch.kernel_name,
    }


# --------------------------------------------------------------- pipeline

@lru_cache(maxsize=None)
def _spec_fingerprint(filter_size: int) -> str:
    """Fingerprint of the Gaussian sweep spec at one size (job cache keys)."""
    return ConvolutionSpec.gaussian(filter_size).fingerprint()


def _filter_sizes(quick: bool) -> Tuple[int, ...]:
    return QUICK_FILTER_SIZES if quick else FILTER_SIZES


def _job_key(architecture: str, implementation: str, filter_size: int) -> str:
    return (f"figure4:{architecture}:float32:{implementation}:{filter_size}:"
            f"{IMAGE_WIDTH}x{IMAGE_HEIGHT}")


def jobs(quick: bool = False) -> List[SimulationJob]:
    """One independent job per (panel, implementation, filter size)."""
    return [
        SimulationJob(
            key=_job_key(arch, impl, size),
            func="repro.experiments.figure4:_measure_cell",
            params={"implementation": impl, "filter_size": size,
                    "architecture": arch, "precision": "float32",
                    "width": IMAGE_WIDTH, "height": IMAGE_HEIGHT},
            cache_fields={"kernel": f"conv2d:{impl}",
                          "spec": _spec_fingerprint(size),
                          "architecture": arch, "precision": "float32",
                          "engine": "analytic",
                          "domain": [IMAGE_HEIGHT, IMAGE_WIDTH]},
        )
        for _, arch in PANELS
        for impl in IMPLEMENTATIONS
        for size in _filter_sizes(quick)
    ]


def assemble(payloads: Dict[str, Dict[str, object]],
             quick: bool = False) -> ExperimentResult:
    """Fold cell payloads into the typed two-panel result (fixed order)."""
    sizes = _filter_sizes(quick)
    measurements: List[Measurement] = []
    panels: Dict[str, Dict[str, object]] = {}
    for panel_key, arch in PANELS:
        series: Dict[str, List[Optional[float]]] = {}
        for impl in IMPLEMENTATIONS:
            values: List[Optional[float]] = []
            for size in sizes:
                payload = payloads[_job_key(arch, impl, size)]
                ms = payload.get("milliseconds")
                values.append(ms)
                measurements.append(Measurement(
                    kernel=impl, architecture=arch, workload=f"{size}x{size}",
                    config=payload.get("config") or {},
                    counters=payload.get("counters"),
                    milliseconds=ms, value=ms, unit="ms"))
            series[impl] = values
        panels[panel_key] = {
            "architecture": arch,
            "precision": "float32",
            "filter_sizes": list(sizes),
            "summary": summarize(series),
        }
    return ExperimentResult(
        experiment="figure4",
        title="Figure 4 — 2D convolution runtime vs. filter size",
        quick=quick,
        measurements=measurements,
        metadata={"panels": panels, "width": IMAGE_WIDTH, "height": IMAGE_HEIGHT,
                  "implementations": list(IMPLEMENTATIONS)},
    )


def summarize(series: Dict[str, List[Optional[float]]]) -> Dict[str, object]:
    """Headline comparisons: SSAM speedup over NPP/ArrayFire, win counts."""
    ssam = series["ssam"]
    npp_speedups = [speedup(n, s) for n, s in zip(series["npp"], ssam) if n and s]
    af_speedups = [speedup(a, s) for a, s in zip(series["arrayfire"], ssam) if a and s]
    wins = 0
    total = 0
    for i, value in enumerate(ssam):
        competitors = {name: series[name][i] for name in series
                       if name != "ssam" and series[name][i] is not None}
        if not competitors:
            continue
        total += 1
        if value <= min(competitors.values()):
            wins += 1
    return {
        "ssam_vs_npp_geomean_speedup": geometric_mean(npp_speedups) if npp_speedups else None,
        "ssam_vs_arrayfire_geomean_speedup": geometric_mean(af_speedups) if af_speedups else None,
        "ssam_fastest_fraction": wins / total if total else None,
    }


def render(result: ExperimentResult) -> str:
    """Format the two-panel report from the typed result (pure view)."""
    width = result.metadata["width"]
    height = result.metadata["height"]
    chunks = []
    for panel_key, panel in result.metadata["panels"].items():
        arch = panel["architecture"]
        sizes = panel["filter_sizes"]
        labels = [f"{s}x{s}" for s in sizes]
        series = result.series(result.metadata["implementations"], arch, labels)
        chunks.append(format_series(
            f"Figure {panel_key[-2:]} — 2D convolution runtime, {arch.upper()} "
            f"({panel['precision']}, {width}x{height})",
            "filter", labels, series, unit="ms"))
        chunks.append(f"summary: {panel['summary']}")
    return "\n\n".join(chunks)

"""Table 3: the stencil benchmark suite (order k and FLOPs per point)."""

from __future__ import annotations

from typing import Dict, List

from ..analysis.tables import format_table
from ..stencils.catalog import CATALOG, DOMAIN_2D, DOMAIN_3D, table3_rows
from .jobs import SimulationJob
from .results import ExperimentResult, Measurement

TITLE = (f"Table 3 — Stencil benchmarks (2-D domain {DOMAIN_2D[0]}^2, "
         f"3-D domain {DOMAIN_3D[0]}^3)")

#: (k, FPP) from the paper's Table 3
PAPER_TABLE3 = {
    "2d5pt": (1, 9), "2d9pt": (2, 17), "2d13pt": (3, 25), "2d17pt": (4, 33),
    "2d21pt": (5, 41), "2ds25pt": (6, 49), "2d25pt": (2, 33), "2d64pt": (4, 73),
    "2d81pt": (4, 95), "2d121pt": (5, 241), "3d7pt": (1, 13), "3d13pt": (2, 25),
    "3d27pt": (1, 30), "3d125pt": (2, 130), "poisson": (1, 21),
}


def _measure_rows() -> Dict[str, object]:
    """Worker: the Table 3 rows (stencil catalog vs. paper values)."""
    rows = []
    for row in table3_rows():
        name = row["benchmark"]
        paper_k, paper_fpp = PAPER_TABLE3[name]
        bench = CATALOG[name]
        rows.append({
            **row,
            "points": bench.spec.num_points,
            "domain": "x".join(str(d) for d in bench.domain),
            "paper_k": paper_k,
            "paper_fpp": paper_fpp,
            "matches_paper": (row["k"] == paper_k and row["fpp"] == paper_fpp),
        })
    return {"rows": rows}


# --------------------------------------------------------------- pipeline

def jobs(quick: bool = False) -> List[SimulationJob]:
    """Single job — catalog metadata only, no simulation to trim under
    ``quick`` (the flag is still threaded through for uniformity)."""
    return [SimulationJob(
        key="table3:rows",
        func="repro.experiments.table3:_measure_rows",
        cache_fields={"kernel": "table3_catalog", "engine": "catalog",
                      "specs": sorted(CATALOG[name].spec.fingerprint()
                                      for name in CATALOG)},
    )]


def assemble(payloads: Dict[str, Dict[str, object]],
             quick: bool = False) -> ExperimentResult:
    rows = payloads["table3:rows"]["rows"]
    measurements = [
        Measurement(kernel="table3", workload=row["benchmark"], extra=row)
        for row in rows
    ]
    return ExperimentResult(experiment="table3", title=TITLE, quick=quick,
                            measurements=measurements)


def render(result: ExperimentResult) -> str:
    return f"{TITLE}\n" + format_table(result.rows())

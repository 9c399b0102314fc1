"""Table 1: shared memory and register files on the evaluated GPUs."""

from __future__ import annotations

from typing import Dict, List

from ..analysis.tables import format_table
from ..gpu.architecture import table1_rows
from .jobs import SimulationJob
from .results import ExperimentResult, Measurement

TITLE = "Table 1 — Shared memory and register files on GPUs"

#: the values printed in the paper's Table 1, for comparison
PAPER_TABLE1 = {
    "Tesla K40": {"shared_memory_per_sm_kib": 48, "registers_per_sm": 65536, "sm_count": 15},
    "Tesla M40": {"shared_memory_per_sm_kib": 96, "registers_per_sm": 65536, "sm_count": 24},
    "Tesla P100": {"shared_memory_per_sm_kib": 64, "registers_per_sm": 65536, "sm_count": 56},
    "Tesla V100": {"shared_memory_per_sm_kib": 96, "registers_per_sm": 65536, "sm_count": 80},
}


def _measure_rows() -> Dict[str, object]:
    """Worker: the Table 1 rows (architecture presets vs. paper values)."""
    rows = []
    for row in table1_rows():
        paper = PAPER_TABLE1[row["gpu"]]
        rows.append({**row, "matches_paper": all(row[k] == v for k, v in paper.items())})
    return {"rows": rows}


# --------------------------------------------------------------- pipeline

def jobs(quick: bool = False) -> List[SimulationJob]:
    """Single job — the table is static preset metadata, so ``quick`` has
    no work to trim (the flag is still threaded through for uniformity)."""
    return [SimulationJob(
        key="table1:rows",
        func="repro.experiments.table1:_measure_rows",
        cache_fields={"kernel": "table1_presets", "engine": "preset"},
    )]


def assemble(payloads: Dict[str, Dict[str, object]],
             quick: bool = False) -> ExperimentResult:
    rows = payloads["table1:rows"]["rows"]
    measurements = [
        Measurement(kernel="table1", architecture=row["gpu"],
                    workload=row["gpu"], extra=row)
        for row in rows
    ]
    return ExperimentResult(experiment="table1", title=TITLE, quick=quick,
                            measurements=measurements)


def render(result: ExperimentResult) -> str:
    return f"{TITLE}\n" + format_table(result.rows())

"""Table 2: measured operation latencies (cycles/warp) on P100 and V100."""

from __future__ import annotations

from typing import Dict, List

from ..analysis.tables import format_table
from ..gpu.architecture import get_architecture
from ..gpu.microbench import TABLE2_OPERATIONS, measure_latency
from .jobs import SimulationJob
from .results import ExperimentResult, Measurement

TITLE = "Table 2 — Latency of operations (cycles/warp), micro-benchmarked"
#: dependent-chain length of the full micro-benchmark
CHAIN_LENGTH = 512
#: shorter chain used by --quick runs (latency = cycles / length, so the
#: measured value is identical; only the functional warm-up loop shrinks)
QUICK_CHAIN_LENGTH = 128
ARCHITECTURES = ("p100", "v100")

#: the paper's measured values, cycles per warp
PAPER_TABLE2 = {
    ("Tesla P100", "shfl_up_sync"): 33.0,
    ("Tesla P100", "add, sub, mad"): 6.0,
    ("Tesla P100", "smem_read"): 33.0,
    ("Tesla V100", "shfl_up_sync"): 22.0,
    ("Tesla V100", "add, sub, mad"): 4.0,
    ("Tesla V100", "smem_read"): 27.0,
}


def _measure_latency(architecture: str, operation: str,
                     chain_length: int) -> Dict[str, object]:
    """Worker: one (GPU, operation) dependent-chain micro-benchmark."""
    arch = get_architecture(architecture)
    return {"gpu": arch.name,
            "latency_cycles": measure_latency(arch, operation, chain_length)}


def _compare_row(gpu: str, label: str, latency: float) -> Dict[str, object]:
    paper = PAPER_TABLE2[(gpu, label)]
    return {"gpu": gpu, "operation": label, "latency_cycles": latency,
            "paper_cycles": paper, "matches_paper": abs(latency - paper) < 1e-6}


# --------------------------------------------------------------- pipeline

def _chain_length(quick: bool) -> int:
    return QUICK_CHAIN_LENGTH if quick else CHAIN_LENGTH


def _job_key(architecture: str, operation: str, quick: bool) -> str:
    return f"table2:{architecture}:{operation}:n{_chain_length(quick)}"


def jobs(quick: bool = False) -> List[SimulationJob]:
    """One job per (GPU, operation) chain measurement."""
    return [
        SimulationJob(
            key=_job_key(arch, op, quick),
            func="repro.experiments.table2:_measure_latency",
            params={"architecture": arch, "operation": op,
                    "chain_length": _chain_length(quick)},
            cache_fields={"kernel": f"microbench:{op}",
                          "architecture": arch, "engine": "dependent_chain"},
        )
        for arch in ARCHITECTURES
        for _, op in TABLE2_OPERATIONS
    ]


def assemble(payloads: Dict[str, Dict[str, object]],
             quick: bool = False) -> ExperimentResult:
    chain_length = _chain_length(quick)
    measurements = []
    for arch in ARCHITECTURES:
        for label, op in TABLE2_OPERATIONS:
            payload = payloads[_job_key(arch, op, quick)]
            row = _compare_row(payload["gpu"], label, payload["latency_cycles"])
            measurements.append(Measurement(
                kernel=label, architecture=row["gpu"], workload=op,
                config={"chain_length": chain_length},
                value=row["latency_cycles"], unit="cycles/warp", extra=row))
    return ExperimentResult(experiment="table2", title=TITLE, quick=quick,
                            measurements=measurements,
                            metadata={"chain_length": chain_length})


def render(result: ExperimentResult) -> str:
    return f"{TITLE}\n" + format_table(result.rows())

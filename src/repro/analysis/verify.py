"""``verify_trace`` — one-call static verification of a recorded trace.

Orchestrates the index-range engine, the shared-memory race detector, the
bounds checker and the performance lint over one
:class:`~repro.trace.ir.Trace`, producing a
:class:`~repro.analysis.report.TraceReport`.  Concrete checks evaluate the
data-free environment over the **full grid** when it is small enough
(every block is checked, including blocks the recorded chunk never
executed); larger grids are sampled from both ends of the launch order and
the report carries a coverage finding so a partial check can never be
mistaken for a proof.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..gpu.architecture import get_architecture
from ..gpu.kernel import block_schedule
from ..trace.ir import Trace
from .accesses import extract_accesses
from .bounds import check_bounds
from .concrete import evaluate_data_free
from .lint import cross_check, predict_counters
from .races import check_races
from .ranges import RangeAnalysis
from .report import COVERAGE, Finding, TraceReport, WARNING

#: largest grid (in blocks) checked concretely in full
MAX_CONCRETE_BLOCKS = 4096


def _grid_blocks(grid_dim: Tuple[int, int, int],
                 max_blocks: int) -> Tuple[np.ndarray, bool]:
    """Block-index matrix for concrete checks + full-coverage flag."""
    matrix = block_schedule(grid_dim)
    total = matrix.shape[0]
    if total <= max_blocks:
        return matrix, True
    # sample both ends: boundary blocks (where halo/off-by-one bugs live)
    # come from the tail, steady-state blocks from the head
    head = matrix[:max_blocks // 2]
    tail = matrix[total - (max_blocks - head.shape[0]):]
    return np.ascontiguousarray(np.concatenate([head, tail])), False


def verify_trace(trace: Trace, grid_dim: Tuple[int, int, int],
                 architecture: object = "p100", *,
                 chunk_blocks: Optional[np.ndarray] = None,
                 dynamic_counters: Optional[Dict[str, float]] = None,
                 kernel_name: str = "",
                 max_concrete_blocks: int = MAX_CONCRETE_BLOCKS
                 ) -> TraceReport:
    """Statically verify one recorded kernel trace.

    Parameters
    ----------
    trace:
        The recorded dataflow IR (from
        :func:`repro.trace.replay.record_trace` or a capture context).
    grid_dim:
        Launch grid; the verifier checks **all** blocks of this grid, not
        just the recorded chunk.
    chunk_blocks:
        Block-index matrix of the recorded chunk.  When given, the static
        counter prediction is evaluated over exactly these blocks so it is
        directly comparable to the chunk's dynamic counters.
    dynamic_counters:
        Counter deltas the eager engine accumulated while recording the
        chunk; any static≠dynamic disagreement becomes a ``divergence``
        finding.
    """
    arch = get_architecture(architecture)
    ranges = RangeAnalysis(trace, grid_dim)
    accesses, phases = extract_accesses(trace)
    grid_matrix, full_coverage = _grid_blocks(grid_dim, max_concrete_blocks)
    env = evaluate_data_free(trace, grid_matrix)
    num_blocks = grid_matrix.shape[0]

    findings = []
    findings.extend(check_races(trace, ranges, env, accesses, num_blocks))
    findings.extend(check_bounds(trace, ranges, env, accesses, num_blocks,
                                 full_coverage))
    if not full_coverage:
        total = int(np.prod(grid_dim, dtype=np.int64))
        findings.append(Finding(
            category=COVERAGE, severity=WARNING,
            message=(f"concrete checks sampled {num_blocks} of {total} "
                     f"blocks (head and tail of the launch order); "
                     f"interval results still cover the full grid"),
            detail={"checked_blocks": num_blocks, "total_blocks": total}))

    predicted: Dict[str, float] = {}
    unpredicted = []
    if chunk_blocks is not None:
        chunk_blocks = np.asarray(chunk_blocks, dtype=np.int64)
        chunk_env = evaluate_data_free(trace, chunk_blocks)
        prediction = predict_counters(trace, chunk_env,
                                      int(chunk_blocks.shape[0]), arch)
        predicted = dict(prediction.counters)
        unpredicted = sorted(prediction.unpredicted)
        findings.extend(prediction.findings)
        if dynamic_counters is not None:
            findings.extend(cross_check(prediction, dynamic_counters))

    return TraceReport(
        kernel=kernel_name or "kernel",
        architecture=arch.name,
        grid_dim=tuple(int(g) for g in grid_dim),
        block_threads=trace.block_threads,
        phases=phases,
        nodes=len(trace.nodes),
        accesses=len(accesses),
        findings=findings,
        predicted_counters=predicted,
        dynamic_counters=(None if dynamic_counters is None
                          else dict(dynamic_counters)),
        unpredicted_fields=unpredicted,
        full_concrete_coverage=full_coverage,
    )

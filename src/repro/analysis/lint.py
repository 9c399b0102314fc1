"""Static performance lint: predicted counters + dynamic cross-check.

``predict_counters`` feeds a trace's data-free index/mask matrices to
the *same* per-access counter rule the batched engine uses
(:func:`~repro.gpu.memory.global_access_counts`,
:func:`~repro.gpu.shared_memory.shared_access_counts`), so on a fully
data-free kernel the static prediction is **bit-identical** to the
dynamic counters of the same blocks — any disagreement is a verifier or
engine bug and is reported as a ``divergence`` finding.  Counter fields
fed by data-dependent indices or masks are listed as unpredicted and
excluded.  It is the only code that turns a trace's index and mask
matrices into counters: the replay engine counts each chunk with it,
passing its own values of the operands computed from loaded data.

On top of the prediction the lint flags statically visible inefficiencies:
shared-memory accesses whose worst warp exceeds the natural conflict
degree of the element width, and global accesses whose worst warp touches
more than twice the ideal sector count.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..errors import SimulationError
from ..gpu.memory import (global_access_counts, rowwise_unique_counts,
                          rowwise_unique_pad)
from ..gpu.shared_memory import shared_access_counts
from ..trace.ir import MEMORY_OPS, Trace, instruction_count
from .accesses import Access, GLOBAL, SHARED, extract_accesses
from .concrete import index_matrix, mask_matrix
from .report import DIVERGENCE, ERROR, PERF, WARNING, Finding

#: counter fields a global load contributes to
_GLOBAL_LOAD_FIELDS = ("gmem_load", "gmem_load_transactions",
                       "cache_read_bytes", "dram_read_bytes",
                       "divergent_branches")
#: counter fields a global store contributes to
_GLOBAL_STORE_FIELDS = ("gmem_store", "gmem_store_transactions",
                        "dram_write_bytes", "divergent_branches")
#: counter fields a shared load contributes to
_SHARED_LOAD_FIELDS = ("smem_load", "smem_broadcast", "smem_bank_conflicts",
                       "smem_read_bytes")
#: counter fields a shared store contributes to
_SHARED_STORE_FIELDS = ("smem_store", "smem_bank_conflicts",
                        "smem_write_bytes")
#: (address space, is a store) -> the counter fields an access feeds
_FIELDS = {(GLOBAL, False): _GLOBAL_LOAD_FIELDS,
           (GLOBAL, True): _GLOBAL_STORE_FIELDS,
           (SHARED, False): _SHARED_LOAD_FIELDS,
           (SHARED, True): _SHARED_STORE_FIELDS}


class CounterPrediction:
    """Statically predicted counters for one recorded chunk."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        #: fields whose total includes a data-dependent access
        self.unpredicted: set = set()
        self.findings: List[Finding] = []

    def bump(self, field: str, amount) -> None:
        self.counters[field] = self.counters.get(field, 0.0) + float(amount)

    def bump_all(self, deltas: Dict[str, float], scale: int = 1) -> None:
        for field, amount in deltas.items():
            self.bump(field, amount * scale)

    def give_up(self, fields) -> None:
        self.unpredicted.update(fields)


def _access_rows(env: Dict[int, np.ndarray], access: Access,
                 num_blocks: int) -> int:
    """Rows to count an access on: one when its index and mask are the
    same for every block (no operand carries the block axis), so the count
    of one block's row scales to all of them."""
    for node_id in (access.index, access.mask):
        value = env.get(node_id)
        if np.ndim(value) == 2 and np.shape(value)[0] > 1:
            return num_blocks
    return 1


def _check_bounds(idx: np.ndarray, size: int, space: str, access: Access,
                  name: str) -> None:
    """The engines' bounds rule: every lane's index, active or not."""
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= size):
        op = "store" if access.is_store else "load"
        raise SimulationError(f"out-of-bounds {space} {op} on {name!r}")


def _global_access(prediction: CounterPrediction, trace: Trace,
                   access: Access, idx: np.ndarray,
                   mask: Optional[np.ndarray], scale: int, architecture,
                   traffic: Dict[int, List[np.ndarray]]) -> None:
    info = trace.slot_info[access.slot]
    name = str(info["name"])
    _check_bounds(idx, int(info["size"]), "global", access, name)
    itemsize = int(info["itemsize"])
    warp_size = trace.warp_size
    line_bytes = architecture.cache_line_bytes
    counts = global_access_counts(idx, mask, itemsize, line_bytes, warp_size,
                                  store=access.is_store,
                                  cached=bool(info["cached"]))
    prediction.bump_all(counts.counters, scale)
    if not access.is_store and not info["cached"] and counts.active:
        # each row's distinct lines, padded: the per-block union below
        # then sorts a few columns per load instead of every lane
        traffic.setdefault(access.slot, []).append(
            rowwise_unique_pad(counts.lines, mask))
    # coalescing lint: worst warp vs the ideal fully-coalesced sector count
    ideal = max(1, math.ceil(warp_size * itemsize / line_bytes))
    worst = int(counts.sectors.max()) if counts.sectors.size else 0
    if worst > 2 * ideal:
        op = "store" if access.is_store else "load"
        prediction.findings.append(Finding(
            category=PERF, severity=WARNING,
            message=(f"uncoalesced global {op} on {name!r}: worst warp "
                     f"touches {worst} cache-line sectors "
                     f"(fully coalesced: {ideal})"),
            node=access.node, phase=access.phase,
            detail={"buffer": name, "worst_sectors": worst,
                    "ideal_sectors": ideal}))


def _shared_access(prediction: CounterPrediction, trace: Trace,
                   access: Access, idx: np.ndarray,
                   mask: Optional[np.ndarray], scale: int,
                   architecture) -> None:
    params = trace.nodes[access.alloc].params
    name = str(params["name"])
    _check_bounds(idx, int(params["size"]), "shared", access, name)
    itemsize = int(params["itemsize"])
    counts = shared_access_counts(
        idx, mask, itemsize, architecture.shared_memory_banks,
        architecture.shared_memory_bank_bytes, trace.warp_size,
        store=access.is_store, uniform=access.uniform)
    prediction.bump_all(counts.counters, scale)
    # bank-conflict lint: the natural degree of a wide element is
    # itemsize // bank_bytes (fp64 splits into two words); anything beyond
    # serialises the warp
    natural = max(1, itemsize // architecture.shared_memory_bank_bytes)
    worst = int(counts.degrees.max()) if counts.degrees.size else 0
    if worst > natural:
        op = "store" if access.is_store else "load"
        prediction.findings.append(Finding(
            category=PERF, severity=WARNING,
            message=(f"shared-memory bank conflicts on {name!r}: {op} "
                     f"serialises up to {worst}-way per warp (conflict-free "
                     f"degree for {itemsize}-byte elements: {natural})"),
            node=access.node, phase=access.phase,
            detail={"buffer": name, "worst_degree": worst,
                    "natural_degree": natural}))


def _traffic_lines(traffic: Dict[int, List[np.ndarray]],
                   num_blocks: int) -> int:
    """Unique cache lines per block and buffer, summed over the blocks.

    A buffer whose every load was counted on one row scales that row's
    union; otherwise one-row records broadcast to every block.
    """
    total = 0
    for records in traffic.values():
        rows = max(record.shape[0] for record in records)
        concat = (records[0] if len(records) == 1 else np.concatenate(
            [np.broadcast_to(record, (rows, record.shape[1]))
             for record in records], axis=1))
        total += int(rowwise_unique_counts(concat, None).sum()) * (
            num_blocks // rows)
    return total


def predict_counters(trace: Trace, env: Dict[int, np.ndarray],
                     num_blocks: int, architecture) -> CounterPrediction:
    """Predicted counters of executing ``num_blocks`` chunk blocks.

    ``env`` must hold concrete values over exactly the chunk's block
    indices: the data-free environment
    (:func:`~repro.analysis.concrete.evaluate_data_free`; the recorded
    chunk when cross-checking against captured dynamic counters), plus the
    replay engine's own values of data-dependent index and mask operands
    when it counts a launch.  An access whose index and mask are the same
    for every block is counted on one block's row and scaled.  An
    out-of-bounds index raises the engines' :class:`SimulationError`.
    """
    prediction = CounterPrediction()
    threads = trace.block_threads
    issue_warps = num_blocks * trace.num_warps
    prediction.bump("blocks_executed", num_blocks)
    prediction.bump("warps_executed", issue_warps)
    traffic: Dict[int, List[np.ndarray]] = {}
    accesses, _phases = extract_accesses(trace)
    by_node = {access.node: access for access in accesses}
    for node in trace.nodes:
        instructions = instruction_count(node)
        if instructions is not None:
            field, per_warp = instructions
            prediction.bump(field, float(per_warp) * issue_warps)
            continue
        if node.op not in MEMORY_OPS:
            continue
        access = by_node[node.id]
        rows = _access_rows(env, access, num_blocks)
        idx = index_matrix(env, access.index, rows, threads)
        mask = (None if access.mask is None
                else mask_matrix(env, access.mask, rows, threads))
        if idx is None or (access.mask is not None and mask is None):
            prediction.give_up(_FIELDS[access.space, access.is_store])
        elif access.space == GLOBAL:
            _global_access(prediction, trace, access, idx, mask,
                           num_blocks // rows, architecture, traffic)
        else:
            _shared_access(prediction, trace, access, idx, mask,
                           num_blocks // rows, architecture)
    if "dram_read_bytes" not in prediction.unpredicted:
        prediction.bump("dram_read_bytes", float(
            _traffic_lines(traffic, num_blocks)
            * architecture.cache_line_bytes))
    return prediction


def cross_check(prediction: CounterPrediction,
                dynamic: Dict[str, float]) -> List[Finding]:
    """Exact static-vs-dynamic comparison; mismatches are findings."""
    findings: List[Finding] = []
    for field in sorted(set(prediction.counters) | set(dynamic)):
        if field in prediction.unpredicted:
            continue
        static_value = prediction.counters.get(field, 0.0)
        dynamic_value = float(dynamic.get(field, 0.0))
        if static_value != dynamic_value:
            findings.append(Finding(
                category=DIVERGENCE, severity=ERROR,
                message=(f"static≠dynamic counter divergence on "
                         f"{field!r}: predicted {static_value:g}, "
                         f"simulator measured {dynamic_value:g}"),
                detail={"field": field, "static": static_value,
                        "dynamic": dynamic_value}))
    return findings

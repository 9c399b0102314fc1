"""Static performance lint: predicted counters + dynamic cross-check.

``predict_counters`` feeds a trace's data-free index/mask matrices to
the *same* per-access counter rule the engines use
(:func:`~repro.gpu.memory.global_access_counts`,
:func:`~repro.gpu.shared_memory.shared_access_counts`), so on a fully
data-free kernel the static prediction is **bit-identical** to the
dynamic counters of the same blocks — any disagreement is a verifier or
engine bug and is reported as a ``divergence`` finding.  Counter fields
fed by data-dependent indices or masks are listed as unpredicted and
excluded.

On top of the prediction the lint flags statically visible inefficiencies:
shared-memory accesses whose worst warp exceeds the natural conflict
degree of the element width, and global accesses whose worst warp touches
more than twice the ideal sector count.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..gpu.memory import _SENTINEL, global_access_counts, rowwise_unique_counts
from ..gpu.shared_memory import shared_access_counts
from ..trace.ir import Trace
from .accesses import Access, GLOBAL, extract_accesses
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


class CounterPrediction:
    """Statically predicted counters for one recorded chunk."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        #: fields whose total includes a data-dependent access
        self.unpredicted: set = set()
        self.findings: List[Finding] = []

    def bump(self, field: str, amount) -> None:
        self.counters[field] = self.counters.get(field, 0.0) + float(amount)

    def bump_all(self, deltas: Dict[str, float]) -> None:
        for field, amount in deltas.items():
            self.bump(field, amount)

    def give_up(self, fields) -> None:
        self.unpredicted.update(fields)


def _global_access(prediction: CounterPrediction, trace: Trace,
                   access: Access, idx: Optional[np.ndarray],
                   mask: Optional[np.ndarray], architecture,
                   count_traffic: bool,
                   traffic: Dict[int, List[np.ndarray]]) -> None:
    fields = (_GLOBAL_STORE_FIELDS if access.is_store
              else _GLOBAL_LOAD_FIELDS)
    if idx is None or (access.mask is not None and mask is None):
        prediction.give_up(fields)
        return
    info = trace.slot_info[access.slot]
    itemsize = int(info["itemsize"])
    warp_size = trace.warp_size
    line_bytes = architecture.cache_line_bytes
    counts = global_access_counts(idx, mask, itemsize, line_bytes, warp_size,
                                  store=access.is_store,
                                  cached=bool(info["cached"]))
    prediction.bump_all(counts.counters)
    if (not access.is_store and count_traffic and not info["cached"]
            and counts.active):
        chunk = (np.where(mask, counts.lines, _SENTINEL) if mask is not None
                 else np.ascontiguousarray(counts.lines))
        traffic.setdefault(access.slot, []).append(chunk)
    # coalescing lint: worst warp vs the ideal fully-coalesced sector count
    ideal = max(1, math.ceil(warp_size * itemsize / line_bytes))
    worst = int(counts.sectors.max()) if counts.sectors.size else 0
    if worst > 2 * ideal:
        name = str(info["name"])
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
                   access: Access, idx: Optional[np.ndarray],
                   mask: Optional[np.ndarray], architecture) -> None:
    fields = (_SHARED_STORE_FIELDS if access.is_store
              else _SHARED_LOAD_FIELDS)
    if idx is None or (access.mask is not None and mask is None):
        prediction.give_up(fields)
        return
    params = trace.nodes[access.alloc].params
    itemsize = int(params["itemsize"])
    counts = shared_access_counts(
        idx, mask, itemsize, architecture.shared_memory_banks,
        architecture.shared_memory_bank_bytes, trace.warp_size,
        store=access.is_store, uniform=access.uniform)
    prediction.bump_all(counts.counters)
    # bank-conflict lint: the natural degree of a wide element is
    # itemsize // bank_bytes (fp64 splits into two words); anything beyond
    # serialises the warp
    natural = max(1, itemsize // architecture.shared_memory_bank_bytes)
    worst = int(counts.degrees.max()) if counts.degrees.size else 0
    if worst > natural:
        name = str(params["name"])
        op = "store" if access.is_store else "load"
        prediction.findings.append(Finding(
            category=PERF, severity=WARNING,
            message=(f"shared-memory bank conflicts on {name!r}: {op} "
                     f"serialises up to {worst}-way per warp (conflict-free "
                     f"degree for {itemsize}-byte elements: {natural})"),
            node=access.node, phase=access.phase,
            detail={"buffer": name, "worst_degree": worst,
                    "natural_degree": natural}))


def predict_counters(trace: Trace, env: Dict[int, np.ndarray],
                     num_blocks: int, architecture,
                     count_traffic: bool = True) -> CounterPrediction:
    """Predicted counters of executing ``num_blocks`` chunk blocks.

    ``env`` must be the concrete data-free environment of exactly the
    chunk's block indices (the recorded chunk when cross-checking against
    captured dynamic counters).
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
        if node.op == "arith":
            kind = node.params["kind"]
            field = {"mad": "fma", "add": "add", "mul": "mul"}[kind]
            prediction.bump(field, issue_warps)
        elif node.op == "misc":
            prediction.bump("misc",
                            float(node.params["instructions"]) * issue_warps)
        elif node.op == "sync":
            prediction.bump("sync", issue_warps)
        elif node.op == "shfl":
            prediction.bump("shfl", issue_warps)
        elif node.op in ("load_global", "store_global", "load_shared",
                         "store_shared"):
            access = by_node[node.id]
            idx = index_matrix(env, access.index, num_blocks, threads)
            mask = mask_matrix(env, access.mask, num_blocks, threads)
            if access.space == GLOBAL:
                _global_access(prediction, trace, access, idx, mask,
                               architecture, count_traffic, traffic)
            else:
                _shared_access(prediction, trace, access, idx, mask,
                               architecture)
    if count_traffic and "dram_read_bytes" not in prediction.unpredicted:
        line_bytes = architecture.cache_line_bytes
        total = 0
        for chunks in traffic.values():
            concat = (chunks[0] if len(chunks) == 1
                      else np.concatenate(chunks, axis=1))
            total += int(rowwise_unique_counts(concat, None).sum())
        prediction.bump("dram_read_bytes", float(total * line_bytes))
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

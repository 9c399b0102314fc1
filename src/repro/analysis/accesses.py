"""Barrier-phase partitioning and memory-access extraction from a trace.

The race detector, bounds checker and performance lint all consume the same
view of a recorded kernel body: the ordered list of global/shared memory
accesses, each tagged with its *phase* — the number of ``syncthreads``
barriers executed before it.  Accesses in different phases of the same
shared allocation are ordered by a barrier and can never race; everything
the verifier proves is phase-local.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..trace.ir import MEMORY_OPS, Trace, memory_operands

#: address spaces
GLOBAL = "global"
SHARED = "shared"


@dataclass(frozen=True)
class Access:
    """One memory access node in phase/program order."""

    node: int                 #: trace node id of the access
    phase: int                #: barrier-delimited phase (syncs before it)
    space: str                #: GLOBAL or SHARED
    is_store: bool
    index: int                #: node id of the flat index expression
    mask: Optional[int]       #: node id of the guard mask, if masked
    value: Optional[int]      #: node id of the stored value (stores only)
    slot: Optional[int] = None    #: argument slot (global accesses)
    alloc: Optional[int] = None   #: alloc_shared node id (shared accesses)
    uniform: bool = False         #: warp-uniform shared access


def extract_accesses(trace: Trace) -> Tuple[List[Access], int]:
    """``(accesses, num_phases)`` of a recorded trace, in program order."""
    accesses: List[Access] = []
    phase = 0
    for node in trace.nodes:
        if node.op == "sync":
            phase += 1
            continue
        if node.op not in MEMORY_OPS:
            continue
        index, value, mask = memory_operands(node)
        is_global = node.op.endswith("global")
        accesses.append(Access(
            node=node.id, phase=phase, space=GLOBAL if is_global else SHARED,
            is_store=value is not None, index=index, mask=mask, value=value,
            slot=node.params["slot"] if is_global else None,
            alloc=None if is_global else node.params["shared"],
            uniform=bool(node.params.get("uniform"))))
    return accesses, phase + 1


def access_extent(trace: Trace, access: Access) -> Tuple[str, int]:
    """``(buffer_name, size_in_elements)`` of the accessed region."""
    if access.space == GLOBAL:
        info = trace.slot_info[access.slot]
        return str(info["name"]), int(info["size"])
    params = trace.nodes[access.alloc].params
    return str(params["name"]), int(params["size"])

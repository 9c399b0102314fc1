"""Instruction and memory-traffic counters collected during kernel execution.

The simulator does not model every pipeline cycle; instead each warp-level
operation increments a counter here and the timing model in
:mod:`repro.gpu.profiler` converts the aggregate counts into an execution
time.  Counters are also the quantity checked by the tests that validate the
closed-form traffic profiles used for paper-scale estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping


@dataclass
class KernelCounters:
    """Mutable tally of warp instructions and memory traffic for one launch.

    All ``*_instructions`` fields count *warp-level* instructions (one per
    32-lane group), matching how the hardware issues them.  Traffic fields
    are in bytes.
    """

    # warp-level instruction counts
    fma: float = 0.0
    add: float = 0.0
    mul: float = 0.0
    misc: float = 0.0
    shfl: float = 0.0
    smem_load: float = 0.0
    smem_store: float = 0.0
    smem_broadcast: float = 0.0
    gmem_load: float = 0.0
    gmem_store: float = 0.0
    sync: float = 0.0

    # memory traffic (bytes)
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    cache_read_bytes: float = 0.0
    smem_read_bytes: float = 0.0
    smem_write_bytes: float = 0.0

    # transactions (128-byte sectors) issued to the memory system
    gmem_load_transactions: float = 0.0
    gmem_store_transactions: float = 0.0
    smem_bank_conflicts: float = 0.0

    # bookkeeping
    blocks_executed: int = 0
    warps_executed: int = 0
    divergent_branches: float = 0.0

    def merge(self, other: "KernelCounters") -> "KernelCounters":
        """Accumulate another counter set into this one (in place)."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def accumulate(self, deltas: Mapping[str, float]) -> None:
        """Add a ``{field: amount}`` mapping of counter deltas (in place);
        each field keeps its type (the block and warp tallies stay ints)."""
        for name, amount in deltas.items():
            current = getattr(self, name)
            setattr(self, name, current + type(current)(amount))

    def scaled(self, factor: float) -> "KernelCounters":
        """Return a copy with every count multiplied by ``factor``.

        Used to extrapolate counts measured on a sampled subset of blocks to
        a full grid.
        """
        scaled = KernelCounters()
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if name == "blocks_executed" or name == "warps_executed":
                setattr(scaled, name, int(round(value * factor)))
            else:
                setattr(scaled, name, value * factor)
        return scaled

    # -- derived ------------------------------------------------------------
    @property
    def arithmetic_instructions(self) -> float:
        """Total arithmetic warp instructions (FMA + add + mul + misc)."""
        return self.fma + self.add + self.mul + self.misc

    @property
    def total_instructions(self) -> float:
        """Every counted warp instruction (for the issue-width bound)."""
        return (
            self.arithmetic_instructions
            + self.shfl
            + self.smem_load
            + self.smem_store
            + self.smem_broadcast
            + self.gmem_load
            + self.gmem_store
            + self.sync
        )

    @property
    def dram_bytes(self) -> float:
        """Total DRAM traffic in bytes."""
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def flops(self) -> float:
        """Floating point operations implied by the arithmetic counts.

        An FMA counts as two FLOPs; every counter is warp-level so the lane
        count multiplies back in.
        """
        return (2.0 * self.fma + self.add + self.mul) * 32.0

    def as_dict(self) -> Dict[str, float]:
        """Every counter as a plain dictionary."""
        values = self.__dict__
        return {name: values[name] for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, values: Mapping[str, float]) -> "KernelCounters":
        """Build counters from a mapping (unknown keys are rejected)."""
        counters = cls()
        for key, value in values.items():
            if key not in counters.__dataclass_fields__:
                raise KeyError(f"unknown counter {key!r}")
            setattr(counters, key, value)
        return counters


def merge_counters(counter_sets: Iterable[KernelCounters]) -> KernelCounters:
    """Merge an iterable of counters into a fresh aggregate."""
    total = KernelCounters()
    for counters in counter_sets:
        total.merge(counters)
    return total

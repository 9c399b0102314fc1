"""CUDA occupancy calculator for the simulated architectures.

Occupancy (resident warps per SM relative to the hardware maximum) controls
how much latency the SM can hide.  Register-cache kernels trade registers
per thread for fewer memory round-trips, so being able to compute the
occupancy impact of a register budget is an essential part of reproducing
the paper's design space (Sections 2 and 7.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from ..errors import ConfigurationError
from .architecture import GPUArchitecture


#: tie-breaking priority of ``limiting_factor`` when several limits bind at
#: the same block count: resource limits first (registers, then the shared
#: memory carve-out), then the hardware slot limits (warp slots, thread
#: slots, block slots).  The order is part of the public contract — reports
#: and the tuner's explanations depend on it being deterministic.
LIMIT_PRIORITY: Tuple[str, ...] = (
    "registers", "shared_memory", "warps", "threads", "blocks")


@dataclass(frozen=True, slots=True)
class OccupancyResult:
    """Resident blocks/warps per SM for one kernel configuration.

    ``active_warps_per_sm`` and ``active_threads_per_sm`` are always derived
    from ``active_blocks_per_sm`` (blocks are resident as a whole), so the
    triple is self-consistent by construction.
    """

    active_blocks_per_sm: int
    active_warps_per_sm: int
    active_threads_per_sm: int
    occupancy: float
    limiting_factor: str
    #: blocks per SM each limit allows (read-only: results are shared)
    limits: Mapping[str, int]

    @property
    def is_register_limited(self) -> bool:
        """True when registers are the binding constraint."""
        return self.limiting_factor == "registers"

    @property
    def is_shared_memory_limited(self) -> bool:
        """True when shared memory is the binding constraint."""
        return self.limiting_factor == "shared_memory"


def _round_up(value: int, granularity: int) -> int:
    return ((value + granularity - 1) // granularity) * granularity


def _check_granularities(architecture: GPUArchitecture) -> None:
    """Reject architectures with non-positive allocation granularities.

    A granularity of zero or less would silently skip the hardware's
    allocation rounding and overstate occupancy; a malformed architecture
    variant must fail loudly instead.
    """
    for name in ("warp_allocation_granularity",
                 "register_allocation_granularity",
                 "shared_allocation_granularity"):
        value = getattr(architecture, name)
        if value <= 0:
            raise ConfigurationError(
                f"architecture {architecture.name!r}: {name} must be a "
                f"positive integer, got {value!r}")


def validate_block_threads(architecture: GPUArchitecture, block_threads: int,
                           warp_multiple: bool = True) -> int:
    """Validate a launch's block size against the architecture limits.

    Raises :class:`~repro.errors.ConfigurationError` when the block size is
    not a positive integer, exceeds ``max_threads_per_block``, or (for the
    SSAM kernels, whose warps each own a whole tile) is not a multiple of
    the warp size.  Called at plan time so a bad ``block_threads`` fails
    with a clear message instead of deep inside the simulator.
    """
    if not isinstance(block_threads, (int,)) or isinstance(block_threads, bool):
        raise ConfigurationError(
            f"block size must be an integer, got {block_threads!r}")
    if block_threads <= 0:
        raise ConfigurationError(
            f"block size must be positive, got {block_threads}")
    if block_threads > architecture.max_threads_per_block:
        raise ConfigurationError(
            f"block of {block_threads} threads exceeds the architecture limit of "
            f"{architecture.max_threads_per_block}"
        )
    if warp_multiple and block_threads % architecture.warp_size != 0:
        raise ConfigurationError(
            f"block size {block_threads} is not a multiple of the warp size "
            f"{architecture.warp_size}")
    return block_threads


#: most launch shapes whose occupancy is remembered
_OCCUPANCY_MAX = 2048

#: (part id, B, registers, shared bytes) -> (part, result); the entry holds
#: its part, so the id cannot be reused while the entry lives
_OCCUPANCY: Dict[Tuple[int, int, int, int],
                 Tuple[GPUArchitecture, OccupancyResult]] = {}


def compute_occupancy(architecture: GPUArchitecture, block_threads: int,
                      registers_per_thread: int,
                      shared_bytes_per_block: int) -> OccupancyResult:
    """Compute resident blocks/warps per SM for a kernel configuration.

    Follows the standard CUDA occupancy calculation: the number of resident
    blocks is the minimum over the limits imposed by warp slots, thread
    slots, block slots, the register file and the shared-memory carve-out.
    When several limits tie, ``limiting_factor`` reports the highest-priority
    one according to :data:`LIMIT_PRIORITY`.

    The result is a pure function of the inputs, so each launch shape is
    computed once and shared (a bounded memo; the part enters its key by
    identity, like the plan cache's).  Invalid shapes raise every time.
    """
    if not (type(block_threads) is int and type(registers_per_thread) is int
            and type(shared_bytes_per_block) is int):
        # bools and floats compare equal to ints but validate or compute
        # differently: only exact ints share results
        return _compute_occupancy(architecture, block_threads,
                                  registers_per_thread, shared_bytes_per_block)
    key = (id(architecture), block_threads, registers_per_thread,
           shared_bytes_per_block)
    hit = _OCCUPANCY.get(key)
    if hit is not None and hit[0] is architecture:
        return hit[1]
    result = _compute_occupancy(architecture, block_threads,
                                registers_per_thread, shared_bytes_per_block)
    if len(_OCCUPANCY) >= _OCCUPANCY_MAX:
        _OCCUPANCY.clear()
    _OCCUPANCY[key] = (architecture, result)
    return result


def _compute_occupancy(architecture: GPUArchitecture, block_threads: int,
                       registers_per_thread: int,
                       shared_bytes_per_block: int) -> OccupancyResult:
    """The occupancy calculation itself (see :func:`compute_occupancy`)."""
    _check_granularities(architecture)
    validate_block_threads(architecture, block_threads, warp_multiple=False)
    warp_size = architecture.warp_size
    warps_per_block = math.ceil(block_threads / warp_size)
    warps_per_block = _round_up(warps_per_block, architecture.warp_allocation_granularity)

    limits: Dict[str, int] = {}
    limits["blocks"] = architecture.max_blocks_per_sm
    limits["warps"] = architecture.max_warps_per_sm // warps_per_block
    limits["threads"] = architecture.max_threads_per_sm // block_threads

    if registers_per_thread > 0:
        regs_per_warp = _round_up(registers_per_thread * warp_size,
                                  architecture.register_allocation_granularity)
        regs_per_block = regs_per_warp * warps_per_block
        limits["registers"] = (
            architecture.registers_per_sm // regs_per_block if regs_per_block else 10**9
        )
    else:
        limits["registers"] = architecture.max_blocks_per_sm

    if shared_bytes_per_block > 0:
        smem = _round_up(shared_bytes_per_block, architecture.shared_allocation_granularity)
        if smem > architecture.shared_memory_per_block:
            raise ConfigurationError(
                f"block uses {smem} bytes of shared memory, per-block limit is "
                f"{architecture.shared_memory_per_block}"
            )
        limits["shared_memory"] = architecture.shared_memory_per_sm // smem
    else:
        limits["shared_memory"] = architecture.max_blocks_per_sm

    active_blocks = max(0, min(limits.values()))
    limiting_factor = min(
        limits, key=lambda key: (limits[key], LIMIT_PRIORITY.index(key)))
    # derive the whole triple from the resident block count: blocks are
    # resident as a unit, so warps and threads can never disagree with them
    # (``limits["warps"]``/``limits["threads"]`` already encode the per-SM
    # warp- and thread-slot caps, making further clamping redundant)
    active_warps = active_blocks * warps_per_block
    active_threads = active_blocks * block_threads
    occupancy = active_warps / architecture.max_warps_per_sm

    return OccupancyResult(
        active_blocks_per_sm=active_blocks,
        active_warps_per_sm=active_warps,
        active_threads_per_sm=active_threads,
        occupancy=occupancy,
        limiting_factor=limiting_factor,
        limits=MappingProxyType(limits),
    )

"""Register-file budgeting, spill detection and the register-cache resource.

The central resource in SSAM is the per-thread register file: each thread
caches ``C = N + P - 1`` input values (Equation 3) plus loop-carried partial
sums in registers.  The compiler spills to local memory when the per-thread
budget is exceeded (Section 2, item iv), which destroys the performance of
register-cache methods, so plans must be validated against the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dtypes import resolve_precision
from ..errors import ResourceExhaustedError
from .architecture import GPUArchitecture


#: registers the compiler needs for addressing, loop counters and temporaries
#: on top of the explicitly cached values (empirical nvcc overhead).
BASE_REGISTER_OVERHEAD = 18

#: per-thread register allocation granularity: requests round up to pairs
REGISTER_ALLOCATION_GRANULARITY = 2


@dataclass(frozen=True)
class RegisterAllocation:
    """Outcome of allocating registers for one kernel configuration.

    Attributes
    ----------
    requested_per_thread:
        Registers the kernel would like per thread (cache + accumulators +
        overhead), before applying the hardware cap.
    allocated_per_thread:
        Registers actually granted (rounded up to the allocation
        granularity, capped at ``max_registers_per_thread``).
    spilled_per_thread:
        Values that do not fit and spill to local memory (0 in healthy
        configurations).
    """

    requested_per_thread: int
    allocated_per_thread: int
    spilled_per_thread: int

    @property
    def spills(self) -> bool:
        """True when the configuration spills registers to local memory."""
        return self.spilled_per_thread > 0


def registers_for_cache(cache_values: int, accumulators: int,
                        precision: object = "float32",
                        overhead: int = BASE_REGISTER_OVERHEAD) -> int:
    """Registers per thread needed for a register-cache configuration.

    Parameters
    ----------
    cache_values:
        Number of cached input values per thread (``C`` in the paper).
    accumulators:
        Number of live partial-sum accumulators per thread (``P`` for the
        sliding-window convolution kernel).
    precision:
        Element precision; double-precision values occupy two 32-bit
        registers each.
    overhead:
        Fixed compiler overhead (addresses, indices, loop counters).
    """
    prec = resolve_precision(precision)
    per_value = prec.registers_per_value
    return (cache_values + accumulators) * per_value + overhead


def allocate_registers(architecture: GPUArchitecture, requested_per_thread: int,
                       allow_spill: bool = True) -> RegisterAllocation:
    """Apply the hardware per-thread register cap and report spills.

    Raises
    ------
    ResourceExhaustedError
        If ``allow_spill`` is False and the request exceeds the cap.
    """
    granularity = REGISTER_ALLOCATION_GRANULARITY
    rounded = ((requested_per_thread + granularity - 1) // granularity) * granularity
    cap = architecture.max_registers_per_thread
    if rounded <= cap:
        return RegisterAllocation(requested_per_thread, rounded, 0)
    spilled = rounded - cap
    if not allow_spill:
        raise ResourceExhaustedError(
            f"kernel needs {rounded} registers/thread, architecture cap is {cap}"
        )
    return RegisterAllocation(requested_per_thread, cap, spilled)


def register_cache_capacity(architecture: GPUArchitecture,
                            registers_per_thread: int,
                            precision: object = "float32",
                            overhead: int = BASE_REGISTER_OVERHEAD) -> int:
    """How many values one thread can cache given a register budget.

    Inverse of :func:`registers_for_cache` with zero extra accumulators;
    used by planners to choose the largest viable ``P``.
    """
    prec = resolve_precision(precision)
    usable = max(0, registers_per_thread - overhead)
    return usable // prec.registers_per_value


def warp_register_matrix_bytes(cache_values: int, precision: object = "float32",
                               warp_size: int = 32) -> int:
    """Size of the WarpSize x C register matrix of Figure 2a, in bytes."""
    prec = resolve_precision(precision)
    return cache_values * warp_size * prec.itemsize

"""The simulated GPU substrate: architectures, SIMT execution and timing.

This subpackage stands in for the CUDA toolkit + Tesla hardware used in the
paper.  Kernels written against :class:`~repro.gpu.batch.BatchedBlockContext`
are functionally executed (vectorised over lanes and blocks with NumPy)
while every warp instruction and memory transaction is counted; the
analytical model in
:mod:`repro.gpu.profiler` then converts the counts into execution-time
estimates for the architecture presets of Table 1.
"""

from .architecture import (
    ARCHITECTURES,
    EVALUATED_ARCHITECTURES,
    GPUArchitecture,
    TESLA_K40,
    TESLA_M40,
    TESLA_P100,
    TESLA_V100,
    get_architecture,
    table1_rows,
)
from .batch import BatchedBlockContext, BatchedTrafficTracker
from .counters import KernelCounters, merge_counters
from .kernel import (
    Kernel,
    LaunchConfig,
    LaunchResult,
    auto_batch_size,
    grid_1d,
    grid_2d,
    kernel,
)
from .latency import LatencyTable, ThroughputTable
from .memory import (
    DeviceBuffer,
    GlobalMemory,
    coalesced_transactions_matrix,
    rowwise_unique_counts,
    rowwise_unique_pad,
)
from .microbench import DependentChain, IndependentStream, measure_latency, run_table2
from .occupancy import OccupancyResult, compute_occupancy
from .profiler import TimingBreakdown, estimate_time
from .register_file import (
    RegisterAllocation,
    allocate_registers,
    register_cache_capacity,
    registers_for_cache,
)
from .shared_memory import (
    SharedArray,
    SharedMemory,
    bank_conflict_degree,
    bank_conflict_profile,
)
from .warp import Warp, ballot, shfl_down, shfl_idx, shfl_up, shfl_xor

__all__ = [
    "ARCHITECTURES",
    "EVALUATED_ARCHITECTURES",
    "GPUArchitecture",
    "TESLA_K40",
    "TESLA_M40",
    "TESLA_P100",
    "TESLA_V100",
    "get_architecture",
    "table1_rows",
    "BatchedBlockContext",
    "BatchedTrafficTracker",
    "KernelCounters",
    "merge_counters",
    "Kernel",
    "LaunchConfig",
    "LaunchResult",
    "auto_batch_size",
    "grid_1d",
    "grid_2d",
    "kernel",
    "LatencyTable",
    "ThroughputTable",
    "DeviceBuffer",
    "GlobalMemory",
    "coalesced_transactions_matrix",
    "rowwise_unique_counts",
    "rowwise_unique_pad",
    "DependentChain",
    "IndependentStream",
    "measure_latency",
    "run_table2",
    "OccupancyResult",
    "compute_occupancy",
    "TimingBreakdown",
    "estimate_time",
    "RegisterAllocation",
    "allocate_registers",
    "register_cache_capacity",
    "registers_for_cache",
    "SharedArray",
    "SharedMemory",
    "bank_conflict_degree",
    "bank_conflict_profile",
    "Warp",
    "ballot",
    "shfl_down",
    "shfl_idx",
    "shfl_up",
    "shfl_xor",
]

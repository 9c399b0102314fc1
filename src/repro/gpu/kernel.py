"""Kernel objects, launch configuration and the one launch loop.

A :class:`Kernel` wraps a Python function with the signature
``func(ctx: BatchedBlockContext, *args)`` and executes it over the thread
blocks of the launch grid, accumulating
:class:`~repro.gpu.counters.KernelCounters`.

Every launch — batched, replayed or fused — is one call of
:func:`launch_stages`, the only place a launch walks its blocks:

* one **block schedule** (:func:`block_schedule`): every block in launch
  order (**full** mode), or with ``max_blocks`` a uniformly strided sample
  whose counters are scaled to the full grid (**sampled** mode: partial
  outputs, cheap cost estimates at paper scale);
* **stages** over that schedule: a single launch is one stage, a fused
  pipeline (:mod:`repro.trace.fusion`) several, each producer kept a
  halo's lead ahead of its consumer;
* an **engine** per launch: **batched** (:class:`BatchedStage`,
  ``batch_size="auto"`` or a block count) runs chunks as vectorized
  passes through :class:`~repro.gpu.batch.BatchedBlockContext`;
  **replay** (``batch_size="replay"``, :mod:`repro.trace.replay`) records
  the body once as a dataflow trace and replays the compiled program;
* one **fallback**: a stage the tracer cannot record raises
  :class:`StageFallback` and the launch reruns with every stage batched.

Every batch size and both engines produce bit-identical outputs and
identical counters.  :mod:`repro.trace` is imported only when a launch
replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..dtypes import Precision, resolve_precision
from ..errors import ConfigurationError, LaunchError
from .architecture import GPUArchitecture, get_architecture
from .batch import BatchedBlockContext
from .counters import KernelCounters, merge_counters
from .occupancy import OccupancyResult, compute_occupancy
from .profiler import TimingBreakdown, estimate_time

#: default per-batch memory budget of the ``batch_size="auto"`` heuristic
DEFAULT_BATCH_MEMORY_BYTES = 128 * 1024 * 1024
#: hard cap on blocks per batch (keeps peak temporaries bounded even for
#: tiny block sizes)
MAX_AUTO_BATCH_BLOCKS = 4096
#: cache budget of one replay chunk's scratch arena: a compiled program
#: knows its exact per-block working set, so replay sizes its chunks to
#: keep that set cache-resident instead of using the batched estimate
REPLAY_CACHE_BYTES = 2 * 1024 * 1024


def auto_batch_size(config: "LaunchConfig",
                    memory_budget_bytes: int = DEFAULT_BATCH_MEMORY_BYTES) -> int:
    """Blocks per batch chosen so a batch's working set fits a memory budget.

    The per-block footprint is estimated from the launch configuration: each
    live register vector costs ``block_threads`` elements (counted at the
    declared ``registers_per_thread``, 8 bytes each to cover float64 and the
    int64 index/line temporaries), plus the block's declared shared memory
    (allocated once per block of the batch) and a flat allowance for the
    traffic tracker's per-access line matrices.
    """
    bytes_per_vector = 8  # int64 indices / float64 registers dominate
    registers = max(8, int(config.registers_per_thread))
    per_block = (config.block_threads * (registers * bytes_per_vector + 64)
                 + int(config.shared_bytes_per_block))
    blocks = max(1, int(memory_budget_bytes) // max(1, per_block))
    return int(min(blocks, MAX_AUTO_BATCH_BLOCKS))


def _resolve_batch_size(batch_size: Union[int, str, None], config: "LaunchConfig",
                        total_blocks: int) -> int:
    if batch_size is None or batch_size == "auto":
        resolved = auto_batch_size(config)
    elif isinstance(batch_size, bool) or not isinstance(batch_size, (int, np.integer)):
        raise LaunchError(f"batch_size must be a positive int or 'auto', got {batch_size!r}")
    else:
        resolved = int(batch_size)
        if resolved < 1:
            raise LaunchError("batch_size must be >= 1")
    return max(1, min(resolved, max(1, total_blocks)))


@dataclass(frozen=True)
class LaunchConfig:
    """Grid/block geometry plus the static resources of one kernel launch."""

    grid_dim: Tuple[int, int, int]
    block_threads: int
    registers_per_thread: int = 32
    shared_bytes_per_block: int = 0
    precision: Precision = field(default_factory=lambda: resolve_precision("float32"))
    #: independent outstanding memory accesses per thread (ILP hint used by
    #: the latency-attainment model; register-cache kernels have high MLP).
    memory_parallelism: float = 4.0

    def __post_init__(self) -> None:
        gx, gy, gz = self.grid_dim
        if min(gx, gy, gz) <= 0:
            raise ConfigurationError(f"grid dimensions must be positive, got {self.grid_dim}")
        if self.block_threads <= 0:
            raise ConfigurationError("block size must be positive")

    @property
    def total_blocks(self) -> int:
        gx, gy, gz = self.grid_dim
        return gx * gy * gz

    def to_dict(self) -> dict:
        """JSON-serialisable description (cache keys, result artifacts)."""
        return {
            "grid_dim": list(self.grid_dim),
            "block_threads": self.block_threads,
            "registers_per_thread": self.registers_per_thread,
            "shared_bytes_per_block": self.shared_bytes_per_block,
            "precision": self.precision.name,
            "memory_parallelism": self.memory_parallelism,
        }

    def fingerprint(self) -> str:
        """Stable content hash of this launch configuration."""
        from ..serialization import stable_digest

        return stable_digest(self.to_dict())


@dataclass
class LaunchResult:
    """Everything produced by one (simulated) kernel launch."""

    kernel_name: str
    config: LaunchConfig
    architecture: GPUArchitecture
    counters: KernelCounters
    blocks_executed: int
    sampled: bool
    sample_fraction: float

    _timing: Optional[TimingBreakdown] = None
    _occupancy: Optional[OccupancyResult] = None

    @property
    def occupancy(self) -> OccupancyResult:
        """Occupancy of this launch on the target architecture."""
        if self._occupancy is None:
            self._occupancy = compute_occupancy(
                self.architecture,
                self.config.block_threads,
                self.config.registers_per_thread,
                self.config.shared_bytes_per_block,
            )
        return self._occupancy

    @property
    def timing(self) -> TimingBreakdown:
        """Estimated execution time breakdown from the analytical model."""
        if self._timing is None:
            self._timing = estimate_time(
                self.counters,
                self.architecture,
                precision=self.config.precision,
                occupancy=self.occupancy,
                memory_parallelism=self.config.memory_parallelism,
            )
        return self._timing

    @property
    def seconds(self) -> float:
        """Estimated kernel time in seconds."""
        return self.timing.total_seconds

    @property
    def milliseconds(self) -> float:
        """Estimated kernel time in milliseconds."""
        return self.seconds * 1e3

    def merged_with(self, other: "LaunchResult") -> "LaunchResult":
        """Combine two launches (e.g. repeated stencil iterations)."""
        merged = KernelCounters()
        merged.merge(self.counters)
        merged.merge(other.counters)
        return LaunchResult(
            kernel_name=self.kernel_name,
            config=self.config,
            architecture=self.architecture,
            counters=merged,
            blocks_executed=self.blocks_executed + other.blocks_executed,
            sampled=self.sampled or other.sampled,
            sample_fraction=self.sample_fraction,
        )


class Kernel:
    """A simulated CUDA kernel."""

    def __init__(self, func: Callable[..., None], name: Optional[str] = None) -> None:
        self.func = func
        self.name = name or getattr(func, "__name__", "kernel")
        #: compiled replay programs keyed by ``repro.trace.replay.trace_key``:
        #: memory geometry, precision, block size, volatile slots and the
        #: argument signature (None: known untraceable)
        self._trace_cache: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Kernel({self.name})"

    def launch(
        self,
        config: LaunchConfig,
        args: Sequence[object],
        architecture: object = "p100",
        max_blocks: Optional[int] = None,
        batch_size: Union[int, str, None] = "auto",
    ) -> LaunchResult:
        """Execute the kernel over the launch grid.

        Parameters
        ----------
        config:
            Grid/block geometry and resource usage.
        args:
            Positional arguments forwarded to the kernel function after the
            block context.
        architecture:
            Architecture preset name or instance.
        max_blocks:
            If given and smaller than the grid, only a uniformly spaced
            sample of blocks is executed and the counters are scaled to the
            full grid (outputs are then incomplete).
        batch_size:
            Blocks executed per vectorized batch.  ``"auto"`` (default)
            bounds the batch by a memory budget (:func:`auto_batch_size`);
            an integer fixes the number of blocks per batch (every batch
            size yields bit-identical results and counters).  ``"replay"``
            records the kernel body once as a dataflow trace and executes
            subsequent chunks through the compiled replay engine
            (:mod:`repro.trace.replay`), bit-identical to ``"auto"``.
        """
        return launch_stages([(self, config, args)], architecture,
                             max_blocks=max_blocks, batch_size=batch_size)


def sampled_blocks(total: int, max_blocks: Optional[int] = None) -> range:
    """The launch-order numbers of the blocks a launch of ``total`` blocks
    runs: all of them, or uniformly strided down to at most ``max_blocks``
    when that is below ``total``."""
    if max_blocks is None or max_blocks >= total:
        return range(total)
    return range(0, total, max(1, total // max_blocks))[:max_blocks]


def block_schedule(grid_dim: Tuple[int, int, int],
                   max_blocks: Optional[int] = None) -> np.ndarray:
    """The blocks a launch runs (:func:`sampled_blocks`): an ``(n, 3)``
    int64 matrix of ``(bx, by, bz)`` in bx-fastest launch order."""
    gx, gy, gz = grid_dim
    ran = sampled_blocks(gx * gy * gz, max_blocks)
    order = np.arange(ran.start, ran.stop, ran.step, dtype=np.int64)
    out = np.empty((order.shape[0], 3), dtype=np.int64)
    out[:, 0] = order % gx
    out[:, 1] = (order // gx) % gy
    out[:, 2] = order // (gx * gy)
    return out


def block_context(config: LaunchConfig, architecture: GPUArchitecture,
                  counters: KernelCounters,
                  block_indices: np.ndarray) -> BatchedBlockContext:
    """The batched execution context of one chunk of a launch."""
    return BatchedBlockContext(block_indices, config.grid_dim,
                               config.block_threads, architecture, counters,
                               config.precision)


class StageFallback(Exception):
    """A replayed stage's kernel is untraceable (the fallback is already
    logged): :func:`launch_stages` reruns the launch with every stage
    batched, which overwrites what the abandoned run wrote because stages
    are out-of-place."""


class BatchedStage:
    """One kernel of a launch, run as :class:`BatchedBlockContext` chunks."""

    def __init__(self, kernel: Kernel, config: LaunchConfig,
                 args: Sequence[object], architecture: GPUArchitecture,
                 chunk: int) -> None:
        self.kernel = kernel
        self.config = config
        self.args = tuple(args)
        self.architecture = architecture
        self.chunk = chunk
        self.counters = KernelCounters()

    def run(self, schedule: np.ndarray, start: int) -> int:
        """Run the chunk of ``schedule`` at ``start``; return its end."""
        end = min(schedule.shape[0], start + self.chunk)
        ctx = block_context(self.config, self.architecture, self.counters,
                            schedule[start:end])
        self.kernel.func(ctx, *self.args)
        ctx.finalize()
        return end

    def finish(self) -> KernelCounters:
        return self.counters


def launch_stages(stages: Sequence[Tuple[Kernel, LaunchConfig, Sequence[object]]],
                  architecture: object = "p100",
                  max_blocks: Optional[int] = None,
                  batch_size: Union[int, str, None] = "auto",
                  lead_blocks: Optional[int] = None,
                  volatile_slots: Optional[Callable] = None) -> LaunchResult:
    """Run one launch of ``(kernel, config, args)`` stages that share the
    first stage's grid, on the engine ``batch_size`` names.

    ``lead_blocks`` is how far each producer stays ahead of its consumer
    (``None``: producers run to completion first); ``volatile_slots(index,
    stages)`` names the arguments of a replayed stage that earlier stages
    write (:mod:`repro.trace.fusion`).
    """
    arch = get_architecture(architecture)
    config = stages[0][1]
    for _, stage_config, _ in stages:
        if stage_config.block_threads % arch.warp_size != 0:
            raise LaunchError(
                f"block size {stage_config.block_threads} is not a multiple "
                f"of warp size {arch.warp_size}")
    schedule = block_schedule(config.grid_dim, max_blocks)
    n = schedule.shape[0]
    if batch_size == "replay":
        from ..trace.replay import ReplayStage

        # chunk 0 of a stage is recorded eagerly at a batched chunk's size,
        # at most half the launch so the compiled path runs (and is covered
        # by the differential tests) even on tiny grids
        step = min(auto_batch_size(config), (n + 1) // 2) if n > 1 else 1
        runners: list = []
        for index, (kernel, stage_config, args) in enumerate(stages):
            runners.append(ReplayStage(
                kernel, stage_config, args, arch, max_blocks, step,
                pipelined=len(stages) > 1,
                volatile=(partial(volatile_slots, index, runners)
                          if volatile_slots else None)))
        try:
            return _run(runners, schedule, config, arch, step, lead_blocks)
        except StageFallback:
            batch_size = "auto"
    step = _resolve_batch_size(batch_size, config, n)
    runners = [BatchedStage(kernel, stage_config, args, arch, step)
               for kernel, stage_config, args in stages]
    return _run(runners, schedule, config, arch, step, lead_blocks)


def _run(stages: Sequence, schedule: np.ndarray, config: LaunchConfig,
         arch: GPUArchitecture, step: int,
         lead_blocks: Optional[int]) -> LaunchResult:
    """The chunk loop: walk ``schedule`` through every stage, the final
    stage ``step`` blocks at a time, then merge the stages' counters (scaled
    to the full grid for a sampled schedule) into one result."""
    n = schedule.shape[0]
    lead = n if lead_blocks is None else max(step, int(lead_blocks))
    pos = [0] * len(stages)
    last = len(stages) - 1
    while pos[last] < n:
        target = min(n, pos[last] + step)
        # producers first, far enough ahead to cover the halo of every
        # downstream consumer; then the final stage up to the target
        for s, stage in enumerate(stages):
            need = min(n, target + (last - s) * lead)
            while pos[s] < need:
                pos[s] = stage.run(schedule, pos[s])
    parts = [stage.finish() for stage in stages]
    counters = parts[0] if len(parts) == 1 else merge_counters(parts)
    sample_fraction = n / config.total_blocks
    sampled = n < config.total_blocks
    if sampled and sample_fraction > 0:
        counters = counters.scaled(1.0 / sample_fraction)
    return LaunchResult(
        kernel_name="+".join(stage.kernel.name for stage in stages),
        config=config,
        architecture=arch,
        counters=counters,
        blocks_executed=n * len(stages),
        sampled=sampled,
        sample_fraction=sample_fraction,
    )


def kernel(func: Callable[..., None]) -> Kernel:
    """Decorator turning a block function into a :class:`Kernel`."""
    return Kernel(func)


def grid_1d(total_items: int, items_per_block: int) -> Tuple[int, int, int]:
    """1-D grid covering ``total_items`` with ``items_per_block`` per block."""
    if items_per_block <= 0:
        raise ConfigurationError("items_per_block must be positive")
    return (math.ceil(total_items / items_per_block), 1, 1)


def grid_2d(items_x: int, per_block_x: int, items_y: int, per_block_y: int) -> Tuple[int, int, int]:
    """2-D grid covering an ``items_x`` x ``items_y`` domain."""
    if per_block_x <= 0 or per_block_y <= 0:
        raise ConfigurationError("per-block extents must be positive")
    return (math.ceil(items_x / per_block_x), math.ceil(items_y / per_block_y), 1)

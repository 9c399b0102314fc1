"""Shared helpers for the SSAM and baseline kernels.

Every kernel wrapper in :mod:`repro.kernels` and :mod:`repro.baselines`
returns a :class:`KernelRunResult` so experiments, examples and tests can
treat implementations interchangeably: the functional output, the launch
(counters + timing model) and the configuration that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..dtypes import Precision, resolve_precision
from ..errors import ConfigurationError, SpecificationError
from ..gpu.architecture import get_architecture
from ..gpu.batch import BatchedBlockContext
from ..gpu.counters import KernelCounters
from ..gpu.kernel import Kernel, LaunchConfig, LaunchResult
from ..gpu.memory import DeviceBuffer, GlobalMemory


@dataclass
class KernelRunResult:
    """Output + cost of one kernel execution on the simulated GPU.

    Attributes
    ----------
    name:
        Implementation name (e.g. ``"ssam"``, ``"npp_like"``).
    output:
        The functional result, or ``None`` for analytic-only evaluations.
    launch:
        The launch record carrying counters and the timing estimate.
    parameters:
        Free-form configuration echo (filter size, P, B, ...).
    """

    name: str
    output: Optional[np.ndarray]
    launch: LaunchResult
    parameters: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Estimated kernel execution time in seconds."""
        return self.launch.seconds

    @property
    def milliseconds(self) -> float:
        """Estimated kernel execution time in milliseconds."""
        return self.launch.milliseconds

    def gcells_per_second(self, cells: int, iterations: int = 1) -> float:
        """Throughput in giga-cells updated per second (the Figure 5 metric)."""
        if self.seconds <= 0:
            return float("inf")
        return cells * iterations / self.seconds / 1e9

    def gflops(self, flops_per_cell: float, cells: int, iterations: int = 1) -> float:
        """Throughput in GFLOP/s given a per-cell FLOP count."""
        if self.seconds <= 0:
            return float("inf")
        return flops_per_cell * cells * iterations / self.seconds / 1e9


def analytic_result(name: str, counters: KernelCounters, config: LaunchConfig,
                    architecture, parameters: Dict[str, object],
                    kernel_name: Optional[str] = None) -> KernelRunResult:
    """A closed-form cost estimate: modelled counters, no block executed.

    ``kernel_name`` names the launch record and defaults to ``name``.
    """
    launch = LaunchResult(kernel_name=kernel_name or name, config=config,
                          architecture=architecture, counters=counters,
                          blocks_executed=0, sampled=True, sample_fraction=0.0)
    return KernelRunResult(name=name, output=None, launch=launch,
                           parameters=parameters)


def resolve_plan(planner, spec, architecture: object, precision: object,
                 plan, outputs_per_thread: Optional[int],
                 block_threads: Optional[int], block_rows: Optional[int]):
    """The one plan a 2-D SSAM kernel wrapper launches.

    Without a ``plan`` this is ``planner(spec, part, precision, P, B, R)``,
    the part and the precision defaulting to P100 and float32.  A given
    plan must be ``spec``'s and is the single source of the part, the
    precision and P, B and R: the part and the precision left as ``None``
    follow it, and an explicit one that disagrees with it raises
    :class:`ConfigurationError`, so a wrapper never runs one problem's or
    part's launch on another problem, part or precision.
    """
    if plan is None:
        return planner(spec, "p100" if architecture is None else architecture,
                       "float32" if precision is None else precision,
                       outputs_per_thread, block_threads, block_rows)
    if (plan.problem is not spec
            and plan.problem.fingerprint() != spec.fingerprint()):
        raise ConfigurationError("the plan was made for another problem spec")
    if architecture is not None and get_architecture(architecture) != plan.architecture:
        raise ConfigurationError(
            f"the plan is for {plan.architecture.name}, not {architecture!r}")
    if precision is not None and resolve_precision(precision) != plan.precision:
        raise ConfigurationError(
            f"the plan is for {plan.precision.name}, not {precision!r}")
    return plan


def check_image(image: np.ndarray) -> np.ndarray:
    """Validate a 2-D input image."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise SpecificationError("expected a 2-D image")
    if image.size == 0:
        raise SpecificationError("image must be non-empty")
    return image


def check_grid3d(grid: np.ndarray) -> np.ndarray:
    """Validate a 3-D input grid."""
    grid = np.asarray(grid)
    if grid.ndim != 3:
        raise SpecificationError("expected a 3-D grid")
    if grid.size == 0:
        raise SpecificationError("grid must be non-empty")
    return grid


def load_weights_to_shared(ctx: BatchedBlockContext, weights: DeviceBuffer, count: int,
                           name: str = "weights"):
    """Stage ``count`` filter weights from global into shared memory.

    Mirrors lines 7-12 of Listing 1: the block's threads cooperatively copy
    the weights, then synchronise.
    """
    smem = ctx.alloc_shared(name, (count,))
    tid = ctx.thread_idx_x
    for base in range(0, count, ctx.block_threads):
        idx = base + tid
        mask = idx < count
        safe = np.minimum(idx, count - 1)
        values = ctx.load_global(weights, safe, mask=mask)
        ctx.store_shared(smem, safe, values, mask=mask)
    ctx.syncthreads()
    return smem


def broadcast_weight(ctx: BatchedBlockContext, smem, flat_index: int) -> np.ndarray:
    """Warp-uniform (broadcast) read of one staged weight.

    The scalar index broadcasts to one lane per thread of every block.
    """
    return ctx.load_shared(smem, np.int64(flat_index))


def clamp(values: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """Clamp indices to a closed range (replicate boundary handling)."""
    return np.clip(values, lower, upper)


def make_device_pair(image: np.ndarray, precision: Precision,
                     memory: Optional[GlobalMemory] = None):
    """Upload an input array and allocate a same-shaped output buffer."""
    memory = memory or GlobalMemory()
    src = memory.to_device(image, name="src", dtype=precision.numpy_dtype,
                           read_only=True)
    dst = memory.allocate(image.shape, precision, name="dst")
    return memory, src, dst


def run_jacobi(kernel: Kernel, grid: np.ndarray, config: LaunchConfig, args: tuple,
               iterations: int, architecture, name: str,
               parameters: Dict[str, object], max_blocks: Optional[int] = None,
               batch_size: object = "auto",
               keep_output: bool = False) -> KernelRunResult:
    """Apply ``kernel`` for ``iterations`` Jacobi steps (Section 4.9).

    Each step launches ``kernel(src, dst, *args)`` and the two device
    buffers swap roles between steps; the returned launch merges every
    step.  A single step only reads its input, so the grid is staged
    read-only (no copy when it already has the working dtype); later steps
    write it.  A sampled run (``max_blocks``) returns no output unless
    ``keep_output`` asks for the partial one; with ``iterations=1`` the
    executed blocks' outputs match a full run exactly.
    """
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    prec = config.precision
    memory = GlobalMemory()
    buffers = [
        memory.to_device(grid, name="grid_a", dtype=prec.numpy_dtype,
                         read_only=iterations == 1),
        memory.allocate(grid.shape, prec, name="grid_b"),
    ]
    merged: Optional[LaunchResult] = None
    for step in range(iterations):
        src, dst = buffers[step % 2], buffers[(step + 1) % 2]
        launch = kernel.launch(config, args=(src, dst) + tuple(args),
                               architecture=architecture,
                               max_blocks=max_blocks, batch_size=batch_size)
        merged = launch if merged is None else merged.merged_with(launch)
    keep = max_blocks is None or keep_output
    return KernelRunResult(name=name,
                           output=buffers[iterations % 2].array if keep else None,
                           launch=merged, parameters=parameters)


def require_edge_boundary(boundary: str, implementation: str) -> None:
    """The device kernels implement replicate ('edge') boundaries only."""
    if boundary != "edge":
        raise ConfigurationError(
            f"{implementation} supports the 'edge' (replicate) boundary only; "
            f"got {boundary!r}. Use the spec's reference() for other modes."
        )

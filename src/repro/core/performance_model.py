"""The analytical performance model of Section 5.

Two questions are answered exactly as in the paper:

* **Section 5.2** — per-output latency of the register-cache (SSAM) scheme
  vs. the conventional shared-memory scheme, using the measured latencies of
  Table 2.  The headline result is Equation 5:
  ``Dif_smem_reg = M*N*T_smem_read - (M-1)*T_shfl  >>  0`` for M, N >= 2.
* **Section 5.3** — the overhead of the halo layers introduced by the
  overlapped blocking scheme, showing that ``AvgDif >> 0``: even after
  paying for redundant halo loads, the register-cache method wins.

All functions take an architecture (name or object) so both Table 2 columns
can be evaluated, and an optional precision because double-precision halves
the useful register count.

The second half of the module turns the model into an *execution engine*:
:func:`model_convolution2d` and friends evaluate the Section 5 latencies plus
the occupancy calculator (:mod:`repro.gpu.occupancy`) for a whole launch and
return a :class:`~repro.kernels.common.KernelRunResult`, so paper-scale
problems run through the scenario sweep pipeline (``engine="model"``) exactly
like simulations — cached, sharded and rendered from the same typed records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..dtypes import resolve_precision
from ..errors import ConfigurationError
from ..gpu.architecture import GPUArchitecture, get_architecture
from ..gpu.counters import KernelCounters
from ..gpu.kernel import LaunchConfig, LaunchResult
from ..gpu.occupancy import compute_occupancy, validate_block_threads
from ..gpu.profiler import (
    LAUNCH_OVERHEAD_SECONDS,
    SECTOR_SERVICE_CYCLES,
    TimingBreakdown,
)
from .blocking import OverlappedBlocking, SharedMemoryBlocking
from .launch_defaults import paper_default


@dataclass(frozen=True)
class LatencyComparison:
    """Per-output-element latency of the two caching schemes (cycles)."""

    filter_width: int
    filter_height: int
    shared_memory_cycles: float
    register_cache_cycles: float

    @property
    def advantage_cycles(self) -> float:
        """Dif_smem_reg = L_smem - L_reg (Equation 5)."""
        return self.shared_memory_cycles - self.register_cache_cycles

    @property
    def speedup(self) -> float:
        """Predicted latency ratio L_smem / L_reg."""
        if self.register_cache_cycles == 0:
            return float("inf")
        return self.shared_memory_cycles / self.register_cache_cycles


def shared_memory_latency(architecture: object, filter_width: int,
                          filter_height: int) -> float:
    """L_smem = M*N*(T_mad + 2*T_smem_read + 2*T_reg)  (Section 5.2)."""
    arch = get_architecture(architecture)
    lat = arch.latencies
    m, n = _check_filter(filter_width, filter_height)
    return m * n * (lat.fma + 2.0 * lat.smem_load + 2.0 * lat.register)


def register_cache_latency(architecture: object, filter_width: int,
                           filter_height: int) -> float:
    """L_reg = M*N*(T_mad + T_smem_read + 2*T_reg) + (M-1)*T_shfl  (Equation 4)."""
    arch = get_architecture(architecture)
    lat = arch.latencies
    m, n = _check_filter(filter_width, filter_height)
    return m * n * (lat.fma + lat.smem_load + 2.0 * lat.register) + (m - 1) * lat.shfl


def latency_advantage(architecture: object, filter_width: int,
                      filter_height: int) -> float:
    """Dif_smem_reg = M*N*T_smem_read - (M-1)*T_shfl (Equation 5)."""
    arch = get_architecture(architecture)
    lat = arch.latencies
    m, n = _check_filter(filter_width, filter_height)
    return m * n * lat.smem_load - (m - 1) * lat.shfl


def stencil_register_cache_latency(architecture: object, taps: int,
                                   footprint_width: int) -> float:
    """Per-output latency of the register-cache scheme with immediate weights.

    Stencil coefficients are compile-time constants (Section 4.8), so the
    ``T_smem_read`` term of Equation 4 disappears:
    ``L = taps*(T_mad + 2*T_reg) + (M-1)*T_shfl``.
    """
    arch = get_architecture(architecture)
    lat = arch.latencies
    if taps < 1 or footprint_width < 1:
        raise ConfigurationError("taps and footprint width must be >= 1")
    return taps * (lat.fma + 2.0 * lat.register) + (footprint_width - 1) * lat.shfl


def compare_latencies(architecture: object, filter_width: int,
                      filter_height: int) -> LatencyComparison:
    """Both per-output latencies plus the derived advantage."""
    return LatencyComparison(
        filter_width=filter_width,
        filter_height=filter_height,
        shared_memory_cycles=shared_memory_latency(architecture, filter_width, filter_height),
        register_cache_cycles=register_cache_latency(architecture, filter_width, filter_height),
    )


def halo_ratio(filter_width: int, filter_height: int, outputs_per_thread: int,
               warp_size: int = 32) -> float:
    """HR_rc of Section 5.3 for the overlapped register-cache blocking."""
    blocking = OverlappedBlocking(
        filter_width=filter_width,
        filter_height=filter_height,
        outputs_per_thread=outputs_per_thread,
        block_threads=warp_size,
        warp_size=warp_size,
    )
    return blocking.halo_ratio


def halo_ratio_upper_bound(filter_width: int, filter_height: int,
                           outputs_per_thread: int, warp_size: int = 32) -> float:
    """The bound HR_rc < N/(N+P-1) + M/WarpSize used in Section 5.3."""
    m, n = _check_filter(filter_width, filter_height)
    p = outputs_per_thread
    return n / (n + p - 1) + m / warp_size


def average_advantage(architecture: object, filter_width: int, filter_height: int,
                      outputs_per_thread: int, warp_size: int = 32) -> float:
    """AvgDif of Section 5.3: per-loaded-element advantage including halo cost.

    ``AvgDif > T_smem_read - T_gmem_read*(N/(N+P-1) + M/32)
               + P*M*N*T_smem_read/(N+P-1) - (M-1)*T_shfl``

    A strongly positive value means the halo overhead of the register-cache
    scheme is marginal compared to what it saves in scratchpad accesses.
    """
    arch = get_architecture(architecture)
    lat = arch.latencies
    m, n = _check_filter(filter_width, filter_height)
    p = outputs_per_thread
    c = n + p - 1
    bound = (
        lat.smem_load
        - lat.gmem_load * (n / c + m / warp_size)
        + p * m * n * lat.smem_load / c
        - (m - 1) * lat.shfl
    )
    return bound


def predicted_speedup(architecture: object, filter_width: int, filter_height: int,
                      outputs_per_thread: int = 4, warp_size: int = 32) -> float:
    """Latency-model speedup of SSAM over the shared-memory scheme.

    Combines the per-output latency ratio of Section 5.2 with the halo load
    amplification of Section 5.3, giving the "how much faster should SSAM
    be" number that Figure 4 is compared against.
    """
    comparison = compare_latencies(architecture, filter_width, filter_height)
    blocking = OverlappedBlocking(
        filter_width=filter_width,
        filter_height=filter_height,
        outputs_per_thread=outputs_per_thread,
        block_threads=warp_size,
        warp_size=warp_size,
    )
    arch = get_architecture(architecture)
    lat = arch.latencies
    # charge the halo amplification on the global load path of each scheme
    reg_cost = comparison.register_cache_cycles + blocking.load_redundancy * lat.gmem_load / (
        blocking.valid_outputs_per_warp / blocking.warp_size
    )
    smem_tile = _default_shared_tile(filter_width, filter_height)
    smem_cost = comparison.shared_memory_cycles + smem_tile * lat.gmem_load / warp_size
    if reg_cost <= 0:
        return float("inf")
    return smem_cost / reg_cost


def advantage_table(architecture: object, filter_sizes: Iterable[int],
                    outputs_per_thread: int = 4) -> List[Dict[str, float]]:
    """Sweep square filter sizes and tabulate the Section 5 quantities."""
    rows: List[Dict[str, float]] = []
    for size in filter_sizes:
        comparison = compare_latencies(architecture, size, size)
        rows.append(
            {
                "filter": size,
                "l_smem_cycles": comparison.shared_memory_cycles,
                "l_reg_cycles": comparison.register_cache_cycles,
                "dif_cycles": comparison.advantage_cycles,
                "latency_speedup": comparison.speedup,
                "halo_ratio": halo_ratio(size, size, outputs_per_thread),
                "avg_dif_cycles": average_advantage(architecture, size, size, outputs_per_thread),
            }
        )
    return rows


def _check_filter(filter_width: int, filter_height: int) -> Tuple[int, int]:
    if filter_width < 1 or filter_height < 1:
        raise ConfigurationError("filter extents must be >= 1")
    return filter_width, filter_height


def _default_shared_tile(filter_width: int, filter_height: int,
                         tile: int = 32) -> float:
    """Load amplification of a conventional 32x32 shared-memory tile."""
    halo_x = filter_width - 1
    halo_y = filter_height - 1
    return (tile + halo_x) * (tile + halo_y) / float(tile * tile)


# ---------------------------------------------------------------------------
# Section 5 as an execution engine (``engine="model"``)
# ---------------------------------------------------------------------------
#
# A launch is modelled as ``warp_passes`` independent warp tiles.  One pass
# costs the Section 5.2 per-output latency times the outputs it produces
# (compute) plus the latency of filling its register cache or scratchpad
# tile (memory).  The SM overlaps as many passes as the occupancy calculator
# says fit; the device therefore completes
# ``concurrency = sm_count * active_warps_per_sm`` passes per pass-latency,
# and the launch takes ``ceil(warp_passes / concurrency)`` such waves.  This
# is deliberately a *latency* model — the point of promoting it to an engine
# is that it evaluates in microseconds at paper scale, and the cross-engine
# validation experiment reports how far it sits from the counted simulation.

#: geometry of the conventional scratchpad baseline (Section 5.3): a 32x32
#: output tile staged by a 256-thread block
MODEL_BASELINE_TILE = 32
MODEL_BASELINE_BLOCK_THREADS = 256
MODEL_BASELINE_REGISTERS = 32


@dataclass(frozen=True)
class ModelPrediction:
    """One closed-form launch prediction of the Section 5 model."""

    scheme: str
    outputs: int
    warp_passes: int
    compute_cycles_per_pass: float
    memory_cycles_per_pass: float
    active_warps_per_sm: int
    occupancy: float
    concurrency: int
    waves: int
    latency_seconds: float
    bandwidth_seconds: float
    seconds: float

    @property
    def cycles_per_pass(self) -> float:
        return self.compute_cycles_per_pass + self.memory_cycles_per_pass

    @property
    def bandwidth_bound(self) -> bool:
        """True when the DRAM-traffic floor dominates the latency estimate."""
        return self.bandwidth_seconds > self.latency_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "outputs": self.outputs,
            "warp_passes": self.warp_passes,
            "compute_cycles_per_pass": self.compute_cycles_per_pass,
            "memory_cycles_per_pass": self.memory_cycles_per_pass,
            "active_warps_per_sm": self.active_warps_per_sm,
            "occupancy": self.occupancy,
            "concurrency": self.concurrency,
            "waves": self.waves,
            "latency_seconds": self.latency_seconds,
            "bandwidth_seconds": self.bandwidth_seconds,
            "seconds": self.seconds,
        }


def predict_launch(architecture: object, config: LaunchConfig, *, scheme: str,
                   outputs: int, warp_passes: int, compute_cycles_per_pass: float,
                   memory_cycles_per_pass: float,
                   dram_bytes: float = 0.0) -> ModelPrediction:
    """Fold per-pass latencies and occupancy into a launch-time prediction.

    The estimate is the maximum of two closed forms: the Section 5.2 pass
    latency divided by the warp-level parallelism the occupancy calculator
    grants, and the Section 5.3 traffic floor (the launch's DRAM bytes —
    halo redundancy included — over the sustainable bandwidth).
    """
    arch = get_architecture(architecture)
    if warp_passes < 1:
        raise ConfigurationError("a launch needs at least one warp pass")
    occ = compute_occupancy(arch, config.block_threads,
                            config.registers_per_thread,
                            config.shared_bytes_per_block)
    concurrency = arch.sm_count * max(1, occ.active_warps_per_sm)
    waves = max(1, math.ceil(warp_passes / concurrency))
    cycles = waves * (compute_cycles_per_pass + memory_cycles_per_pass)
    latency_seconds = cycles / arch.core_clock_hz
    bandwidth_seconds = float(dram_bytes) / arch.effective_bandwidth_bytes
    seconds = max(latency_seconds, bandwidth_seconds) + LAUNCH_OVERHEAD_SECONDS
    return ModelPrediction(
        scheme=scheme,
        outputs=int(outputs),
        warp_passes=int(warp_passes),
        compute_cycles_per_pass=float(compute_cycles_per_pass),
        memory_cycles_per_pass=float(memory_cycles_per_pass),
        active_warps_per_sm=occ.active_warps_per_sm,
        occupancy=occ.occupancy,
        concurrency=int(concurrency),
        waves=int(waves),
        latency_seconds=float(latency_seconds),
        bandwidth_seconds=float(bandwidth_seconds),
        seconds=float(seconds),
    )


def _warp_sectors(arch: GPUArchitecture, itemsize: int) -> int:
    """Memory sectors (cache lines) one coalesced warp access touches."""
    return math.ceil(arch.warp_size * itemsize / arch.cache_line_bytes)


def _coalesced_fill_cycles(arch: GPUArchitecture, rows: int) -> float:
    """Latency of ``rows`` back-to-back coalesced global loads (pipelined)."""
    return arch.latencies.gmem_load + max(0, rows - 1) * SECTOR_SERVICE_CYCLES


def _staging_cycles(arch: GPUArchitecture, words: int, warps_per_block: int) -> float:
    """Shared-memory weight staging (Listing 1 lines 7-12), amortised per warp.

    On Ampere/Hopper the ``cp.async``/TMA path lands data in shared memory
    without the register round-trip: one async-copy latency hides the whole
    burst and subsequent transactions stream at the sector service rate.
    """
    lat = arch.latencies
    ops = math.ceil(words / float(arch.warp_size))
    if lat.supports_async_copy:
        per_block = lat.gmem_to_smem + (ops - 1) * SECTOR_SERVICE_CYCLES + lat.sync
    else:
        per_block = ops * (lat.gmem_load + lat.smem_store) + lat.sync
    return per_block / max(1, warps_per_block)


def _model_result(kernel_name: str, run_name: str, architecture: GPUArchitecture,
                  config: LaunchConfig, counters: KernelCounters,
                  prediction: ModelPrediction,
                  parameters: Dict[str, object]):
    """Wrap a prediction in the same result types the simulators produce.

    The timing breakdown splits the serial pass latency into its compute and
    memory parts (the model has no per-pipe view); ``total_seconds`` is the
    model's prediction, so ``result.milliseconds`` reads identically to a
    simulated launch.
    """
    from ..kernels.common import KernelRunResult  # local: keeps kernels off the core import path

    clock = architecture.core_clock_hz
    compute_seconds = prediction.waves * prediction.compute_cycles_per_pass / clock
    memory_seconds = max(
        prediction.waves * prediction.memory_cycles_per_pass / clock,
        prediction.bandwidth_seconds)
    timing = TimingBreakdown(
        dram_seconds=memory_seconds,
        arithmetic_seconds=compute_seconds,
        smem_seconds=0.0,
        shfl_seconds=0.0,
        l1_seconds=0.0,
        issue_seconds=0.0,
        sync_seconds=0.0,
        launch_overhead_seconds=LAUNCH_OVERHEAD_SECONDS,
        bandwidth_attainment=prediction.occupancy,
        total_seconds=prediction.seconds,
        bottleneck="dram" if (prediction.bandwidth_bound
                              or memory_seconds > compute_seconds)
        else "arithmetic",
    )
    launch = LaunchResult(
        kernel_name=kernel_name,
        config=config,
        architecture=architecture,
        counters=counters,
        blocks_executed=0,
        sampled=True,
        sample_fraction=0.0,
        _timing=timing,
    )
    return KernelRunResult(
        name=run_name,
        output=None,
        launch=launch,
        parameters={**parameters, "engine": "model", **prediction.as_dict()},
    )


def model_convolution2d(spec, width: int, height: int,
                        architecture: object = "p100",
                        precision: object = "float32",
                        outputs_per_thread: "int | None" = None,
                        block_threads: "int | None" = None,
                        block_rows: "int | None" = None) -> "object":
    """Section 5 prediction of the SSAM 2-D convolution (register cache).

    ``outputs_per_thread``/``block_threads``/``block_rows`` override the
    resolved launch defaults so the tuner can cost the whole Section 7.1
    design space closed-form; ``None`` values resolve through the default
    chain of :mod:`repro.core.launch_defaults`.
    """
    from ..kernels import conv2d_ssam
    from .plan import plan_convolution

    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    plan = plan_convolution(spec, arch, prec, outputs_per_thread,
                            block_threads, block_rows)
    base = conv2d_ssam.analytic_launch(spec, width, height, arch, prec,
                                       plan.outputs_per_thread,
                                       plan.block_threads, plan.block_rows)
    blocking = plan.blocking
    compute = plan.outputs_per_thread * register_cache_latency(
        arch, spec.filter_width, spec.filter_height)
    memory = (_coalesced_fill_cycles(arch, blocking.cache_values)
              + _staging_cycles(arch, spec.taps, blocking.warps_per_block))
    prediction = predict_launch(
        arch, base.launch.config, scheme="register_cache",
        outputs=width * height,
        warp_passes=base.launch.config.total_blocks * blocking.warps_per_block,
        compute_cycles_per_pass=compute, memory_cycles_per_pass=memory,
        dram_bytes=base.launch.counters.dram_bytes)
    return _model_result("ssam_conv2d_model", "model", arch, base.launch.config,
                         base.launch.counters, prediction,
                         {"M": spec.filter_width, "N": spec.filter_height,
                          "P": plan.outputs_per_thread,
                          "architecture": arch.name, "precision": prec.name})


def model_convolution2d_chain(spec, width: int, height: int, passes: int = 2,
                              fused: bool = False,
                              architecture: object = "p100",
                              precision: object = "float32",
                              outputs_per_thread: "int | None" = None,
                              block_threads: "int | None" = None,
                              block_rows: "int | None" = None) -> "object":
    """Section 5 prediction of the multi-stage SSAM convolution chain.

    The unfused chain is ``passes`` back-to-back launches of the Section 5.2
    kernel; the fused chain (PR 6's trace fusion) keeps the intermediate
    images resident between stages, so only the first stage reads DRAM and
    only the last one writes it — the compute and staging latencies are
    unchanged, but the Section 5.3 traffic floor shrinks accordingly.
    """
    from ..kernels import conv2d_ssam
    from .plan import plan_convolution

    if passes < 1:
        raise ConfigurationError("a convolution chain needs at least one pass")
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    plan = plan_convolution(spec, arch, prec, outputs_per_thread,
                            block_threads, block_rows)
    base = conv2d_ssam.analytic_launch(spec, width, height, arch, prec,
                                       plan.outputs_per_thread,
                                       plan.block_threads, plan.block_rows)
    blocking = plan.blocking
    compute = plan.outputs_per_thread * register_cache_latency(
        arch, spec.filter_width, spec.filter_height)
    memory = (_coalesced_fill_cycles(arch, blocking.cache_values)
              + _staging_cycles(arch, spec.taps, blocking.warps_per_block))
    counters = base.launch.counters.scaled(float(passes))
    if fused:
        # intermediates never reach DRAM: only the first stage reads the
        # source image and only the last stage writes its output
        counters.dram_read_bytes = base.launch.counters.dram_read_bytes
        counters.dram_write_bytes = base.launch.counters.dram_write_bytes
    prediction = predict_launch(
        arch, base.launch.config,
        scheme="register_cache_fused" if fused else "register_cache",
        outputs=width * height * passes,
        warp_passes=(base.launch.config.total_blocks
                     * blocking.warps_per_block * passes),
        compute_cycles_per_pass=compute, memory_cycles_per_pass=memory,
        dram_bytes=counters.dram_bytes)
    return _model_result("ssam_conv2d_chain_model", "model", arch,
                         base.launch.config, counters, prediction,
                         {"M": spec.filter_width, "N": spec.filter_height,
                          "P": plan.outputs_per_thread, "passes": passes,
                          "fused": fused, "architecture": arch.name,
                          "precision": prec.name})


def model_stencil2d(spec, width: int, height: int, iterations: int = 1,
                    architecture: object = "p100",
                    precision: object = "float32",
                    outputs_per_thread: "int | None" = None,
                    block_threads: "int | None" = None,
                    block_rows: "int | None" = None) -> "object":
    """Section 5 prediction of the SSAM 2-D stencil (immediate coefficients)."""
    from ..kernels import stencil2d_ssam
    from .plan import plan_stencil

    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    plan = plan_stencil(spec, arch, prec, outputs_per_thread,
                        block_threads, block_rows)
    base = stencil2d_ssam.analytic_launch(spec, width, height, iterations,
                                          arch, prec, plan.outputs_per_thread,
                                          plan.block_threads, plan.block_rows)
    blocking = plan.blocking
    compute = plan.outputs_per_thread * stencil_register_cache_latency(
        arch, spec.num_points, spec.footprint_width)
    memory = _coalesced_fill_cycles(arch, blocking.cache_values)
    prediction = predict_launch(
        arch, base.launch.config, scheme="register_cache",
        outputs=width * height * iterations,
        warp_passes=(base.launch.config.total_blocks
                     * blocking.warps_per_block * iterations),
        compute_cycles_per_pass=compute, memory_cycles_per_pass=memory,
        dram_bytes=base.launch.counters.dram_bytes)
    return _model_result("ssam_stencil2d_model", "model", arch,
                         base.launch.config, base.launch.counters, prediction,
                         {"stencil": spec.name, "iterations": iterations,
                          "P": plan.outputs_per_thread,
                          "architecture": arch.name, "precision": prec.name})


def model_stencil3d(spec, width: int, height: int, depth: int,
                    iterations: int = 1, architecture: object = "p100",
                    precision: object = "float32",
                    outputs_per_thread: "int | None" = None,
                    block_threads: "int | None" = None) -> "object":
    """Section 5 prediction of the SSAM 3-D stencil.

    The in-plane footprint follows the register-cache scheme; out-of-plane
    taps are charged as pipelined cache loads (axial taps are staged through
    shared memory by the kernel, general taps read global memory directly).
    """
    from ..kernels import stencil3d_ssam

    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    lat = arch.latencies
    p_extent = (stencil3d_ssam.DEFAULT_OUTPUTS_PER_THREAD_3D
                if outputs_per_thread is None else outputs_per_thread)
    b_extent = (paper_default("block_threads") if block_threads is None
                else block_threads)
    base = stencil3d_ssam.analytic_launch(spec, width, height, depth,
                                          iterations, arch, prec,
                                          p_extent, b_extent)
    config = base.launch.config
    columns = spec.columns()
    axial, general = stencil3d_ssam.split_out_of_plane(spec)
    out_of_plane = len(axial) + len(general)
    compute = p_extent * (
        spec.num_points * (lat.fma + 2.0 * lat.register)
        + max(0, len(columns) - 1) * lat.shfl
        + len(axial) * lat.smem_load
    )
    cache_rows = spec.footprint_height + p_extent - 1
    memory = _coalesced_fill_cycles(arch, cache_rows)
    if out_of_plane:
        memory += (lat.l1_load
                   + (p_extent * out_of_plane - 1) * SECTOR_SERVICE_CYCLES)
    warps_per_block = config.block_threads // arch.warp_size
    prediction = predict_launch(
        arch, config, scheme="register_cache",
        outputs=width * height * depth * iterations,
        warp_passes=config.total_blocks * warps_per_block * iterations,
        compute_cycles_per_pass=compute, memory_cycles_per_pass=memory,
        dram_bytes=base.launch.counters.dram_bytes)
    return _model_result("ssam_stencil3d_model", "model", arch, config,
                         base.launch.counters, prediction,
                         {"stencil": spec.name, "iterations": iterations,
                          "P": p_extent, "architecture": arch.name,
                          "precision": prec.name})


def model_convolution1d(taps: int, length: int, architecture: object = "p100",
                        precision: object = "float32",
                        block_threads: "int | None" = None) -> "object":
    """Section 5 prediction of the SSAM 1-D convolution (Section 3.5)."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    if block_threads is None:
        block_threads = paper_default("block_threads")
    validate_block_threads(arch, block_threads)
    if taps < 1 or taps > arch.warp_size:
        raise ConfigurationError(
            f"1-D filters must have 1..{arch.warp_size} taps, got {taps}")
    from ..kernels.conv1d_ssam import (
        CONV1D_MEMORY_PARALLELISM,
        CONV1D_REGISTERS_PER_THREAD,
    )

    warps_per_block = block_threads // arch.warp_size
    valid_x = arch.warp_size - taps + 1
    blocks = math.ceil(length / (warps_per_block * valid_x))
    warp_passes = blocks * warps_per_block
    # the launch configuration of :func:`repro.kernels.ssam_convolve1d`
    config = LaunchConfig(
        grid_dim=(blocks, 1, 1), block_threads=block_threads,
        registers_per_thread=CONV1D_REGISTERS_PER_THREAD,
        shared_bytes_per_block=0, precision=prec,
        memory_parallelism=CONV1D_MEMORY_PARALLELISM)
    # taps are immediates; one coalesced load fills the lane cache
    compute = stencil_register_cache_latency(arch, taps, taps)
    memory = _coalesced_fill_cycles(arch, 1)
    sectors = _warp_sectors(arch, prec.itemsize)
    counters = KernelCounters()
    counters.blocks_executed = blocks
    counters.warps_executed = warp_passes
    counters.gmem_load = warp_passes
    counters.gmem_load_transactions = warp_passes * sectors
    counters.fma = taps * warp_passes
    counters.shfl = (taps - 1) * warp_passes
    counters.gmem_store = warp_passes
    counters.gmem_store_transactions = warp_passes * sectors
    unique_per_block = warps_per_block * valid_x + taps - 1
    counters.dram_read_bytes = float(unique_per_block * blocks * prec.itemsize)
    counters.dram_write_bytes = float(length * prec.itemsize)
    counters.cache_read_bytes = float(arch.warp_size * warp_passes * prec.itemsize)
    prediction = predict_launch(
        arch, config, scheme="register_cache", outputs=length,
        warp_passes=warp_passes, compute_cycles_per_pass=compute,
        memory_cycles_per_pass=memory, dram_bytes=counters.dram_bytes)
    return _model_result("ssam_conv1d_model", "model", arch, config, counters,
                         prediction,
                         {"taps": taps, "length": length,
                          "architecture": arch.name, "precision": prec.name})


def model_scan(length: int, architecture: object = "p100",
               precision: object = "float32",
               block_threads: "int | None" = None) -> "object":
    """Section 5 prediction of the SSAM Kogge-Stone scan (Figure 1e)."""
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    if block_threads is None:
        block_threads = paper_default("block_threads")
    validate_block_threads(arch, block_threads)
    lat = arch.latencies
    warps_per_block = block_threads // arch.warp_size
    blocks = math.ceil(length / block_threads)
    warp_passes = blocks * warps_per_block
    from ..kernels.scan_ssam import (
        SCAN_MEMORY_PARALLELISM,
        SCAN_REGISTERS_PER_THREAD,
    )

    stages = int(math.log2(arch.warp_size))
    # the launch configuration of :func:`repro.kernels.ssam_scan`
    config = LaunchConfig(
        grid_dim=(blocks, 1, 1), block_threads=block_threads,
        registers_per_thread=SCAN_REGISTERS_PER_THREAD,
        shared_bytes_per_block=warps_per_block * prec.itemsize,
        precision=prec, memory_parallelism=SCAN_MEMORY_PARALLELISM)
    # log2(WarpSize) shuffle+add stages, then the cross-warp combine reads
    # every warp total through the broadcast path
    compute = (stages * (lat.shfl + lat.add)
               + warps_per_block * (lat.smem_broadcast + lat.add))
    memory = _coalesced_fill_cycles(arch, 1) + lat.smem_store + lat.sync
    sectors = _warp_sectors(arch, prec.itemsize)
    counters = KernelCounters()
    counters.blocks_executed = blocks
    counters.warps_executed = warp_passes
    counters.gmem_load = warp_passes
    counters.gmem_load_transactions = warp_passes * sectors
    counters.shfl = stages * warp_passes
    # the stage adds, one carry add per warp total, and the final add
    counters.add = (stages + warps_per_block + 1) * warp_passes
    counters.smem_store = warp_passes
    counters.smem_broadcast = warps_per_block * warp_passes
    counters.sync = warp_passes
    counters.gmem_store = warp_passes + blocks
    counters.gmem_store_transactions = warp_passes * sectors + blocks
    counters.dram_read_bytes = float(length * prec.itemsize)
    counters.dram_write_bytes = float((length + blocks) * prec.itemsize)
    prediction = predict_launch(
        arch, config, scheme="register_cache", outputs=length,
        warp_passes=warp_passes, compute_cycles_per_pass=compute,
        memory_cycles_per_pass=memory, dram_bytes=counters.dram_bytes)
    return _model_result("ssam_scan_model", "model", arch, config, counters,
                         prediction,
                         {"length": length, "B": block_threads,
                          "architecture": arch.name, "precision": prec.name})


def model_shared_memory_2d(taps: int, halo_x: int, halo_y: int, width: int,
                           height: int, iterations: int = 1,
                           architecture: object = "p100",
                           precision: object = "float32",
                           weights_in_shared: bool = True,
                           kernel_name: str = "shared_tile_model",
                           extra_parameters: "Dict[str, object] | None" = None,
                           ) -> "object":
    """Section 5 prediction of the conventional scratchpad scheme (Eq. 3).

    Models the shared-memory baselines: a 32x32 output tile plus halo is
    staged by a 256-thread block, then every tap of every output is read
    back from the scratchpad (``2*T_smem_read`` per MAC when the weights
    also live there, one read otherwise).
    """
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    lat = arch.latencies
    if taps < 1:
        raise ConfigurationError("taps must be >= 1")
    tile = MODEL_BASELINE_TILE
    block_threads = MODEL_BASELINE_BLOCK_THREADS
    blocking = SharedMemoryBlocking(tile_width=tile, tile_height=tile,
                                    halo_x=halo_x, halo_y=halo_y)
    grid = blocking.grid_dim(width, height)
    blocks = grid[0] * grid[1] * grid[2]
    warps_per_block = block_threads // arch.warp_size
    outputs_per_thread = blocking.valid_outputs // block_threads
    loads_per_thread = math.ceil(blocking.cached_elements / block_threads)
    config = LaunchConfig(
        grid_dim=grid, block_threads=block_threads,
        registers_per_thread=MODEL_BASELINE_REGISTERS,
        shared_bytes_per_block=blocking.shared_bytes(prec), precision=prec,
        memory_parallelism=float(loads_per_thread))
    smem_reads = 2.0 if weights_in_shared else 1.0
    per_output = taps * (lat.fma + smem_reads * lat.smem_load + 2.0 * lat.register)
    compute = outputs_per_thread * per_output
    if lat.supports_async_copy:
        memory = (lat.gmem_to_smem
                  + max(0, loads_per_thread - 1) * SECTOR_SERVICE_CYCLES
                  + lat.sync)
    else:
        memory = (_coalesced_fill_cycles(arch, loads_per_thread)
                  + lat.smem_store + lat.sync)
    warp_passes = blocks * warps_per_block * iterations
    sectors = _warp_sectors(arch, prec.itemsize)
    counters = KernelCounters()
    counters.blocks_executed = blocks * iterations
    counters.warps_executed = warp_passes
    counters.gmem_load = loads_per_thread * warp_passes
    counters.gmem_load_transactions = loads_per_thread * warp_passes * sectors
    counters.smem_store = loads_per_thread * warp_passes
    counters.sync = warp_passes
    counters.fma = outputs_per_thread * taps * warp_passes
    counters.smem_load = outputs_per_thread * taps * smem_reads * warp_passes
    counters.gmem_store = outputs_per_thread * warp_passes
    counters.gmem_store_transactions = outputs_per_thread * warp_passes * sectors
    counters.dram_read_bytes = float(blocking.cached_elements * blocks
                                     * prec.itemsize * iterations)
    counters.dram_write_bytes = float(width * height * prec.itemsize * iterations)
    counters.smem_read_bytes = float(counters.smem_load * arch.warp_size
                                     * prec.itemsize)
    counters.smem_write_bytes = float(blocking.cached_elements * blocks
                                      * prec.itemsize * iterations)
    prediction = predict_launch(
        arch, config, scheme="shared_memory",
        outputs=width * height * iterations, warp_passes=warp_passes,
        compute_cycles_per_pass=compute, memory_cycles_per_pass=memory,
        dram_bytes=counters.dram_bytes)
    parameters = {"taps": taps, "tile": tile, "halo_x": halo_x,
                  "halo_y": halo_y, "iterations": iterations,
                  "architecture": arch.name, "precision": prec.name}
    parameters.update(extra_parameters or {})
    return _model_result(kernel_name, "model", arch, config, counters,
                         prediction, parameters)


def model_naive_3d(taps: int, width: int, height: int, depth: int,
                   iterations: int = 1, architecture: object = "p100",
                   precision: object = "float32",
                   kernel_name: str = "naive3d_model") -> "object":
    """Section 5 prediction of the naive one-output-per-thread 3-D baseline.

    Every tap is an individual cache-hierarchy load: the first one pays the
    full global-memory latency, the rest stream through the L1/L2 path.
    """
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    lat = arch.latencies
    block_threads = MODEL_BASELINE_BLOCK_THREADS
    cells = width * height * depth
    blocks = math.ceil(cells / block_threads)
    warps_per_block = block_threads // arch.warp_size
    warp_passes = blocks * warps_per_block * iterations
    config = LaunchConfig(
        grid_dim=(blocks, 1, 1), block_threads=block_threads,
        registers_per_thread=MODEL_BASELINE_REGISTERS,
        shared_bytes_per_block=0, precision=prec, memory_parallelism=4.0)
    compute = taps * (lat.fma + 2.0 * lat.register)
    memory = lat.gmem_load + (taps - 1) * lat.l1_load / config.memory_parallelism
    sectors = _warp_sectors(arch, prec.itemsize)
    counters = KernelCounters()
    counters.blocks_executed = blocks * iterations
    counters.warps_executed = warp_passes
    counters.gmem_load = taps * warp_passes
    counters.gmem_load_transactions = taps * warp_passes * sectors
    counters.fma = taps * warp_passes
    counters.gmem_store = warp_passes
    counters.gmem_store_transactions = warp_passes * sectors
    counters.dram_read_bytes = float(cells * prec.itemsize * iterations)
    counters.dram_write_bytes = float(cells * prec.itemsize * iterations)
    counters.cache_read_bytes = float(taps * warp_passes * arch.warp_size
                                      * prec.itemsize)
    prediction = predict_launch(
        arch, config, scheme="naive", outputs=cells * iterations,
        warp_passes=warp_passes, compute_cycles_per_pass=compute,
        memory_cycles_per_pass=memory, dram_bytes=counters.dram_bytes)
    return _model_result(kernel_name, "model", arch, config, counters,
                         prediction,
                         {"taps": taps, "iterations": iterations,
                          "architecture": arch.name, "precision": prec.name})

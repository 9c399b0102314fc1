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
:func:`model_convolution2d` and friends price the analytic launch of one
kernel — its closed form's counters and launch configuration, kept as they
are — with the Section 5 latencies, the occupancy calculator
(:mod:`repro.gpu.occupancy`) and the Section 5.3 DRAM floor, and return a
:class:`~repro.kernels.common.KernelRunResult`, so paper-scale problems run
through the scenario sweep pipeline (``engine="model"``) exactly like
simulations — cached, sharded and rendered from the same typed records.
Each takes the closed form and the launch it was computed under, never a
part, a precision or a launch knob: ``model_convolution2d(base, plan)``,
``model_stencil2d(base, plan)``, ``model_stencil3d(base, geometry)`` (the
kernel's ``launch_geometry``, spec and domain included),
``model_convolution1d(base)``,
``model_scan(base)`` and ``model_direct(base, outputs)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..errors import ConfigurationError
from ..gpu.architecture import GPUArchitecture, get_architecture
from ..gpu.kernel import LaunchConfig, LaunchResult
from ..gpu.occupancy import compute_occupancy
from ..gpu.profiler import (
    LAUNCH_OVERHEAD_SECONDS,
    SECTOR_SERVICE_CYCLES,
    TimingBreakdown,
)
from .blocking import OverlappedBlocking


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
# A launch is modelled as ``warp_passes`` independent warp tiles: every warp
# the kernel's closed form counts is one pass.  One pass costs the Section
# 5.2 per-output latency times the outputs it produces (compute) plus the
# latency of filling its register cache or scratchpad tile (memory).  The SM
# overlaps as many passes as the occupancy calculator says fit; the device
# therefore completes ``concurrency = sm_count * active_warps_per_sm``
# passes per pass-latency, and the launch takes
# ``ceil(warp_passes / concurrency)`` such waves.  This is deliberately a
# *latency* model — the point of promoting it to an engine is that it
# evaluates in microseconds at paper scale, and the cross-engine validation
# experiment reports how far it sits from the counted simulation.  Each
# ``model_*`` is handed the kernel's analytic result and keeps its counters
# and launch configuration as they are, so the model counts nothing and
# shapes no launch itself.

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


def predict_launch(arch: GPUArchitecture, config: LaunchConfig, *, scheme: str,
                   outputs: int, warp_passes: int, compute_cycles_per_pass: float,
                   memory_cycles_per_pass: float,
                   dram_bytes: float = 0.0) -> ModelPrediction:
    """Fold per-pass latencies and occupancy into a launch-time prediction.

    The estimate is the maximum of two closed forms: the Section 5.2 pass
    latency divided by the warp-level parallelism the occupancy calculator
    grants, and the Section 5.3 traffic floor (the launch's DRAM bytes —
    halo redundancy included — over the sustainable bandwidth).
    """
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


#: the domain axes of a closed form's parameters: a launch computes their
#: product of outputs
_DOMAIN_AXES = ("length", "width", "height", "depth", "iterations", "passes")


def _priced(base, scheme: str, compute_cycles_per_pass: float,
            memory_cycles_per_pass: float, outputs: "int | None" = None,
            parameters: "Dict[str, object] | None" = None):
    """The Section 5 prediction of the launch ``base`` describes, in the
    result types the simulators produce.

    ``base`` is a kernel's closed form (its ``analytic`` result); its
    launch configuration and counters are kept as they are, and every warp
    it counts is one pass.  ``outputs`` defaults to the product of its
    domain axes and ``parameters`` to its own, less the ``analytic`` flag.
    The timing breakdown splits the serial pass latency into its compute
    and memory parts (the model has no per-pipe view); ``total_seconds``
    is the model's prediction, so ``result.milliseconds`` reads
    identically to a simulated launch.
    """
    from ..kernels.common import KernelRunResult  # local: keeps kernels off the core import path

    launch = base.launch
    arch, counters = launch.architecture, launch.counters
    if outputs is None:
        outputs = math.prod(base.parameters.get(axis, 1) for axis in _DOMAIN_AXES)
    if parameters is None:
        parameters = {k: v for k, v in base.parameters.items() if k != "analytic"}
    prediction = predict_launch(
        arch, launch.config, scheme=scheme, outputs=outputs,
        warp_passes=counters.warps_executed,
        compute_cycles_per_pass=compute_cycles_per_pass,
        memory_cycles_per_pass=memory_cycles_per_pass,
        dram_bytes=counters.dram_bytes)
    clock = arch.core_clock_hz
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
    kernel_name = launch.kernel_name.removesuffix("_analytic") + "_model"
    return KernelRunResult(
        name="model",
        output=None,
        launch=LaunchResult(kernel_name=kernel_name, config=launch.config,
                            architecture=arch, counters=counters,
                            blocks_executed=0, sampled=True,
                            sample_fraction=0.0, _timing=timing),
        parameters={**parameters, "engine": "model", **prediction.as_dict()},
    )


def model_convolution2d(base, plan) -> "object":
    """Section 5 prediction of the SSAM 2-D convolution or its chain.

    ``base`` is the closed form under ``plan``
    (:func:`repro.kernels.conv2d_ssam.analytic_launch`, or
    ``analytic_chain_launch`` for ``passes`` back-to-back launches).  One
    warp pass costs P outputs at the Eq. 4 latency plus the fill of its
    C-row register cache and its share of the weight staging.  A fused
    chain keeps the intermediate images resident, so its closed form reads
    and writes DRAM once: the pass latencies are unchanged and only the
    Section 5.3 traffic floor shrinks.
    """
    arch = base.launch.architecture
    spec, blocking = plan.problem, plan.blocking
    compute = plan.outputs_per_thread * register_cache_latency(
        arch, spec.filter_width, spec.filter_height)
    memory = (_coalesced_fill_cycles(arch, blocking.cache_values)
              + _staging_cycles(arch, spec.taps, blocking.warps_per_block))
    parameters = {key: base.parameters[key]
                  for key in ("M", "N", "P", "passes", "fused", "architecture",
                              "precision") if key in base.parameters}
    scheme = ("register_cache_fused" if base.parameters.get("fused")
              else "register_cache")
    return _priced(base, scheme, compute, memory, parameters=parameters)


def model_stencil2d(base, plan) -> "object":
    """Section 5 prediction of the SSAM 2-D stencil (immediate coefficients)
    from its closed form ``base`` under ``plan``."""
    arch = base.launch.architecture
    spec = plan.problem
    compute = plan.outputs_per_thread * stencil_register_cache_latency(
        arch, spec.num_points, spec.footprint_width)
    memory = _coalesced_fill_cycles(arch, plan.blocking.cache_values)
    given = base.parameters
    return _priced(base, "register_cache", compute, memory, parameters={
        "stencil": given["stencil"], "iterations": given["iterations"],
        "P": plan.outputs_per_thread, "architecture": given["architecture"],
        "precision": given["precision"]})


def model_stencil3d(base, geometry) -> "object":
    """Section 5 prediction of the SSAM 3-D stencil from its closed form
    ``base`` under ``geometry`` (its ``launch_geometry``, which holds the
    spec).

    The in-plane footprint follows the register-cache scheme; out-of-plane
    taps are charged as pipelined cache loads (axial taps are staged through
    shared memory by the kernel, general taps read global memory directly).
    """
    from ..kernels.stencil3d_ssam import split_out_of_plane

    arch = base.launch.architecture
    lat = arch.latencies
    spec, p_extent = geometry.spec, geometry.outputs_per_thread
    columns = spec.columns()
    axial, general = split_out_of_plane(spec)
    out_of_plane = len(axial) + len(general)
    compute = p_extent * (
        spec.num_points * (lat.fma + 2.0 * lat.register)
        + max(0, len(columns) - 1) * lat.shfl
        + len(axial) * lat.smem_load
    )
    memory = _coalesced_fill_cycles(arch, geometry.cache_rows)
    if out_of_plane:
        memory += (lat.l1_load
                   + (p_extent * out_of_plane - 1) * SECTOR_SERVICE_CYCLES)
    given = base.parameters
    return _priced(base, "register_cache", compute, memory, parameters={
        "stencil": spec.name, "iterations": given["iterations"],
        "P": p_extent, "architecture": given["architecture"],
        "precision": given["precision"]})


def model_convolution1d(base) -> "object":
    """Section 5 prediction of the SSAM 1-D convolution (Section 3.5) from
    its closed form ``base``: the taps are immediates and one coalesced
    load fills the lane cache."""
    arch = base.launch.architecture
    taps = base.parameters["taps"]
    return _priced(base, "register_cache",
                   stencil_register_cache_latency(arch, taps, taps),
                   _coalesced_fill_cycles(arch, 1))


def model_scan(base) -> "object":
    """Section 5 prediction of the SSAM Kogge-Stone scan (Figure 1e) from its
    closed form ``base``.

    ``log2(WarpSize)`` shuffle+add stages, then the cross-warp combine
    reads every warp total through the broadcast path.
    """
    arch = base.launch.architecture
    lat = arch.latencies
    stages = int(math.log2(arch.warp_size))
    warps_per_block = base.launch.config.block_threads // arch.warp_size
    compute = (stages * (lat.shfl + lat.add)
               + warps_per_block * (lat.smem_broadcast + lat.add))
    memory = _coalesced_fill_cycles(arch, 1) + lat.smem_store + lat.sync
    return _priced(base, "register_cache", compute, memory)


def model_direct(base, outputs: int) -> "object":
    """Section 5 prediction of a direct baseline from its closed-form counts.

    ``base`` is the baseline's ``analytic`` result, so the model prices
    exactly the kernel the baseline runs.  One warp pays its counted MACs,
    scratchpad reads and per-tap overhead at the Table 2 latencies (Eq. 3).
    A kernel that stages a tile (it counts shared stores) waits for the
    tile fill and the barrier.  A naive warp with an active lane (one per
    counted store; masked-off warps issue nothing) pays one global load,
    and its remaining per-tap loads stream through L1
    ``memory_parallelism`` at a time.
    """
    launch = base.launch
    arch, config, counters = launch.architecture, launch.config, launch.counters
    lat = arch.latencies
    warps = counters.warps_executed
    compute = (counters.fma * (lat.fma + 2.0 * lat.register)
               + counters.smem_load * lat.smem_load
               + counters.misc * lat.misc) / warps
    if counters.smem_store:
        scheme = "shared_memory"
        loads = counters.gmem_load / warps  # each warp's share of the fill
        if lat.supports_async_copy:
            memory = lat.gmem_to_smem + max(0.0, loads - 1) * SECTOR_SERVICE_CYCLES
        else:
            memory = _coalesced_fill_cycles(arch, loads) + lat.smem_store
        memory += lat.sync
    else:
        scheme = "naive"
        loads = counters.gmem_load / counters.gmem_store
        memory = lat.gmem_load + (loads - 1) * lat.l1_load / config.memory_parallelism
    return _priced(base, scheme, compute, memory, outputs=outputs)

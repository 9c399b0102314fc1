"""GPU architecture descriptions used by the simulator and the timing model.

The capacities follow Table 1 of the paper:

=========  =================  ====================  ====
Tesla GPU  Shared memory/SM   32-bit registers/SM   SMs
=========  =================  ====================  ====
K40        16/32/48 KB        65536                  15
M40        96 KB              65536                  24
P100       64 KB              65536                  56
V100       up to 96 KB        65536                  80
=========  =================  ====================  ====

Clocks, memory bandwidth, cache sizes and register-bank counts come from the
public whitepapers and the micro-benchmarking studies cited in Section 7.1
(Jia et al.): Volta has a 128 KB combined L1 (vs. 24 KB usable on Pascal), a
6 MB L2 (vs. 4 MB) and two register banks (vs. four on earlier generations).

The post-paper A100 (Ampere) and H100 (Hopper) presets extend the same
model from their whitepapers and the dissecting-Ampere/Hopper follow-up
studies: much larger shared-memory carve-outs (164/228 KB per SM), bigger
L1/L2, HBM2e/HBM3 bandwidth, and an asynchronous global→shared copy path
(``cp.async`` / TMA) exposed through ``LatencyTable.gmem_to_smem``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, Tuple

from ..errors import ConfigurationError
from .latency import (
    LatencyTable,
    ThroughputTable,
    latency_for_generation,
    throughput_for_generation,
)

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class GPUArchitecture:
    """Static description of a CUDA-capable GPU used for simulation.

    All capacity fields are per-SM unless stated otherwise.  Instances are
    immutable; use :meth:`with_shared_memory_carveout` or
    :func:`dataclasses.replace` to derive variants.
    """

    name: str
    generation: str
    sm_count: int
    warp_size: int
    #: 32-bit registers per SM (Table 1: 65536 on every evaluated part).
    registers_per_sm: int
    max_registers_per_thread: int
    max_registers_per_block: int
    shared_memory_per_sm: int
    shared_memory_per_block: int
    shared_memory_banks: int
    shared_memory_bank_bytes: int
    max_threads_per_block: int
    max_threads_per_sm: int
    max_warps_per_sm: int
    max_blocks_per_sm: int
    l1_cache_bytes: int
    l2_cache_bytes: int
    cache_line_bytes: int
    register_banks: int
    fp32_cores_per_sm: int
    fp64_ratio: float
    core_clock_hz: float
    memory_bandwidth_bytes: float
    dram_efficiency: float
    global_memory_bytes: int
    register_allocation_granularity: int = 256
    shared_allocation_granularity: int = 256
    warp_allocation_granularity: int = 2
    latencies: LatencyTable = field(default=None)  # type: ignore[assignment]
    throughput: ThroughputTable = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.warp_size <= 0 or self.warp_size & (self.warp_size - 1):
            raise ConfigurationError("warp_size must be a positive power of two")
        if self.sm_count <= 0:
            raise ConfigurationError("sm_count must be positive")
        if self.latencies is None:
            object.__setattr__(self, "latencies", latency_for_generation(self.generation))
        if self.throughput is None:
            object.__setattr__(self, "throughput", throughput_for_generation(self.generation))

    # -- derived quantities -------------------------------------------------
    @property
    def registers_per_sm_bytes(self) -> int:
        """Register file capacity per SM in bytes (65536 x 4 B = 256 KB)."""
        return self.registers_per_sm * 4

    @property
    def peak_fp32_flops(self) -> float:
        """Peak single-precision FLOP/s (2 FLOP per FMA)."""
        return 2.0 * self.fp32_cores_per_sm * self.sm_count * self.core_clock_hz

    @property
    def peak_fp64_flops(self) -> float:
        """Peak double-precision FLOP/s."""
        return self.peak_fp32_flops * self.fp64_ratio

    @property
    def effective_bandwidth_bytes(self) -> float:
        """Sustainable DRAM bandwidth (peak x measured efficiency)."""
        return self.memory_bandwidth_bytes * self.dram_efficiency

    @property
    def memory_geometry(self) -> Tuple[int, int, int, int]:
        """The only fields the memory counter rules read:
        ``(warp_size, cache_line_bytes, shared_memory_banks,
        shared_memory_bank_bytes)``.

        Two parts with the same geometry produce the same counters for the
        same kernel body, so one compiled replay program serves both.
        """
        return (self.warp_size, self.cache_line_bytes,
                self.shared_memory_banks, self.shared_memory_bank_bytes)

    @property
    def supports_async_copy(self) -> bool:
        """True when the part has a direct global→shared copy path."""
        return self.latencies.supports_async_copy

    @property
    def register_to_shared_ratio(self) -> float:
        """Register-file : scratchpad capacity ratio highlighted in Section 2.

        The paper notes the 256 KB register file is more than 2.7x larger
        than the scratchpad on the latest GPUs.
        """
        return self.registers_per_sm_bytes / float(self.shared_memory_per_sm)

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count on one SM into seconds."""
        return float(cycles) / self.core_clock_hz

    def seconds_to_cycles(self, seconds: float) -> float:
        """Convert seconds into core clock cycles."""
        return float(seconds) * self.core_clock_hz

    def with_shared_memory_carveout(self, bytes_per_sm: int) -> "GPUArchitecture":
        """Return a copy with a different shared-memory carve-out per SM.

        The K40 supports 16/32/48 KB and Volta up to 96 KB per block; the
        carve-out affects occupancy, so experiments can sweep it.
        """
        if bytes_per_sm <= 0 or bytes_per_sm > 228 * KIB:
            raise ConfigurationError("unrealistic shared memory carveout")
        return replace(
            self,
            shared_memory_per_sm=bytes_per_sm,
            shared_memory_per_block=min(bytes_per_sm, self.shared_memory_per_block),
        )

    def summary(self) -> Dict[str, object]:
        """Key capacities, as reported in Table 1, plus derived ratios."""
        return {
            "name": self.name,
            "generation": self.generation,
            "sm_count": self.sm_count,
            "shared_memory_per_sm_kib": self.shared_memory_per_sm // KIB,
            "registers_per_sm": self.registers_per_sm,
            "register_file_kib": self.registers_per_sm_bytes // KIB,
            "register_to_shared_ratio": round(self.register_to_shared_ratio, 2),
            "peak_fp32_tflops": round(self.peak_fp32_flops / 1e12, 2),
            "memory_bandwidth_gbs": round(self.memory_bandwidth_bytes / 1e9, 1),
        }


# ---------------------------------------------------------------------------
# Presets (Table 1 of the paper)
# ---------------------------------------------------------------------------

TESLA_K40 = GPUArchitecture(
    name="Tesla K40",
    generation="kepler",
    sm_count=15,
    warp_size=32,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    max_registers_per_block=65536,
    shared_memory_per_sm=48 * KIB,
    shared_memory_per_block=48 * KIB,
    shared_memory_banks=32,
    shared_memory_bank_bytes=4,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    max_warps_per_sm=64,
    max_blocks_per_sm=16,
    l1_cache_bytes=16 * KIB,
    l2_cache_bytes=1536 * KIB,
    cache_line_bytes=128,
    register_banks=4,
    fp32_cores_per_sm=192,
    fp64_ratio=1.0 / 3.0,
    core_clock_hz=745e6,
    memory_bandwidth_bytes=288e9,
    dram_efficiency=0.75,
    global_memory_bytes=12 * 1024 * MIB,
)

TESLA_M40 = GPUArchitecture(
    name="Tesla M40",
    generation="maxwell",
    sm_count=24,
    warp_size=32,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    max_registers_per_block=65536,
    shared_memory_per_sm=96 * KIB,
    shared_memory_per_block=48 * KIB,
    shared_memory_banks=32,
    shared_memory_bank_bytes=4,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    l1_cache_bytes=24 * KIB,
    l2_cache_bytes=3 * MIB,
    cache_line_bytes=128,
    register_banks=4,
    fp32_cores_per_sm=128,
    fp64_ratio=1.0 / 32.0,
    core_clock_hz=1114e6,
    memory_bandwidth_bytes=288e9,
    dram_efficiency=0.75,
    global_memory_bytes=12 * 1024 * MIB,
)

TESLA_P100 = GPUArchitecture(
    name="Tesla P100",
    generation="pascal",
    sm_count=56,
    warp_size=32,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    max_registers_per_block=65536,
    shared_memory_per_sm=64 * KIB,
    shared_memory_per_block=48 * KIB,
    shared_memory_banks=32,
    shared_memory_bank_bytes=4,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    l1_cache_bytes=24 * KIB,
    l2_cache_bytes=4 * MIB,
    cache_line_bytes=128,
    register_banks=4,
    fp32_cores_per_sm=64,
    fp64_ratio=0.5,
    core_clock_hz=1328e6,
    memory_bandwidth_bytes=732e9,
    dram_efficiency=0.78,
    global_memory_bytes=16 * 1024 * MIB,
)

TESLA_V100 = GPUArchitecture(
    name="Tesla V100",
    generation="volta",
    sm_count=80,
    warp_size=32,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    max_registers_per_block=65536,
    shared_memory_per_sm=96 * KIB,
    shared_memory_per_block=96 * KIB,
    shared_memory_banks=32,
    shared_memory_bank_bytes=4,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    l1_cache_bytes=128 * KIB,
    l2_cache_bytes=6 * MIB,
    cache_line_bytes=128,
    register_banks=2,
    fp32_cores_per_sm=64,
    fp64_ratio=0.5,
    core_clock_hz=1530e6,
    memory_bandwidth_bytes=900e9,
    dram_efficiency=0.80,
    global_memory_bytes=16 * 1024 * MIB,
)

A100 = GPUArchitecture(
    name="A100",
    generation="ampere",
    sm_count=108,
    warp_size=32,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    max_registers_per_block=65536,
    shared_memory_per_sm=164 * KIB,
    shared_memory_per_block=163 * KIB,
    shared_memory_banks=32,
    shared_memory_bank_bytes=4,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    l1_cache_bytes=192 * KIB,
    l2_cache_bytes=40 * MIB,
    cache_line_bytes=128,
    register_banks=2,
    fp32_cores_per_sm=64,
    fp64_ratio=0.5,
    core_clock_hz=1410e6,
    memory_bandwidth_bytes=1555e9,
    dram_efficiency=0.82,
    global_memory_bytes=40 * 1024 * MIB,
)

H100 = GPUArchitecture(
    name="H100",
    generation="hopper",
    sm_count=132,
    warp_size=32,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    max_registers_per_block=65536,
    shared_memory_per_sm=228 * KIB,
    shared_memory_per_block=227 * KIB,
    shared_memory_banks=32,
    shared_memory_bank_bytes=4,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    l1_cache_bytes=256 * KIB,
    l2_cache_bytes=50 * MIB,
    cache_line_bytes=128,
    register_banks=2,
    fp32_cores_per_sm=128,
    fp64_ratio=0.5,
    core_clock_hz=1830e6,
    memory_bandwidth_bytes=3350e9,
    dram_efficiency=0.83,
    global_memory_bytes=80 * 1024 * MIB,
)

#: all presets keyed by short name
ARCHITECTURES: Dict[str, GPUArchitecture] = {
    "k40": TESLA_K40,
    "m40": TESLA_M40,
    "p100": TESLA_P100,
    "v100": TESLA_V100,
    "a100": A100,
    "h100": H100,
}

#: the two parts evaluated in the paper, in figure order
EVALUATED_ARCHITECTURES: Tuple[GPUArchitecture, ...] = (TESLA_P100, TESLA_V100)

#: post-paper parts added for the Section 7.1 "newer hardware" question
MODERN_ARCHITECTURES: Tuple[GPUArchitecture, ...] = (A100, H100)


def architecture_names() -> Tuple[str, ...]:
    """The preset short names, in Table 1 order (registry envelopes, CLIs)."""
    return tuple(ARCHITECTURES)


def get_architecture(name: object) -> GPUArchitecture:
    """Look up an architecture preset by name (case-insensitive).

    Accepts an existing :class:`GPUArchitecture` unchanged so public APIs can
    take either a name or an instance.
    """
    if isinstance(name, GPUArchitecture):
        return name
    if not isinstance(name, str):
        raise ConfigurationError(f"cannot interpret {name!r} as a GPU architecture")
    return _lookup_architecture(name)


def warp_sectors(arch: GPUArchitecture, itemsize: int) -> int:
    """Memory sectors (cache lines) one coalesced warp access touches."""
    return math.ceil(arch.warp_size * itemsize / arch.cache_line_bytes)


@lru_cache(maxsize=None)
def _lookup_architecture(name: str) -> GPUArchitecture:
    """Name normalisation + preset lookup, memoised for hot launch paths."""
    key = name.lower().replace("tesla ", "").replace(" ", "")
    try:
        return ARCHITECTURES[key]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown GPU architecture {name!r}; available: {sorted(ARCHITECTURES)}"
        ) from exc


def table1_rows() -> Tuple[Dict[str, object], ...]:
    """Rows of Table 1 (shared memory and register files on GPUs)."""
    rows = []
    for key in ("k40", "m40", "p100", "v100"):
        arch = ARCHITECTURES[key]
        rows.append(
            {
                "gpu": arch.name,
                "shared_memory_per_sm_kib": arch.shared_memory_per_sm // KIB,
                "registers_per_sm": arch.registers_per_sm,
                "sm_count": arch.sm_count,
            }
        )
    return tuple(rows)

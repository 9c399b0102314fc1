"""End-to-end SSAM execution plans.

An :class:`SSAMPlan` bundles everything needed to run (or cost) an SSAM
kernel for a given problem on a given architecture: the register-cache plan,
the overlapped blocking geometry, the systolic program J = (O, D, X, Y) and
the resulting CUDA launch configuration.  Experiments use plans so that the
functional kernels, the analytic traffic profiles and the performance model
are always parameterised identically.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..convolution.spec import ConvolutionSpec
from ..dtypes import Precision, resolve_precision
from ..gpu.architecture import GPUArchitecture, get_architecture
from ..gpu.kernel import LaunchConfig
from ..gpu.occupancy import OccupancyResult, compute_occupancy, validate_block_threads
from ..stencils.spec import StencilSpec
from .blocking import OverlappedBlocking
from .launch_defaults import PAPER_LAUNCH_DEFAULTS, resolve_launch_defaults
from .model import SystolicProgram
from .register_cache import RegisterCachePlan, choose_plan, resolve_outputs_per_thread

#: the paper's evaluation constants (Section 6.2), re-exported for
#: compatibility; the authoritative copy — and the tuned-default resolution
#: chain layered on top — lives in :mod:`repro.core.launch_defaults`
DEFAULT_BLOCK_THREADS = PAPER_LAUNCH_DEFAULTS["block_threads"]
DEFAULT_OUTPUTS_PER_THREAD = PAPER_LAUNCH_DEFAULTS["outputs_per_thread"]


@dataclass(frozen=True)
class SSAMPlan:
    """A fully resolved SSAM configuration for one problem instance."""

    problem: Union[ConvolutionSpec, StencilSpec]
    architecture: GPUArchitecture
    register_cache: RegisterCachePlan
    blocking: OverlappedBlocking
    precision: Precision
    block_threads: int
    #: where the launch parameters came from ("explicit", "tuned", "paper"
    #: or a chain combination); provenance only — excluded from equality,
    #: ``to_dict`` and the fingerprint so identically-parameterised plans
    #: share cache entries regardless of how their values were resolved
    defaults_source: Optional[str] = field(default=None, compare=False)

    @property
    def program(self) -> SystolicProgram:
        """The systolic program J = (O, D, X, Y), built on first access.

        Construction (and its dependency-DAG validation) allocates graph
        structures that nothing on the launch/cache-key path needs, so it
        is deferred until a consumer actually inspects the schedule.
        """
        cached = self.__dict__.get("_program")
        if cached is None:
            if isinstance(self.problem, ConvolutionSpec):
                cached = SystolicProgram.from_convolution(self.problem,
                                                          self.register_cache)
            else:
                cached = SystolicProgram.from_stencil(self.problem,
                                                      self.register_cache)
            object.__setattr__(self, "_program", cached)
        return cached

    # -- geometry ---------------------------------------------------------------
    @property
    def filter_width(self) -> int:
        """M — footprint width (warp-lane direction)."""
        return self.blocking.filter_width

    @property
    def filter_height(self) -> int:
        """N — footprint height (register-cache direction)."""
        return self.blocking.filter_height

    @property
    def outputs_per_thread(self) -> int:
        """P — sliding-window depth."""
        return self.register_cache.outputs_per_thread

    @property
    def block_rows(self) -> int:
        """R — warp rows per block (1 = the paper's 1-D block shape)."""
        return self.blocking.block_rows

    @property
    def shared_bytes_per_block(self) -> int:
        """Shared memory used per block (filter weights for convolutions)."""
        if isinstance(self.problem, ConvolutionSpec):
            return self.problem.taps * self.precision.itemsize
        return 0

    def launch_config(self, width: int, height: int) -> LaunchConfig:
        """CUDA launch configuration for a ``width x height`` domain."""
        grid = self.blocking.grid_dim(width, height)
        return LaunchConfig(
            grid_dim=grid,
            block_threads=self.block_threads,
            registers_per_thread=self.register_cache.registers_per_thread,
            shared_bytes_per_block=self.shared_bytes_per_block,
            precision=self.precision,
            memory_parallelism=float(self.register_cache.cache_values),
        )

    def occupancy(self) -> OccupancyResult:
        """Occupancy of this plan on its architecture."""
        return compute_occupancy(
            self.architecture,
            self.block_threads,
            self.register_cache.registers_per_thread,
            self.shared_bytes_per_block,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable identity of this plan (cache keys, artifacts).

        ``block_rows`` appears only when it deviates from the classic
        R=1 shape, so every pre-existing plan keeps its fingerprint (and
        with it every cached simulation keyed on one).
        """
        out: Dict[str, object] = {
            "problem": self.problem.fingerprint(),
            "architecture": self.architecture.name,
            "precision": self.precision.name,
            "M": self.filter_width,
            "N": self.filter_height,
            "P": self.outputs_per_thread,
            "C": self.register_cache.cache_values,
            "registers_per_thread": self.register_cache.registers_per_thread,
            "block_threads": self.block_threads,
            "shared_bytes_per_block": self.shared_bytes_per_block,
        }
        if self.block_rows != 1:
            out["block_rows"] = self.block_rows
        return out

    def fingerprint(self) -> str:
        """Stable content hash of this plan, computed once per instance
        (plans are immutable)."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            from ..serialization import stable_digest

            cached = stable_digest(self.to_dict())
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def describe(self) -> Dict[str, object]:
        """Summary used by examples and the experiment reports."""
        occupancy = self.occupancy()
        return {
            "problem": getattr(self.problem, "name", "problem"),
            "architecture": self.architecture.name,
            "precision": self.precision.name,
            "M": self.filter_width,
            "N": self.filter_height,
            "P": self.outputs_per_thread,
            "C": self.register_cache.cache_values,
            "registers_per_thread": self.register_cache.registers_per_thread,
            "block_threads": self.block_threads,
            "block_rows": self.block_rows,
            "valid_outputs_per_warp": self.blocking.valid_outputs_per_warp,
            "halo_ratio": round(self.blocking.halo_ratio, 4),
            "occupancy": round(occupancy.occupancy, 3),
            "shuffles_per_pass": self.program.shuffles_per_pass,
            "defaults_source": self.defaults_source,
        }


#: memoised plans: repeated launches of the same configuration (benchmark
#: sweeps, iterative stencils, tuner cells) skip re-validating identical
#: specs.  Keys are the *resolved* plan identity — the clamped P, not the
#: requested one — so equivalent plans share an entry; eviction is LRU.
_PLAN_CACHE: "OrderedDict[object, SSAMPlan]" = OrderedDict()
_PLAN_CACHE_MAX = 4096


def _spec_token(spec: Union[ConvolutionSpec, StencilSpec]) -> object:
    """A hashable identity token for a problem spec.

    Both spec types expose a stable content ``fingerprint()``; using it as
    the memoisation token keeps this cache aligned with the on-disk
    simulation cache, which keys on the same digests.
    """
    return spec.fingerprint()


def _cached_plan(kind: str, spec, arch, prec, resolved_outputs: int,
                 block_threads: int, block_rows: int, source: Optional[str],
                 build) -> SSAMPlan:
    # the part enters the key by identity: hashing the dataclass walks every
    # field and both latency tables on each call.  A cached plan holds its
    # part, so the id cannot be reused while the entry lives; an equal part
    # built separately only misses the cache.
    key = (kind, _spec_token(spec), id(arch), prec, resolved_outputs,
           block_threads, block_rows, source)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _PLAN_CACHE.move_to_end(key)
        return plan
    plan = build()
    while len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
        _PLAN_CACHE.popitem(last=False)
    _PLAN_CACHE[key] = plan
    return plan


def _resolve_plan_parameters(arch, prec, outputs_per_thread, block_threads,
                             block_rows, scenario, defaults_source):
    """Resolve the three launch parameters through the default chain.

    Parameters passed as ``None`` resolve through
    :func:`repro.core.launch_defaults.resolve_launch_defaults` (tuned rows
    when a database is active and a scenario identity is known, paper
    constants otherwise).  An explicit ``defaults_source`` — the scenario
    registry resolves once and hands planners already-concrete values —
    overrides the locally computed provenance; with all three values
    concrete as well there is nothing left to resolve.
    """
    if (defaults_source is not None and outputs_per_thread is not None
            and block_threads is not None and block_rows is not None):
        return (int(outputs_per_thread), int(block_threads), int(block_rows),
                defaults_source)
    resolved = resolve_launch_defaults(
        ("outputs_per_thread", "block_threads", "block_rows"),
        architecture=arch.name, precision=prec.name, scenario=scenario,
        explicit={"outputs_per_thread": outputs_per_thread,
                  "block_threads": block_threads,
                  "block_rows": block_rows})
    source = defaults_source if defaults_source is not None else resolved.source
    values = resolved.values
    return (values["outputs_per_thread"], values["block_threads"],
            values["block_rows"], source)


def plan_convolution(spec: ConvolutionSpec, architecture: object = "p100",
                     precision: object = "float32",
                     outputs_per_thread: Optional[int] = None,
                     block_threads: Optional[int] = None,
                     block_rows: Optional[int] = None,
                     scenario: Optional[str] = None,
                     defaults_source: Optional[str] = None) -> SSAMPlan:
    """Build an SSAM plan for a 2-D convolution (Listing 1 configuration).

    Launch parameters left as ``None`` resolve through the default chain
    (explicit -> tuned database -> paper constants); the chain outcome is
    recorded on the plan as ``defaults_source``.  Plans are memoised on
    their resolved identity: repeated launches of the same (spec,
    architecture, precision, resolved P, B, R) configuration — including
    requests that clamp to the same P — return the cached plan without
    re-validating the spec.
    """
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    p_request, b_threads, b_rows, source = _resolve_plan_parameters(
        arch, prec, outputs_per_thread, block_threads, block_rows,
        scenario, defaults_source)
    validate_block_threads(arch, b_threads)
    resolved = resolve_outputs_per_thread(spec.filter_height, arch, prec,
                                          p_request)

    def build() -> SSAMPlan:
        cache = choose_plan(spec.filter_height, arch, prec,
                            requested_outputs=resolved)
        blocking = OverlappedBlocking.from_plan(cache, spec.filter_width,
                                                b_threads, b_rows)
        return SSAMPlan(problem=spec, architecture=arch, register_cache=cache,
                        blocking=blocking, precision=prec,
                        block_threads=b_threads, defaults_source=source)

    return _cached_plan("conv2d", spec, arch, prec, resolved,
                        b_threads, b_rows, source, build)


def plan_stencil(spec: StencilSpec, architecture: object = "p100",
                 precision: object = "float32",
                 outputs_per_thread: Optional[int] = None,
                 block_threads: Optional[int] = None,
                 block_rows: Optional[int] = None,
                 scenario: Optional[str] = None,
                 defaults_source: Optional[str] = None) -> SSAMPlan:
    """Build an SSAM plan for the in-plane part of a 2-D/3-D stencil.

    Defaults resolve and memoise like :func:`plan_convolution`.
    """
    arch = get_architecture(architecture)
    prec = resolve_precision(precision)
    p_request, b_threads, b_rows, source = _resolve_plan_parameters(
        arch, prec, outputs_per_thread, block_threads, block_rows,
        scenario, defaults_source)
    validate_block_threads(arch, b_threads)
    resolved = resolve_outputs_per_thread(spec.footprint_height, arch, prec,
                                          p_request)

    def build() -> SSAMPlan:
        cache = choose_plan(spec.footprint_height, arch, prec,
                            requested_outputs=resolved)
        blocking = OverlappedBlocking.from_plan(cache, spec.footprint_width,
                                                b_threads, b_rows)
        return SSAMPlan(problem=spec, architecture=arch, register_cache=cache,
                        blocking=blocking, precision=prec,
                        block_threads=b_threads, defaults_source=source)

    return _cached_plan("stencil", spec, arch, prec, resolved,
                        b_threads, b_rows, source, build)

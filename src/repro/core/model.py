"""The SSAM algorithm formulation J = (O, D, X, Y)  (Equation 2).

A :class:`SystolicProgram` captures, from the perspective of one warp,

* **O** — the computing operations applied at every stage (Equation 1:
  ``s <- ctrl(r (x) x) (+) s``),
* **D** — the dependency graph along which partial results travel
  (a :class:`~repro.core.dependency.DependencyGraph` of ``(lane, stage)``
  nodes, see :mod:`repro.core.dependency`),
* **X** — the input values held in the register cache, and
* **Y** — the output values produced by the warp.

The program object is what the paper means by "expressing an algorithm in
SSAM": the kernels in :mod:`repro.kernels` are executable realisations of
these programs, and tests assert that the realisations follow the program
(same number of shuffles, same stage count, same register footprint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..convolution.spec import ConvolutionSpec
from ..errors import SpecificationError
from ..stencils.spec import StencilSpec
from .dependency import (
    DependencyGraph,
    convolution_dependency,
    critical_path_cycles,
    scan_dependency,
    shuffle_count,
    shuffle_schedule,
    stencil_dependency,
    validate_dependency,
)
from .register_cache import RegisterCachePlan


@dataclass(frozen=True)
class Operation:
    """One element of O: the arithmetic applied at a pipeline stage.

    ``combine`` is the ⊕ reduction (usually ``add``), ``transform`` the ⊗
    operation applied to the external coefficient and the input value
    (usually ``mul``); together they form the FMA of Equation 1.
    """

    name: str
    transform: str = "mul"
    combine: str = "add"
    count_per_stage: int = 1

    def __post_init__(self) -> None:
        if self.count_per_stage < 0:
            raise SpecificationError("operation count cannot be negative")


@dataclass(frozen=True)
class RegisterBinding:
    """One element of X or Y: values bound to each thread's registers."""

    name: str
    values_per_thread: int
    role: str  # "input" or "output"

    def __post_init__(self) -> None:
        if self.values_per_thread < 1:
            raise SpecificationError("a register binding needs at least one value")
        if self.role not in ("input", "output"):
            raise SpecificationError("binding role must be 'input' or 'output'")


@dataclass
class SystolicProgram:
    """A complete J = (O, D, X, Y) description of one warp's work."""

    name: str
    operations: Tuple[Operation, ...]
    dependency: DependencyGraph
    inputs: Tuple[RegisterBinding, ...]
    outputs: Tuple[RegisterBinding, ...]
    warp_size: int = 32

    def __post_init__(self) -> None:
        if not self.operations:
            raise SpecificationError("a systolic program needs at least one operation")
        if not self.inputs or not self.outputs:
            raise SpecificationError("a systolic program needs inputs X and outputs Y")
        validate_dependency(self.dependency, self.warp_size)

    # -- derived structure ---------------------------------------------------
    @property
    def stage_count(self) -> int:
        """Number of pipeline stages in D."""
        return max(stage for _, stage in self.dependency.nodes) + 1

    @property
    def shuffles_per_pass(self) -> int:
        """Warp shuffle instructions needed for one pass through D."""
        return shuffle_count(self.dependency)

    @property
    def shuffle_deltas(self) -> List[int]:
        """The per-stage shuffle deltas (0 = no lane exchange)."""
        return shuffle_schedule(self.dependency)

    @property
    def input_values_per_thread(self) -> int:
        """Total register-cache values per thread (|X|)."""
        return sum(binding.values_per_thread for binding in self.inputs)

    @property
    def output_values_per_thread(self) -> int:
        """Total outputs per thread (|Y|)."""
        return sum(binding.values_per_thread for binding in self.outputs)

    @property
    def mads_per_pass(self) -> int:
        """FMA operations per thread for one pass through D."""
        return sum(
            self.dependency.nodes[node].get("mads", 1) for node in self.dependency.nodes
        ) // self.warp_size

    def critical_path_cycles(self, architecture: object = "p100") -> float:
        """Latency of the program's critical path (Section 5.4)."""
        return critical_path_cycles(self.dependency, architecture)

    def describe(self) -> Dict[str, object]:
        """Human-readable summary used by examples and reports."""
        return {
            "name": self.name,
            "stages": self.stage_count,
            "shuffles_per_pass": self.shuffles_per_pass,
            "shuffle_deltas": self.shuffle_deltas,
            "inputs_per_thread": self.input_values_per_thread,
            "outputs_per_thread": self.output_values_per_thread,
            "mads_per_pass": self.mads_per_pass,
            "operations": [op.name for op in self.operations],
        }

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_convolution(cls, spec: ConvolutionSpec, plan: RegisterCachePlan,
                         warp_size: int = 32) -> "SystolicProgram":
        """Map a 2-D convolution onto SSAM (Section 4.1)."""
        if plan.filter_height != spec.filter_height:
            raise SpecificationError(
                "register-cache plan height does not match the filter height"
            )
        dependency = convolution_dependency(spec.filter_width, warp_size,
                                            mads_per_stage=spec.filter_height)
        operations = tuple(
            Operation(name=f"column_{m}", transform="mul", combine="add",
                      count_per_stage=spec.filter_height)
            for m in range(spec.filter_width)
        )
        inputs = (RegisterBinding("register_cache", plan.cache_values, "input"),)
        outputs = (RegisterBinding("convolution_results", plan.outputs_per_thread, "output"),)
        return cls(name=f"ssam-{spec.name}", operations=operations, dependency=dependency,
                   inputs=inputs, outputs=outputs, warp_size=warp_size)

    @classmethod
    def from_stencil(cls, spec: StencilSpec, plan: RegisterCachePlan,
                     warp_size: int = 32) -> "SystolicProgram":
        """Map a 2-D (or the in-plane part of a 3-D) stencil onto SSAM (Section 4.8)."""
        columns = spec.columns()
        if not columns:
            raise SpecificationError("stencil has no in-plane taps")
        offsets = list(columns.keys())
        taps = [len(points) for points in columns.values()]
        dependency = stencil_dependency(offsets, warp_size, taps_per_column=taps)
        operations = tuple(
            Operation(name=f"column_{dx:+d}", transform="mul", combine="add",
                      count_per_stage=len(points))
            for dx, points in columns.items()
        )
        inputs = (RegisterBinding("register_cache", plan.cache_values, "input"),)
        extra_inputs: Tuple[RegisterBinding, ...] = ()
        if spec.out_of_plane_points():
            extra_inputs = (
                RegisterBinding("neighbor_planes", len(spec.out_of_plane_points()), "input"),
            )
        outputs = (RegisterBinding("stencil_results", plan.outputs_per_thread, "output"),)
        return cls(name=f"ssam-{spec.name}", operations=operations, dependency=dependency,
                   inputs=inputs + extra_inputs, outputs=outputs, warp_size=warp_size)

    @classmethod
    def kogge_stone_scan(cls, warp_size: int = 32) -> "SystolicProgram":
        """Map the Kogge–Stone inclusive scan onto SSAM (Section 3.6)."""
        dependency = scan_dependency(warp_size)
        stages = warp_size.bit_length() - 1
        operations = tuple(
            Operation(name=f"scan_stage_{s}", transform="mul", combine="add")
            for s in range(stages)
        )
        inputs = (RegisterBinding("sequence", 1, "input"),)
        outputs = (RegisterBinding("prefix_sums", 1, "output"),)
        return cls(name="ssam-kogge-stone-scan", operations=operations,
                   dependency=dependency, inputs=inputs, outputs=outputs,
                   warp_size=warp_size)

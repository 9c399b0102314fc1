"""Masked (sparse-interior) SSAM 2-D stencil.

Many production stencil codes update only the interior of the domain and
hold a boundary band fixed (Dirichlet conditions, immersed boundaries,
sponge layers).  This kernel applies a 2-D stencil to cells strictly inside
an ``margin``-cell frame and passes every other cell through unchanged:

    dst[y, x] = stencil(src)[y, x]   if margin <= x < width  - margin
                                    and margin <= y < height - margin
    dst[y, x] = src[y, x]            otherwise

The compute schedule is exactly the register-cache schedule of Listing 2
(see :mod:`repro.kernels.stencil2d_ssam`); the interior predicate is pure
index arithmetic, so the selection vectorises in the batched engine and
records into the trace IR without data-dependent control flow.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.plan import SSAMPlan, plan_stencil
from ..errors import ConfigurationError
from ..gpu.kernel import Kernel
from ..stencils.spec import StencilSpec
from .common import KernelRunResult, check_image, resolve_plan, run_jacobi
from .stencil2d_ssam import _stencil2d_ssam_block, build_column_groups

#: default interior margin: wide enough that order-1/2 footprints never
#: straddle the frame, so the masked path is exercised on every named size
DEFAULT_MARGIN = 2

#: the register-cache schedule of Listing 2 with the interior-select store
STENCIL2D_MASKED_KERNEL = Kernel(_stencil2d_ssam_block,
                                 name="ssam_stencil2d_masked")


def ssam_stencil2d_masked(grid: np.ndarray, spec: StencilSpec,
                          iterations: int = 1, margin: int = DEFAULT_MARGIN,
                          architecture: object = None,
                          precision: object = None,
                          outputs_per_thread: Optional[int] = None,
                          block_threads: Optional[int] = None,
                          block_rows: Optional[int] = None,
                          plan: Optional[SSAMPlan] = None,
                          max_blocks: Optional[int] = None,
                          batch_size: object = "auto",
                          keep_output: bool = False) -> KernelRunResult:
    """Apply a masked 2-D stencil for ``iterations`` Jacobi steps under the
    one plan :func:`~repro.kernels.common.resolve_plan` returns."""
    grid = check_image(grid)
    if spec.dims != 2:
        raise ConfigurationError(f"stencil {spec.name!r} is not 2-D")
    if margin < 0:
        raise ConfigurationError("the interior margin must be >= 0")
    plan = resolve_plan(plan_stencil, spec, architecture, precision, plan,
                        outputs_per_thread, block_threads, block_rows)
    height, width = grid.shape
    x_min, _ = spec.x_range
    y_min, _ = spec.y_range
    return run_jacobi(
        STENCIL2D_MASKED_KERNEL, grid, plan.launch_config(width, height),
        (width, height, build_column_groups(spec), spec.footprint_width,
         spec.footprint_height, plan.outputs_per_thread, x_min, y_min,
         plan.block_rows, int(margin)),
        iterations, plan.architecture, "ssam_masked",
        {"stencil": spec.name, "iterations": iterations, "margin": int(margin),
         "P": plan.outputs_per_thread, "B": plan.block_threads,
         "architecture": plan.architecture.name,
         "precision": plan.precision.name},
        max_blocks=max_blocks, batch_size=batch_size, keep_output=keep_output)


def masked_reference(grid: np.ndarray, spec: StencilSpec, iterations: int = 1,
                     margin: int = DEFAULT_MARGIN) -> np.ndarray:
    """Host ground truth: stencil the interior, hold the frame fixed."""
    grid = check_image(grid)
    height, width = grid.shape
    interior = np.zeros((height, width), dtype=bool)
    if 2 * margin < min(height, width):
        interior[margin:height - margin, margin:width - margin] = True
    current = np.asarray(grid, dtype=np.float64)
    for _ in range(iterations):
        stepped = spec.reference(current, iterations=1)
        current = np.where(interior, stepped, current)
    return current.astype(grid.dtype)

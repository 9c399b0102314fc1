"""Built-in scenario registrations: the five SSAM kernels and the baselines.

Importing this module (which :mod:`repro.scenarios` does on package import)
populates the registry with every implementation the paper evaluates.  Each
registration is the single place a kernel is wired up — spec builder,
workload builder, planner, one evaluator per engine (the ``runner`` that
executes it, its closed-form ``analytic`` entry, its ``model``), CPU oracle
and supported envelope — and is everything needed for the kernel to appear
in sweeps and in the auto-generated differential test matrix.

The named problem sizes deliberately produce partial blocks on every grid
edge (domains indivisible by the tile extents) so functional runs exercise
the masked boundary paths; ``"paper"`` sizes are the evaluation-scale
domains of Section 6 and run only on the closed-form engines (the
``analytic`` instruction/traffic profile and the Section 5 ``model``).
Every SSAM kernel and direct baseline carries a ``model`` entry, so it can
be predicted at arbitrary scale without simulating it; every ``model``
prices the counts and launch of the scenario's own closed form, under the
one launch resolved per evaluation (:func:`_closed_form`).  cuDNN and
cuFFT are ``analytic`` only: no Section 5 scheme describes an implicit GEMM
or an FFT.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

import numpy as np

from ..baselines import direct
from ..baselines.conv2d import cudnn_like_convolve2d_analytic, cufft_like_convolve2d_analytic
from ..convolution.spec import ConvolutionSpec
from ..core.performance_model import (
    model_convolution1d,
    model_convolution2d,
    model_direct,
    model_scan,
    model_stencil2d,
    model_stencil3d,
)
from ..core.plan import plan_convolution, plan_stencil
from ..dtypes import resolve_precision
from ..gpu.architecture import (
    EVALUATED_ARCHITECTURES,
    MODERN_ARCHITECTURES,
    architecture_names,
    get_architecture,
)
from ..kernels import (
    masked_reference,
    reference_convolve1d,
    reference_scan,
    ssam_convolve1d,
    ssam_convolve2d,
    ssam_convolve2d_chain,
    ssam_scan,
    ssam_stencil2d,
    ssam_stencil2d_masked,
    ssam_stencil3d,
)
from ..kernels import conv1d_ssam, conv2d_ssam, scan_ssam, stencil2d_ssam, stencil3d_ssam
from ..stencils.catalog import get_stencil
from ..workloads.generators import random_grid_3d, random_image, sequence
from .registry import (
    ENGINE_BATCH_SIZE,
    LAUNCH_DEFAULTS_SOURCE_KEY,
    Scenario,
    all_scenarios,
    register,
)

#: every architecture preset (K40/M40/P100/V100/A100/H100) — the SSAM
#: kernels run on all of them
ALL_ARCHITECTURES = architecture_names()
#: the two parts the paper evaluates — the baselines' cost models target these
EVALUATED = tuple(arch.name.split()[-1].lower() for arch in EVALUATED_ARCHITECTURES)
#: post-paper parts (Ampere/Hopper) the baselines are also projected onto:
#: the direct baselines' closed forms and models read every latency and
#: memory geometry from the architecture, so the new generations are a
#: pure envelope extension
MODERN = tuple(arch.name.lower() for arch in MODERN_ARCHITECTURES)
BASELINE_ARCHITECTURES = EVALUATED + MODERN
BOTH_PRECISIONS = ("float32", "float64")
#: the batched engine + the closed-form profile and the Section 5 model
ALL_ENGINES = ("batched", "analytic", "model")
#: the SSAM kernels additionally run through the compiled trace-replay
#: engine (baseline scenarios do not: their kernels are not traced)
SSAM_MODELED_ENGINES = ("batched", "replay", "model")
SSAM_ALL_ENGINES = ("batched", "replay", "analytic", "model")


def binomial_taps(count: int) -> np.ndarray:
    """Normalised binomial filter taps (the 1-D Gaussian approximation)."""
    row = np.array([math.comb(count - 1, k) for k in range(count)], dtype=np.float64)
    return row / row.sum()


#: tunable envelopes of the SSAM kernels: the 2-D register-cache kernels
#: expose the full Section 7.1 design space (sliding-window depth P and
#: block size B) plus the per-dimension block shape R; the 3-D kernel's z
#: blocking is warp-per-slice, so it tunes P and B only; the 1-D kernels
#: have no sliding window, so only B tunes
TUNABLES_2D = ("outputs_per_thread", "block_threads", "block_rows")
TUNABLES_3D = ("outputs_per_thread", "block_threads")
TUNABLES_1D = ("block_threads",)


def _plan_overrides(params: Mapping[str, object]) -> Dict[str, int]:
    """Launch-parameter overrides present in a merged parameter mapping.

    The registry resolves a scenario's tunables through the default chain
    (explicit plan_kwargs -> tuning database -> paper constants) and merges
    the concrete values into the parameter mapping before calling a
    runner/model/planner; this picks them back out so they can be forwarded
    to the kernel entry points as keyword arguments.  Size mappings never
    define these keys, so an absent key always means "not tunable here".
    """
    return {key: int(params[key])
            for key in ("outputs_per_thread", "block_threads", "block_rows")
            if key in params}


def _launch_args(params: Mapping[str, object], plan) -> Dict[str, object]:
    """A 2-D SSAM runner's launch arguments: the cell's plan alone, which
    fixes P, B and R (the planner may clamp the requested values), or
    without one the overrides its wrapper plans from."""
    return {"plan": plan} if plan is not None else _plan_overrides(params)


def _plan_args(params: Mapping[str, object]) -> Dict[str, object]:
    """Planner keyword arguments from a resolved parameter mapping.

    On top of the launch-parameter overrides this forwards the resolution
    provenance recorded by the registry, so the plan's ``defaults_source``
    reflects the real chain outcome (``"tuned"``, ``"paper"``, ...) rather
    than the always-explicit values the planner receives.
    """
    args: Dict[str, object] = dict(_plan_overrides(params))
    args["defaults_source"] = params.get(LAUNCH_DEFAULTS_SOURCE_KEY)
    return args


def _closed_form(resolve, closed_form, price=None):
    """A scenario's ``analytic`` entry, or with ``price`` its ``model`` entry.

    The evaluation resolves one launch and hands it to ``closed_form(spec,
    params, launch)``, the scenario's closed form, and to ``price(base,
    params, launch)``, its one ``model_*`` call on that result, so the model
    keeps the closed form's counters and launch as they are.  The launch is
    the cell's plan when the registry hands one (2-D SSAM kernels), else
    ``resolve(spec, params, architecture, precision)``: the kernel's planner
    (2-D), ``launch_geometry`` (3-D) or part and ``launch_config`` (1-D).
    """
    def evaluate(spec, params, architecture, precision, plan=None):
        launch = (resolve(spec, params, architecture, precision)
                  if plan is None else plan)
        base = closed_form(spec, params, launch)
        return base if price is None else price(base, params, launch)
    return evaluate


# Named problem sizes are shared per family between the SSAM kernel and its
# baselines, so paired scenarios always describe the same problem domain.
# ``paper`` domains are closed-form only: both the instruction/traffic
# profile (``analytic``) and the Section 5 performance model (``model``)
# evaluate them in microseconds, while a functional run would be infeasible.
_CONV2D_SIZES: Dict[str, Mapping[str, object]] = {
    "tiny": {"width": 49, "height": 37, "filter": 3},
    "small": {"width": 97, "height": 83, "filter": 5},
    "paper": {"width": 8192, "height": 8192, "filter": 9,
              "engines": ("analytic", "model")},
}

_STENCIL2D_SIZES: Dict[str, Mapping[str, object]] = {
    "tiny": {"stencil": "2d5pt", "width": 49, "height": 37, "iterations": 1},
    "small": {"stencil": "2d9pt", "width": 70, "height": 45, "iterations": 2},
    "paper": {"stencil": "2d9pt", "width": 8192, "height": 8192,
              "iterations": 1, "engines": ("analytic", "model")},
}

_STENCIL3D_SIZES: Dict[str, Mapping[str, object]] = {
    "tiny": {"stencil": "3d7pt", "width": 19, "height": 13, "depth": 7,
             "iterations": 1},
    "small": {"stencil": "3d27pt", "width": 25, "height": 17, "depth": 9,
              "iterations": 1},
    "paper": {"stencil": "3d7pt", "width": 512, "height": 512, "depth": 512,
              "iterations": 1, "engines": ("analytic", "model")},
}


# The families' builders and oracles are shared the same way.
def _gaussian(params):
    return ConvolutionSpec.gaussian(params["filter"])


def _image(params, precision):
    return random_image(params["width"], params["height"], precision,
                        seed=params["width"])


def _convolution_oracle(spec, workload, params):
    return spec.reference(workload)


def _stencil_spec(params):
    return get_stencil(params["stencil"])


def _grid2d(params, precision):
    return random_image(params["width"], params["height"], precision,
                        seed=params["height"])


def _grid3d(params, precision):
    return random_grid_3d(params["width"], params["height"], params["depth"],
                          precision, seed=params["depth"])


def _stencil_oracle(spec, workload, params):
    return spec.reference(workload, iterations=params.get("iterations", 1))


# ---------------------------------------------------------------------------
# SSAM kernels
# ---------------------------------------------------------------------------

def _run_conv1d(spec, workload, params, architecture, precision, engine):
    return ssam_convolve1d(workload, spec, architecture=architecture,
                           precision=precision,
                           batch_size=ENGINE_BATCH_SIZE[engine],
                           **_plan_overrides(params))


def _conv1d_launch(spec, params, architecture, precision):
    arch = get_architecture(architecture)
    return arch, conv1d_ssam.launch_config(
        params["taps"], params["length"], arch, resolve_precision(precision),
        **_plan_overrides(params))


def _conv1d_closed_form(spec, params, launch):
    return conv1d_ssam.analytic_launch(params["taps"], params["length"], *launch)


register(Scenario(
    name="conv1d",
    family="convolution",
    dims=1,
    role="ssam",
    runner=_run_conv1d,
    spec_builder=lambda params: binomial_taps(params["taps"]),
    workload_builder=lambda params, precision: sequence(
        params["length"], precision, seed=params["length"]),
    oracle=lambda spec, workload, params: reference_convolve1d(workload, spec),
    model=_closed_form(_conv1d_launch, _conv1d_closed_form,
                       lambda base, params, launch: model_convolution1d(base)),
    tunables=TUNABLES_1D,
    sizes={
        "tiny": {"length": 193, "taps": 3},
        "small": {"length": 413, "taps": 5},
        "paper": {"length": 1 << 26, "taps": 9, "engines": ("model",)},
    },
    architectures=ALL_ARCHITECTURES,
    precisions=BOTH_PRECISIONS,
    engines=SSAM_MODELED_ENGINES,
    description="SSAM 1-D convolution (Section 3.5 motivating example)",
))


def _run_conv2d(spec, workload, params, architecture, precision, engine,
                plan=None):
    return ssam_convolve2d(workload, spec, architecture, precision,
                           batch_size=ENGINE_BATCH_SIZE[engine],
                           **_launch_args(params, plan))


def _plan_convolution(spec, params, architecture, precision):
    return plan_convolution(spec, architecture, precision, **_plan_args(params))


def _conv2d_closed_form(spec, params, plan):
    return conv2d_ssam.analytic_launch(params["width"], params["height"], plan)


def _price_conv2d(base, params, plan):
    return model_convolution2d(base, plan)


register(Scenario(
    name="conv2d",
    family="convolution",
    dims=2,
    role="ssam",
    runner=_run_conv2d,
    spec_builder=_gaussian,
    workload_builder=_image,
    planner=_plan_convolution,
    oracle=_convolution_oracle,
    analytic=_closed_form(_plan_convolution, _conv2d_closed_form),
    model=_closed_form(_plan_convolution, _conv2d_closed_form, _price_conv2d),
    tunables=TUNABLES_2D,
    sizes=_CONV2D_SIZES,
    architectures=ALL_ARCHITECTURES,
    precisions=BOTH_PRECISIONS,
    engines=SSAM_ALL_ENGINES,
    description="SSAM 2-D convolution (Listing 1)",
))


def _run_stencil2d(spec, workload, params, architecture, precision, engine,
                   plan=None):
    return ssam_stencil2d(workload, spec, params.get("iterations", 1),
                          architecture, precision,
                          batch_size=ENGINE_BATCH_SIZE[engine],
                          **_launch_args(params, plan))


def _plan_stencil(spec, params, architecture, precision):
    """Register-cache plan of a stencil kernel.

    The 3-D kernel keeps a few extra bookkeeping registers on top of the
    in-plane C = N + P - 1 cache, but its sliding window and blocking follow
    the same arithmetic, so the in-plane plan is the identity the tuner and
    the cache key reason about for it too.
    """
    return plan_stencil(spec, architecture, precision, **_plan_args(params))


def _stencil2d_closed_form(spec, params, plan):
    return stencil2d_ssam.analytic_launch(
        params["width"], params["height"], plan, params.get("iterations", 1))


_model_stencil2d = _closed_form(
    _plan_stencil, _stencil2d_closed_form,
    lambda base, params, plan: model_stencil2d(base, plan))


def _register_stencil2d(name: str, sizes, description: str) -> None:
    """One SSAM 2-D stencil scenario (the paper kernel and its variants)."""
    register(Scenario(
        name=name,
        family="stencil",
        dims=2,
        role="ssam",
        runner=_run_stencil2d,
        spec_builder=_stencil_spec,
        workload_builder=_grid2d,
        planner=_plan_stencil,
        oracle=_stencil_oracle,
        analytic=_closed_form(_plan_stencil, _stencil2d_closed_form),
        model=_model_stencil2d,
        tunables=TUNABLES_2D,
        sizes=sizes,
        architectures=ALL_ARCHITECTURES,
        precisions=BOTH_PRECISIONS,
        engines=SSAM_ALL_ENGINES,
        description=description,
    ))


_register_stencil2d("stencil2d", _STENCIL2D_SIZES,
                    "SSAM 2-D stencil (Listing 2, generalised)")


def _run_stencil3d(spec, workload, params, architecture, precision, engine,
                   plan=None):
    # the 3-D kernel launches from its own geometry, not the in-plane plan
    return ssam_stencil3d(workload, spec, params.get("iterations", 1),
                          architecture, precision,
                          batch_size=ENGINE_BATCH_SIZE[engine],
                          **_plan_overrides(params))


def _stencil3d_geometry(spec, params, architecture, precision):
    return stencil3d_ssam.launch_geometry(
        spec, params["width"], params["height"], params["depth"],
        architecture, precision, **_plan_overrides(params))


def _stencil3d_closed_form(spec, params, geometry):
    return stencil3d_ssam.analytic_launch(geometry, params.get("iterations", 1))


def _stencil3d_entry(price=None):
    """stencil3d's ``analytic`` entry, or with ``price`` its ``model``."""
    evaluate = _closed_form(_stencil3d_geometry, _stencil3d_closed_form, price)

    def entry(spec, params, architecture, precision, plan=None):
        # the 3-D kernel launches from its own geometry, not the in-plane plan
        return evaluate(spec, params, architecture, precision)
    return entry


register(Scenario(
    name="stencil3d",
    family="stencil",
    dims=3,
    role="ssam",
    runner=_run_stencil3d,
    spec_builder=_stencil_spec,
    workload_builder=_grid3d,
    planner=_plan_stencil,
    oracle=_stencil_oracle,
    analytic=_stencil3d_entry(),
    model=_stencil3d_entry(
        lambda base, params, geometry: model_stencil3d(base, geometry)),
    tunables=TUNABLES_3D,
    sizes=_STENCIL3D_SIZES,
    architectures=ALL_ARCHITECTURES,
    precisions=BOTH_PRECISIONS,
    engines=SSAM_ALL_ENGINES,
    description="SSAM 3-D stencil (in-plane register cache + out-of-plane taps)",
))


def _run_scan(spec, workload, params, architecture, precision, engine):
    return ssam_scan(workload, architecture, precision,
                     batch_size=ENGINE_BATCH_SIZE[engine],
                     **_plan_overrides(params))


def _scan_launch(spec, params, architecture, precision):
    arch = get_architecture(architecture)
    return arch, scan_ssam.launch_config(
        params["length"], arch, resolve_precision(precision),
        **_plan_overrides(params))


register(Scenario(
    name="scan",
    family="scan",
    dims=1,
    role="ssam",
    runner=_run_scan,
    workload_builder=lambda params, precision: sequence(
        params["length"], precision, seed=params["length"] + 1),
    oracle=lambda spec, workload, params: reference_scan(workload),
    model=_closed_form(
        _scan_launch,
        lambda spec, params, launch: scan_ssam.analytic_launch(
            params["length"], *launch),
        lambda base, params, launch: model_scan(base)),
    tunables=TUNABLES_1D,
    sizes={
        "tiny": {"length": 193},
        "small": {"length": 1000},
        "paper": {"length": 1 << 26, "engines": ("model",)},
    },
    architectures=ALL_ARCHITECTURES,
    precisions=BOTH_PRECISIONS,
    engines=SSAM_MODELED_ENGINES,
    description="SSAM Kogge-Stone scan (Figure 1e)",
))


# ---------------------------------------------------------------------------
# post-paper SSAM scenarios: the registry beyond the five paper kernels.
# These reuse the paper kernels' runners/planners/models verbatim — only
# the stencil shapes, selection predicates and chaining differ — so every
# experiment (sweep, tune, model validation, service) gains them with zero
# per-experiment work.
# ---------------------------------------------------------------------------

def _stencil2d_variant_sizes(stencil: str) -> Dict[str, Mapping[str, object]]:
    """The shared 2-D stencil domains, pinned to one catalog entry."""
    return {
        "tiny": {"stencil": stencil, "width": 49, "height": 37, "iterations": 1},
        "small": {"stencil": stencil, "width": 70, "height": 45, "iterations": 2},
        "paper": {"stencil": stencil, "width": 8192, "height": 8192,
                  "iterations": 1, "engines": ("analytic", "model")},
    }


for _name, _stencil, _description in (
    ("stencil2d-order4", "2d17pt",
     "SSAM order-4 star stencil (wide halo: valid lanes shrink to W-8)"),
    ("stencil2d-order6", "2ds25pt",
     "SSAM order-6 star stencil (widest Table 3 star footprint)"),
    ("stencil2d-varcoef", "2dv9pt",
     "SSAM variable-coefficient 9-point stencil (no foldable symmetric taps)"),
):
    _register_stencil2d(_name, _stencil2d_variant_sizes(_stencil), _description)


def _run_stencil2d_masked(spec, workload, params, architecture, precision,
                          engine, plan=None):
    return ssam_stencil2d_masked(workload, spec, params.get("iterations", 1),
                                 margin=params.get("margin", 2),
                                 architecture=architecture, precision=precision,
                                 batch_size=ENGINE_BATCH_SIZE[engine],
                                 **_launch_args(params, plan))


register(Scenario(
    name="stencil2d-masked",
    family="stencil",
    dims=2,
    role="ssam",
    runner=_run_stencil2d_masked,
    spec_builder=_stencil_spec,
    workload_builder=_grid2d,
    planner=_plan_stencil,
    oracle=lambda spec, workload, params: masked_reference(
        workload, spec, iterations=params.get("iterations", 1),
        margin=params.get("margin", 2)),
    # the interior-select adds a passthrough load per output row but keeps
    # the register-cache schedule, so the plain stencil model is the
    # closed-form prediction (no analytic counter profile is registered)
    model=_model_stencil2d,
    tunables=TUNABLES_2D,
    sizes={
        "tiny": {"stencil": "2d5pt", "width": 49, "height": 37,
                 "iterations": 1, "margin": 3},
        "small": {"stencil": "2d9pt", "width": 70, "height": 45,
                  "iterations": 2, "margin": 4},
        "paper": {"stencil": "2d9pt", "width": 8192, "height": 8192,
                  "iterations": 1, "margin": 4, "engines": ("model",)},
    },
    architectures=ALL_ARCHITECTURES,
    precisions=BOTH_PRECISIONS,
    engines=SSAM_MODELED_ENGINES,
    description="SSAM masked 2-D stencil (interior update, fixed boundary frame)",
))


def _run_conv2d_pipeline(spec, workload, params, architecture, precision,
                         engine, plan=None):
    return ssam_convolve2d_chain(workload, spec, params.get("passes", 2),
                                 architecture, precision,
                                 fused=bool(params.get("fused", False)),
                                 batch_size=ENGINE_BATCH_SIZE[engine],
                                 **_launch_args(params, plan))


def _conv2d_chain_closed_form(spec, params, plan):
    return conv2d_ssam.analytic_chain_launch(
        params["width"], params["height"], plan, int(params.get("passes", 2)),
        bool(params.get("fused", False)))


def _chain_oracle(spec, workload, params):
    result = np.asarray(workload, dtype=np.float64)
    for _ in range(int(params.get("passes", 2))):
        result = spec.reference(result)
    return result


register(Scenario(
    name="conv2d-pipeline",
    family="convolution",
    dims=2,
    role="ssam",
    runner=_run_conv2d_pipeline,
    spec_builder=_gaussian,
    workload_builder=_image,
    planner=_plan_convolution,
    oracle=_chain_oracle,
    model=_closed_form(_plan_convolution, _conv2d_chain_closed_form,
                       _price_conv2d),
    tunables=TUNABLES_2D,
    sizes={
        "tiny": {"width": 49, "height": 37, "filter": 3, "passes": 2},
        "small": {"width": 97, "height": 83, "filter": 5, "passes": 2},
        # the fused leg changes the traffic counters (intermediates stay on
        # chip), so it lives in its own named size rather than sharing one
        # with the launch-per-pass engines
        "fused": {"width": 49, "height": 37, "filter": 3, "passes": 2,
                  "fused": True, "engines": ("replay", "model")},
        "paper": {"width": 8192, "height": 8192, "filter": 9, "passes": 2,
                  "engines": ("model",)},
    },
    architectures=ALL_ARCHITECTURES,
    precisions=BOTH_PRECISIONS,
    engines=SSAM_MODELED_ENGINES,
    description="SSAM two-stage convolution chain (image-blur pipeline, fusable)",
))


# ---------------------------------------------------------------------------
# baselines (the Figure 4 and Figure 5 competitors)
# ---------------------------------------------------------------------------

def _direct_model(closed_form):
    """A direct baseline's ``model`` entry: Section 5 prices its closed form
    ``closed_form(spec, params, architecture, precision)`` over every output."""
    def model(spec, params, architecture, precision):
        return model_direct(
            closed_form(spec, params, architecture, precision),
            math.prod(params.get(axis, 1)
                      for axis in ("width", "height", "depth", "iterations")))
    return model


#: what each family gives its direct baselines, as its SSAM kernel has it:
#: ``(family, sizes, spec builder, workload builder, oracle)``
_DIRECT_FAMILIES = {
    "conv2d": ("convolution", _CONV2D_SIZES, _gaussian, _image, _convolution_oracle),
    "stencil2d": ("stencil", _STENCIL2D_SIZES, _stencil_spec, _grid2d, _stencil_oracle),
    "stencil3d": ("stencil", _STENCIL3D_SIZES, _stencil_spec, _grid3d, _stencil_oracle),
}


def _register_direct(row: direct.DirectBaseline) -> None:
    """One scenario per row of ``direct.BASELINES``."""
    family, sizes, spec_builder, workload_builder, oracle = _DIRECT_FAMILIES[
        row.scenario.partition("-")[0]]

    def runner(spec, workload, params, architecture, precision, engine):
        return direct.run(row, workload, spec, params.get("iterations", 1),
                          architecture, precision,
                          batch_size=ENGINE_BATCH_SIZE[engine])

    def closed_form(spec, params, architecture, precision):
        domain = [params[axis] for axis in ("width", "height", "depth")[:row.dims]]
        return direct.closed_form(row, spec, domain, params.get("iterations", 1),
                                  architecture, precision)

    register(Scenario(
        name=row.scenario,
        family=family,
        dims=row.dims,
        role="baseline",
        runner=runner,
        spec_builder=spec_builder,
        workload_builder=workload_builder,
        oracle=oracle,
        analytic=closed_form,
        model=_direct_model(closed_form),
        sizes=sizes,
        architectures=BASELINE_ARCHITECTURES,
        precisions=BOTH_PRECISIONS,
        engines=ALL_ENGINES,
        description=row.description,
    ))


def _register_conv2d_cost_model(label: str, analytic) -> None:
    """cuDNN or cuFFT: a closed form alone, no kernel to run."""
    register(Scenario(
        name=f"conv2d-{label}",
        family="convolution",
        dims=2,
        role="baseline",
        spec_builder=_gaussian,
        workload_builder=_image,
        analytic=lambda spec, params, architecture, precision: analytic(
            spec, params["width"], params["height"], architecture, precision),
        sizes=_CONV2D_SIZES,
        architectures=BASELINE_ARCHITECTURES,
        precisions=BOTH_PRECISIONS,
        engines=("analytic",),
        description=f"{label}-like 2-D convolution baseline",
    ))


for _row in direct.BASELINES.values():
    if _row.scenario == "stencil2d-original":
        # the registry lists the cost models after the direct convolutions
        _register_conv2d_cost_model("cudnn", cudnn_like_convolve2d_analytic)
        _register_conv2d_cost_model("cufft", cufft_like_convolve2d_analytic)
    _register_direct(_row)


#: every scenario registered above, by name.  What their runners produce
#: depends on a part only through its memory geometry and its shared
#: capacity (``tests/test_sweep_sharing.py`` checks it on every part), so a
#: sweep simulates each of their cells once per geometry; a scenario
#: registered at run time is not in here and always runs fresh.
BUILTIN: Dict[str, Scenario] = {s.name: s for s in all_scenarios()}

"""Unit tests for the scenario registry (envelopes, expansion, lookup)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.convolution.spec import ConvolutionSpec
from repro.errors import ConfigurationError
from repro.gpu.architecture import architecture_names
from repro.scenarios import (
    ENGINES,
    Scenario,
    ScenarioCase,
    all_scenarios,
    expand_matrix,
    get_scenario,
    register,
    scenario_names,
    unregister,
)


def test_builtin_registrations_cover_the_paper():
    names = scenario_names()
    for kernel in ("conv1d", "conv2d", "stencil2d", "stencil3d", "scan"):
        assert kernel in names
    assert scenario_names(role="ssam") == \
        ["conv1d", "conv2d", "stencil2d", "stencil3d", "scan",
         "stencil2d-order4", "stencil2d-order6", "stencil2d-varcoef",
         "stencil2d-masked", "conv2d-pipeline"]
    assert "conv2d-npp" in scenario_names(role="baseline")
    assert "stencil2d-original" in scenario_names(family="stencil")
    assert architecture_names() == ("k40", "m40", "p100", "v100", "a100", "h100")


def test_envelope_supports_and_size_restrictions():
    conv2d = get_scenario("conv2d")
    assert conv2d.supports("p100", "float32", "batched", "tiny")
    assert not conv2d.supports("p100", "float32", "bogus")
    assert not conv2d.supports("p100", "float16", "batched")
    # paper-scale domains run only on the closed-form engines
    assert conv2d.engines_for("paper") == ("analytic", "model")
    assert not conv2d.supports("p100", "float32", "batched", "paper")
    assert conv2d.supports("p100", "float32", "analytic", "paper")
    assert conv2d.supports("p100", "float32", "model", "paper")
    # the engine restriction never leaks into the runner parameters
    assert "engines" not in conv2d.resolve_size("paper")
    scan = get_scenario("scan")
    assert "analytic" not in scan.engines
    assert scan.engines_for("paper") == ("model",)


def test_unknown_lookups_raise():
    with pytest.raises(ConfigurationError):
        get_scenario("warp-drive")
    with pytest.raises(ConfigurationError):
        get_scenario("conv2d").resolve_size("galactic")
    with pytest.raises(ConfigurationError):
        get_scenario("conv2d").run_case(
            ScenarioCase("conv2d", "p100", "float32", "batched", "paper"))
    with pytest.raises(ConfigurationError):
        get_scenario("conv2d-cudnn").oracle_output(
            ScenarioCase("conv2d-cudnn", "p100", "float32", "analytic", "tiny"))


def test_duplicate_and_invalid_registrations_raise():
    donor = get_scenario("scan")
    with pytest.raises(ConfigurationError):
        register(donor)  # name already taken
    with pytest.raises(ConfigurationError):
        Scenario(name="bad", family="scan", dims=1, runner=donor.runner,
                 sizes={"tiny": {}}, architectures=("p100",),
                 precisions=("float32",), engines=("warp-speed",))
    with pytest.raises(ConfigurationError):
        Scenario(name="bad", family="scan", dims=1, runner=donor.runner,
                 sizes={}, architectures=("p100",),
                 precisions=("float32",), engines=("batched",))


def test_case_identity_is_stable():
    case = ScenarioCase("conv2d", "p100", "float32", "batched", "tiny")
    assert case.case_id == "conv2d:p100:float32:batched:tiny"
    assert case.fingerprint() == \
        ScenarioCase("conv2d", "p100", "float32", "batched", "tiny").fingerprint()
    assert case.fingerprint() != \
        ScenarioCase("conv2d", "v100", "float32", "batched", "tiny").fingerprint()


def test_expand_matrix_selectors_and_order():
    cases = expand_matrix({"scenarios": "convolution",
                           "architectures": ["p100"],
                           "precisions": ["float32"],
                           "engines": ["analytic"],
                           "sizes": ["paper"]})
    names = [c.scenario for c in cases]
    # registration order, analytic-only baselines included; conv1d has no
    # analytic engine and no paper size, so it must be skipped
    assert names == ["conv2d", "conv2d-npp", "conv2d-arrayfire",
                     "conv2d-halide", "conv2d-cudnn", "conv2d-cufft"]
    # duplicate selectors do not duplicate cases
    doubled = expand_matrix({"scenarios": ["conv2d", "convolution"],
                             "architectures": ["p100"],
                             "precisions": ["float32"],
                             "engines": ["analytic"],
                             "sizes": ["paper"]})
    assert [c.case_id for c in doubled] == [c.case_id for c in cases]


def test_expand_matrix_rejects_empty_and_unknown():
    with pytest.raises(ConfigurationError):
        expand_matrix({"scenarios": ["conv2d"], "engines": ["batched"],
                       "sizes": ["paper"]})  # paper is analytic-only
    with pytest.raises(ConfigurationError):
        expand_matrix({"scenarios": ["warp-drive"]})


def test_expand_matrix_validates_axis_values():
    """A misspelled axis value raises a ConfigurationError listing the valid
    vocabulary instead of silently thinning the matrix."""
    with pytest.raises(ConfigurationError) as excinfo:
        expand_matrix({"scenarios": ["conv2d"], "architectures": ["a100x"]})
    message = str(excinfo.value)
    assert "a100x" in message
    for name in architecture_names():
        assert name in message
    with pytest.raises(ConfigurationError, match="unknown engines.*vector"):
        expand_matrix({"scenarios": ["conv2d"], "engines": ["vector"]})
    with pytest.raises(ConfigurationError, match="unknown sizes"):
        expand_matrix({"scenarios": ["conv2d"], "sizes": ["galactic"]})
    with pytest.raises(ConfigurationError, match="float16"):
        expand_matrix({"scenarios": ["conv2d"], "precisions": ["float16"]})
    # a valid subset still expands (validation does not over-reject)
    cases = expand_matrix({"scenarios": ["conv2d"], "architectures": ["h100"],
                           "precisions": ["float32"], "engines": ["batched"],
                           "sizes": ["tiny"]})
    assert [c.case_id for c in cases] == ["conv2d:h100:float32:batched:tiny"]


def test_scenario_plan_respects_register_budget():
    conv2d = get_scenario("conv2d")
    for arch in ("p100", "v100"):
        plan = conv2d.build_plan("small", arch, "float64")
        assert plan is not None
        assert plan.register_cache.registers_per_thread <= \
            plan.architecture.max_registers_per_thread
    assert get_scenario("scan").build_plan("tiny", "p100", "float32") is None


def test_run_analytic_matches_direct_baseline_call():
    """The registry path the experiments use is the direct call, verbatim."""
    from repro.baselines.conv2d import npp_like_convolve2d_analytic

    spec = ConvolutionSpec.gaussian(7)
    direct = npp_like_convolve2d_analytic(spec, 512, 256, "v100", "float32")
    routed = get_scenario("conv2d-npp").run_analytic(
        spec, {"width": 512, "height": 256}, "v100", "float32")
    assert routed.launch.counters.as_dict() == direct.launch.counters.as_dict()
    assert routed.milliseconds == direct.milliseconds


def test_register_unregister_round_trip():
    donor = get_scenario("conv1d")
    name = "conv1d-registry-test"
    register(replace(donor, name=name))
    try:
        assert name in scenario_names()
        copy = get_scenario(name)
        result = copy.run_case(
            ScenarioCase(name, "p100", "float32", "batched", "tiny"))
        oracle = copy.oracle_output(
            ScenarioCase(name, "p100", "float32", "batched", "tiny"))
        assert np.max(np.abs(result.output - oracle)) < 1e-4
    finally:
        unregister(name)
    assert name not in scenario_names()


def test_engines_constant_matches_registry_vocabulary():
    assert ENGINES == ("batched", "replay", "analytic", "model")
    # the retired per-block engine is no longer part of the vocabulary
    with pytest.raises(ConfigurationError, match="scalar"):
        expand_matrix({"scenarios": ["conv2d"], "engines": ["scalar"]})
    for scenario in all_scenarios():
        assert set(scenario.engines) <= set(ENGINES)
        for size in scenario.sizes:
            assert set(scenario.engines_for(size)) <= set(scenario.engines)


def test_every_builtin_scenario_has_a_model_entry():
    """The Section 5 model engine covers every SSAM kernel and direct
    baseline; no Section 5 scheme describes cuDNN's GEMM or cuFFT."""
    analytic_only = {"conv2d-cudnn", "conv2d-cufft"}
    for scenario in all_scenarios():
        if scenario.name in analytic_only:
            assert scenario.engines == ("analytic",), scenario.name
            assert scenario.model is None, scenario.name
        else:
            assert "model" in scenario.engines, scenario.name
            assert scenario.model is not None, scenario.name


def test_every_executable_scenario_has_a_cpu_oracle():
    """Any entry with a functional engine must ship a ground-truth oracle —
    otherwise the differential matrix cannot check it (CI enforces the same
    invariant as a standalone coverage step)."""
    from repro.scenarios.registry import NON_EXECUTING_ENGINES

    for scenario in all_scenarios():
        executable = [e for e in scenario.engines
                      if e not in NON_EXECUTING_ENGINES]
        if executable:
            assert scenario.oracle is not None, \
                f"{scenario.name} runs {executable} but has no oracle"


@pytest.mark.parametrize("engine", ["model", "analytic"])
def test_model_engine_requires_an_evaluator(engine):
    donor = get_scenario("scan")
    with pytest.raises(ConfigurationError, match=f"no {engine} evaluator"):
        Scenario(name="bad", family="scan", dims=1, runner=donor.runner,
                 sizes={"tiny": {}}, architectures=("p100",),
                 precisions=("float32",), engines=("batched", engine))


# ------------------------------------------------- launch-parameter overrides

def test_plan_kwargs_case_identity_and_normalisation():
    plain = ScenarioCase("conv2d", "p100", "float32", "batched", "tiny")
    assert plain.case_id == "conv2d:p100:float32:batched:tiny"
    assert "plan_kwargs" not in plain.to_dict()
    tuned = ScenarioCase("conv2d", "p100", "float32", "batched", "tiny",
                         {"outputs_per_thread": 2, "block_threads": 256})
    # canonical order (sorted), independent of the mapping's insertion order
    swapped = ScenarioCase("conv2d", "p100", "float32", "batched", "tiny",
                           {"block_threads": 256, "outputs_per_thread": 2})
    assert tuned == swapped
    assert tuned.case_id == ("conv2d:p100:float32:batched:tiny:"
                             "block_threads=256,outputs_per_thread=2")
    assert tuned.fingerprint() == swapped.fingerprint()
    assert tuned.fingerprint() != plain.fingerprint()
    assert tuned.plan_overrides == {"outputs_per_thread": 2, "block_threads": 256}
    with pytest.raises(ConfigurationError):
        ScenarioCase("conv2d", "p100", "float32", "batched", "tiny",
                     {"block_threads": "many"})


def test_plan_kwargs_validated_against_the_tunable_envelope():
    conv2d = get_scenario("conv2d")
    assert conv2d.tunables == ("outputs_per_thread", "block_threads",
                               "block_rows")
    scan = get_scenario("scan")
    assert scan.tunables == ("block_threads",)
    # scan has no sliding window: requesting P is a configuration error
    with pytest.raises(ConfigurationError):
        scan.run_case(ScenarioCase("scan", "p100", "float32", "batched",
                                   "tiny", {"outputs_per_thread": 2}))
    # baselines declare no tunables at all
    npp = get_scenario("conv2d-npp")
    assert npp.tunables == ()
    with pytest.raises(ConfigurationError):
        npp.validate_plan_kwargs({"block_threads": 256})


def test_plan_kwargs_flow_into_plans_and_results():
    conv2d = get_scenario("conv2d")
    plan = conv2d.build_plan("tiny", "p100", "float32",
                             {"outputs_per_thread": 2, "block_threads": 256})
    assert plan.outputs_per_thread == 2
    assert plan.block_threads == 256
    default = conv2d.build_plan("tiny", "p100", "float32")
    assert default.outputs_per_thread == 4 and default.block_threads == 128
    result = conv2d.run_case(ScenarioCase(
        "conv2d", "p100", "float32", "batched", "tiny",
        {"outputs_per_thread": 2, "block_threads": 256}))
    assert result.parameters["P"] == 2
    assert result.launch.config.block_threads == 256
    # overridden launches still produce the exact reference output
    oracle = conv2d.oracle_output(ScenarioCase(
        "conv2d", "p100", "float32", "batched", "tiny"))
    assert np.max(np.abs(result.output.astype(np.float64) - oracle)) < 1e-5


def test_expand_matrix_plan_kwargs_axis():
    cases = expand_matrix({"scenarios": ["conv2d", "scan"],
                           "architectures": ["p100"],
                           "precisions": ["float32"],
                           "engines": ["batched"],
                           "sizes": ["tiny"],
                           "plan_kwargs": [{}, {"block_threads": 256},
                                           {"outputs_per_thread": 2}]})
    ids = [c.case_id for c in cases]
    # conv2d tunes both parameters; scan skips the P-only override
    assert ids == [
        "conv2d:p100:float32:batched:tiny",
        "conv2d:p100:float32:batched:tiny:block_threads=256",
        "conv2d:p100:float32:batched:tiny:outputs_per_thread=2",
        "scan:p100:float32:batched:tiny",
        "scan:p100:float32:batched:tiny:block_threads=256",
    ]

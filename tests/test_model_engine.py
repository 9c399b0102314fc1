"""The Section 5 performance model as an execution engine (``model``).

Covers the three promises the model engine makes:

* every registered scenario evaluates closed-form — paper-scale domains
  included — and emits the same typed records as a simulated launch;
* predictions stay within a sane band of the counted simulation at
  functional sizes (the cross-engine validation experiment reports the
  exact bounds);
* model cells run through the cached/sharded sweep pipeline like any other
  engine, with deterministic artifacts.
"""

from __future__ import annotations


import pytest

from repro.analysis.metrics import error_bounds, geometric_mean, relative_error
from repro.convolution.spec import ConvolutionSpec
from repro.core.performance_model import model_convolution2d, predict_launch
from repro.core.plan import plan_convolution, plan_stencil
from repro.dtypes import resolve_precision
from repro.errors import ConfigurationError
from repro.experiments import load_result, model_validation, runner
from repro.experiments.cache import SimulationCache
from repro.experiments.parallel import execute_jobs
from repro.gpu.architecture import TESLA_P100, TESLA_V100
from repro.gpu.kernel import LaunchConfig
from repro.gpu.occupancy import compute_occupancy
from repro.kernels import conv1d_ssam, scan_ssam
from repro.kernels.conv2d_ssam import analytic_chain_launch, analytic_launch
from repro.kernels.stencil2d_ssam import analytic_launch as stencil2d_analytic_launch
from repro.scenarios import ScenarioCase, all_scenarios, get_scenario
from repro.scenarios import builtin
from repro.scenarios.sweep import jobs as sweep_jobs
from repro.scenarios.sweep import run_sweep
from repro.stencils.catalog import get_stencil

SSAM_KERNELS = ("conv1d", "conv2d", "stencil2d", "stencil3d", "scan",
                "stencil2d-order4", "stencil2d-order6", "stencil2d-varcoef",
                "stencil2d-masked", "conv2d-pipeline")
#: the evaluated parts plus the post-paper Ampere/Hopper axis
MODEL_ARCHITECTURES = ("p100", "v100", "a100", "h100")
#: the direct baselines by the memory scheme their kernel runs
DIRECT_SCHEMES = {"conv2d-npp": "naive", "conv2d-arrayfire": "shared_memory",
                  "conv2d-halide": "shared_memory", "stencil2d-original": "naive",
                  "stencil2d-ppcg": "shared_memory",
                  "stencil2d-halide": "shared_memory", "stencil3d-original": "naive"}
#: the SSAM scenarios that also run on the ``analytic`` engine
SSAM_ANALYTIC = tuple(sorted(s.name for s in all_scenarios(role="ssam")
                             if "analytic" in s.engines))
#: the closed forms of the 1-D SSAM kernels, which have no ``analytic``
#: engine, as ``closed_form(params, precision)`` on V100
ONE_D_CLOSED_FORMS = {
    "conv1d": lambda p, prec: conv1d_ssam.analytic_launch(
        p["taps"], p["length"], TESLA_V100, conv1d_ssam.launch_config(
            p["taps"], p["length"], TESLA_V100, resolve_precision(prec),
            p["block_threads"])),
    "scan": lambda p, prec: scan_ssam.analytic_launch(
        p["length"], TESLA_V100, scan_ssam.launch_config(
            p["length"], TESLA_V100, resolve_precision(prec), p["block_threads"])),
}


def _assert_one_part(result, architecture, precision):
    """``result`` reports, launches and configures one part and precision."""
    assert result.parameters["architecture"] == result.launch.architecture.name
    assert result.parameters["precision"] == result.launch.config.precision.name
    assert result.launch.architecture.name == architecture
    assert result.launch.config.precision.name == precision


# --- the engine itself ------------------------------------------------------

@pytest.mark.parametrize("name", SSAM_KERNELS)
def test_model_engine_runs_every_ssam_kernel_at_paper_scale(name):
    scenario = get_scenario(name)
    assert "model" in scenario.engines_for("paper")
    result = scenario.run_case(
        ScenarioCase(name, "p100", "float32", "model", "paper"))
    assert result.output is None
    assert result.milliseconds > 0
    assert result.launch.kernel_name.endswith("_model")
    assert result.parameters["engine"] == "model"
    assert result.parameters["scheme"] == "register_cache"
    assert result.parameters["seconds"] == pytest.approx(result.seconds)
    # the launch carries real counters and a real launch configuration
    assert result.launch.counters.fma >= 0
    assert result.launch.config.total_blocks >= 1


def test_every_scenario_evaluates_through_the_model_engine():
    """Direct baselines included, each priced as the scheme its kernel runs."""
    modelled = [s for s in all_scenarios() if "model" in s.engines]
    assert {s.name for s in modelled if s.role == "baseline"} == set(DIRECT_SCHEMES)
    for scenario in modelled:
        size = next(s for s in ("small", "tiny", "paper")
                    if s in scenario.sizes and
                    "model" in scenario.engines_for(s))
        arch = scenario.architectures[0]
        result = scenario.run_case(
            ScenarioCase(scenario.name, arch, "float32", "model", size))
        assert result.milliseconds > 0, scenario.name
        expected_scheme = DIRECT_SCHEMES.get(scenario.name, "register_cache")
        assert result.parameters["scheme"] == expected_scheme, scenario.name


@pytest.mark.parametrize("size", ["tiny", "small", "paper"])
@pytest.mark.parametrize("name", sorted(DIRECT_SCHEMES))
def test_direct_baseline_model_prices_its_closed_form(name, size):
    """One source of truth: a baseline's model keeps its analytic counts."""
    scenario = get_scenario(name)
    model, analytic = (
        scenario.run_case(ScenarioCase(name, "v100", "float32", engine, size))
        for engine in ("model", "analytic"))
    assert model.launch.counters.as_dict() == analytic.launch.counters.as_dict()
    assert model.launch.config == analytic.launch.config


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("size", ["tiny", "small", "paper"])
@pytest.mark.parametrize("name", SSAM_ANALYTIC)
def test_ssam_model_prices_its_analytic_launch(name, size, precision):
    """An SSAM model keeps the counts and launch of the kernel's closed form,
    and both report the one part and precision they were launched on."""
    assert len(SSAM_ANALYTIC) == 6
    scenario = get_scenario(name)
    model, analytic = (
        scenario.run_case(ScenarioCase(name, "v100", precision, engine, size))
        for engine in ("model", "analytic"))
    assert model.launch.counters.as_dict() == analytic.launch.counters.as_dict()
    assert model.launch.config == analytic.launch.config
    for result in (model, analytic):
        _assert_one_part(result, "Tesla V100", precision)


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("size", ["tiny", "small", "paper"])
@pytest.mark.parametrize("name", sorted(ONE_D_CLOSED_FORMS))
def test_one_dimensional_model_prices_its_analytic_launch(name, size, precision):
    scenario = get_scenario(name)
    model = scenario.run_case(ScenarioCase(name, "v100", precision, "model", size))
    analytic = ONE_D_CLOSED_FORMS[name](
        scenario.case_parameters(size, "v100", precision), precision)
    assert model.launch.counters.as_dict() == analytic.launch.counters.as_dict()
    assert model.launch.config == analytic.launch.config
    assert model.launch.config.total_blocks > 1
    for result in (model, analytic):
        _assert_one_part(result, "Tesla V100", precision)


def test_each_model_evaluation_makes_one_model_call(monkeypatch):
    """Every ``model`` entry prices its closed form with exactly one
    ``model_*`` call, looked up when it runs (so a wrapper sees it)."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in [n for n in vars(builtin) if n.startswith("model_")]:
        monkeypatch.setattr(builtin, name, counted(name, getattr(builtin, name)))
    for scenario in all_scenarios():
        if "model" in scenario.engines:
            size = next(s for s in scenario.sizes
                        if "model" in scenario.engines_for(s))
            calls.clear()
            scenario.run_case(ScenarioCase(scenario.name, "v100", "float32",
                                           "model", size))
            assert len(calls) == 1, (scenario.name, calls)


@pytest.mark.parametrize("name", sorted(n for n, scheme in DIRECT_SCHEMES.items()
                                        if scheme == "naive"))
def test_naive_baseline_model_streams_every_tap(name):
    """A warp with an active lane pays one global load and streams the rest.

    At ``small`` the stencils' rows leave warps of each block masked off;
    those issue no loads, and the per-warp load count must not average
    over them.
    """
    scenario = get_scenario(name)
    spec = scenario.spec_builder(scenario.sizes["small"])
    taps = spec.taps if hasattr(spec, "taps") else spec.num_points
    result = scenario.run_case(ScenarioCase(name, "v100", "float32", "model", "small"))
    config = result.launch.config
    lat = result.launch.architecture.latencies
    assert result.parameters["memory_cycles_per_pass"] == pytest.approx(
        lat.gmem_load + (taps - 1) * lat.l1_load / config.memory_parallelism)


def test_predict_launch_occupancy_matches_the_calculator():
    config = LaunchConfig(grid_dim=(1000, 1, 1), block_threads=128,
                          registers_per_thread=64,
                          shared_bytes_per_block=2048)
    prediction = predict_launch(TESLA_P100, config, scheme="register_cache",
                                outputs=10**6, warp_passes=4000,
                                compute_cycles_per_pass=1000.0,
                                memory_cycles_per_pass=400.0)
    occ = compute_occupancy(TESLA_P100, 128, 64, 2048)
    assert prediction.active_warps_per_sm == occ.active_warps_per_sm
    assert prediction.occupancy == occ.occupancy
    assert prediction.concurrency == TESLA_P100.sm_count * occ.active_warps_per_sm
    # wave quantisation: passes over concurrency, rounded up
    assert prediction.waves == -(-4000 // prediction.concurrency)
    assert prediction.seconds > 0
    with pytest.raises(ConfigurationError):
        predict_launch(TESLA_P100, config, scheme="register_cache",
                       outputs=0, warp_passes=0,
                       compute_cycles_per_pass=1.0, memory_cycles_per_pass=0.0)


def test_prediction_takes_the_dram_bandwidth_floor():
    config = LaunchConfig(grid_dim=(10, 1, 1), block_threads=128)
    cheap = predict_launch(TESLA_P100, config, scheme="register_cache",
                           outputs=100, warp_passes=40,
                           compute_cycles_per_pass=100.0,
                           memory_cycles_per_pass=10.0)
    heavy = predict_launch(TESLA_P100, config, scheme="register_cache",
                           outputs=100, warp_passes=40,
                           compute_cycles_per_pass=100.0,
                           memory_cycles_per_pass=10.0,
                           dram_bytes=10e9)
    assert not cheap.bandwidth_bound
    assert heavy.bandwidth_bound
    assert heavy.seconds == pytest.approx(
        10e9 / TESLA_P100.effective_bandwidth_bytes, rel=1e-3)


def test_model_agrees_with_analytic_engine_when_bandwidth_bound():
    """At paper scale in fp64 both closed forms hit the same traffic floor."""
    conv2d = get_scenario("conv2d")
    model = conv2d.run_case(
        ScenarioCase("conv2d", "p100", "float64", "model", "paper"))
    analytic = conv2d.run_case(
        ScenarioCase("conv2d", "p100", "float64", "analytic", "paper"))
    assert model.parameters["bandwidth_seconds"] > model.parameters["latency_seconds"]
    assert model.milliseconds == pytest.approx(analytic.milliseconds, rel=1e-6)


@pytest.mark.parametrize("architecture,precision,overrides", [
    ("p100", "float32", {}),
    ("v100", "float64", {"outputs_per_thread": 4, "block_threads": 128}),
])
def test_one_pass_chain_prices_like_the_single_convolution(architecture,
                                                           precision,
                                                           overrides):
    """An unfused one-pass chain is one Section 5.2 launch, priced the same."""
    spec = ConvolutionSpec.gaussian(5)
    plan = plan_convolution(spec, architecture, precision, **overrides)
    single = model_convolution2d(analytic_launch(512, 256, plan), plan)
    chain = model_convolution2d(
        analytic_chain_launch(512, 256, plan, passes=1, fused=False), plan)
    assert chain.milliseconds == single.milliseconds
    assert chain.launch.config == single.launch.config
    assert chain.launch.counters.as_dict() == single.launch.counters.as_dict()
    assert chain.parameters["P"] == single.parameters["P"]


def test_fused_chain_moves_dram_traffic_once():
    """Fusion keeps intermediates resident: one stage's DRAM traffic, every
    stage's instructions, and never a slower prediction than unfused."""
    spec = ConvolutionSpec.gaussian(5)
    plan = plan_convolution(spec)
    single = model_convolution2d(analytic_launch(512, 256, plan), plan)
    unfused, fused = (
        model_convolution2d(analytic_chain_launch(512, 256, plan, passes=3,
                                                  fused=fuse), plan)
        for fuse in (False, True))
    one, many = single.launch.counters, fused.launch.counters
    assert many.dram_read_bytes == one.dram_read_bytes
    assert many.dram_write_bytes == one.dram_write_bytes
    assert many.fma == 3 * one.fma
    assert unfused.launch.counters.dram_bytes == 3 * one.dram_bytes
    assert fused.milliseconds <= unfused.milliseconds
    with pytest.raises(ConfigurationError):
        analytic_chain_launch(512, 256, plan, passes=0)


@pytest.mark.parametrize("closed_form", ["conv2d", "chain", "stencil2d"])
def test_a_closed_form_reports_its_plans_part(closed_form):
    """A V100 float64 plan yields a V100 float64 result, never P100/float32
    parameters beside the plan's config."""
    if closed_form == "stencil2d":
        spec = get_stencil("2d9pt")
        plan = plan_stencil(spec, "v100", "float64")
        result = stencil2d_analytic_launch(512, 256, plan)
    else:
        spec = ConvolutionSpec.gaussian(5)
        plan = plan_convolution(spec, "v100", "float64")
        result = (analytic_launch(512, 256, plan) if closed_form == "conv2d"
                  else analytic_chain_launch(512, 256, plan))
    _assert_one_part(result, "Tesla V100", "float64")
    assert result.launch.config == plan.launch_config(512, 256)


@pytest.mark.parametrize("name", SSAM_KERNELS)
def test_model_tracks_the_simulator_at_functional_sizes(name):
    """Loose regression band: the prediction must stay the same order of
    magnitude as the counted simulation (the exact bounds are a reported
    quantity, not a constraint)."""
    scenario = get_scenario(name)
    for arch in MODEL_ARCHITECTURES:
        simulated = scenario.run_case(
            ScenarioCase(name, arch, "float32", "batched", "small"))
        predicted = scenario.run_case(
            ScenarioCase(name, arch, "float32", "model", "small"))
        ratio = predicted.milliseconds / simulated.milliseconds
        assert 0.2 < ratio < 5.0, f"{name}/{arch}: ratio {ratio}"


# --- pipeline integration ---------------------------------------------------

def test_paper_sweep_is_cached_and_deterministic(tmp_path):
    cache = SimulationCache(str(tmp_path / "cache"))
    cold = run_sweep("paper", cache=cache)
    expected = len(sweep_jobs("paper"))
    assert cache.stats()["misses"] == expected and cache.stats()["stores"] == expected
    warm_cache = SimulationCache(str(tmp_path / "cache"))
    warm = run_sweep("paper", cache=warm_cache)
    assert warm_cache.stats() == {"hits": expected, "misses": 0, "stores": 0}
    assert warm == cold
    # every registered SSAM kernel, both closed-form engines, nothing
    # functional
    engines = {m.extra["engine"] for m in cold.measurements}
    assert engines == {"analytic", "model"}
    kernels = {m.kernel for m in cold.measurements}
    assert kernels == set(SSAM_KERNELS)
    architectures = {m.architecture for m in cold.measurements}
    assert architectures == set(MODEL_ARCHITECTURES)


def test_paper_sweep_cli_writes_deterministic_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    args = ["--experiment", "sweep", "--matrix", "paper",
            "--cache-dir", str(tmp_path / "cache"),
            "--output-dir", str(out_dir)]
    assert runner.main(args) == 0
    capsys.readouterr()
    artifact = out_dir / "sweep.json"
    first_bytes = artifact.read_bytes()
    loaded = load_result(str(artifact))
    assert len(loaded.measurements) == len(sweep_jobs("paper"))
    assert runner.main(args) == 0
    err = capsys.readouterr().err
    assert "0 misses" in err
    assert artifact.read_bytes() == first_bytes


def test_model_cells_round_trip_through_json(tmp_path):
    result = run_sweep({"scenarios": ["scan"], "architectures": ["p100"],
                        "precisions": ["float32"], "engines": ["model"],
                        "sizes": ["paper"]})
    path = result.save(str(tmp_path / "model.json"))
    assert load_result(path) == result


# --- cross-engine validation experiment -------------------------------------

def test_cross_engine_validation_reports_every_ssam_kernel():
    payloads = execute_jobs(model_validation.jobs(quick=True))
    result = model_validation.assemble(payloads, quick=True)
    bounds = result.metadata["cross_engine"]["bounds"]
    for kernel in SSAM_KERNELS:
        assert kernel in bounds, f"missing error bounds for {kernel}"
        entry = bounds[kernel]
        assert entry["cases"] >= 8  # 4 architectures x 2 precisions
        assert 0.2 < entry["min"] <= entry["geomean"] <= entry["max"] < 5.0
    text = model_validation.render(result)
    assert "cross-engine validation" in text
    assert "ratio_geomean" in text
    for kernel in SSAM_KERNELS:
        assert kernel in text


def test_cross_engine_cells_share_the_sweep_cache(tmp_path):
    """A sweep that already simulated a cell leaves validation a cache hit."""
    from repro.experiments.jobs import dedupe_jobs

    validation = model_validation.jobs(quick=True)
    sweep_cells = sweep_jobs({"scenarios": ["conv2d"],
                              "architectures": ["p100"],
                              "precisions": ["float32"],
                              "engines": ["batched"], "sizes": ["tiny"]})
    shared = {j.key for j in validation} & {j.key for j in sweep_cells}
    assert shared == {"sweep:conv2d:p100:float32:batched:tiny"}
    # identical keys must carry identical definitions (dedupe accepts them)
    assert len(dedupe_jobs(validation + sweep_cells)) == len(validation)


# --- metrics helpers --------------------------------------------------------

def test_relative_error_and_bounds_helpers():
    assert relative_error(12.0, 10.0) == pytest.approx(0.2)
    assert relative_error(8.0, 10.0) == pytest.approx(-0.2)
    with pytest.raises(ConfigurationError):
        relative_error(1.0, 0.0)
    bounds = error_bounds([0.5, 2.0])
    assert bounds["min"] == 0.5 and bounds["max"] == 2.0
    assert bounds["geomean"] == pytest.approx(geometric_mean([0.5, 2.0]))
    with pytest.raises(ConfigurationError):
        error_bounds([])

"""Each cell is resolved once: one spec, one parameter resolution, one plan.

A cell (scenario, size, part, precision, launch overrides) is resolved by
:meth:`repro.scenarios.registry.Scenario.resolve`; inside a
:func:`~repro.scenarios.registry.resolving` block (one sweep or tuning run)
the validity check, the job key and the evaluators share that resolution.
These tests count plans and specs through a small tuning run, check that
the guard sees a consumer that plans its own cell, and check that the
closed-form evaluators give the same result with the cell's plan handed in
as when they plan for themselves.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import sys

import pytest

import repro.core.plan as plan_module
import repro.tuning.space as space_module
from repro.core.launch_defaults import clear_lookup_cache, tuning_database
from repro.scenarios import all_scenarios, get_scenario
from repro.scenarios.registry import (
    LAUNCH_DEFAULTS_SOURCE_KEY,
    register,
    resolving,
    unregister,
)
from repro.service.store import ResultStore
from repro.tuning.tuner import run_tuning

PROBES = {"resolve-probe-conv2d": "conv2d",
          "resolve-probe-stencil2d": "stencil2d"}


def _replace_everywhere(monkeypatch, original, replacement) -> None:
    """Monkeypatch every module-level alias of ``original`` in the package
    (``from x import f`` copies the function into the importing module)."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for alias, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, alias, replacement)


def _counting(function, counts, label):
    def counted(*args, **kwargs):
        counts[label] += 1
        return function(*args, **kwargs)

    return counted


@pytest.fixture
def probes():
    """Copies of conv2d and stencil2d whose spec builders count their calls
    (fresh copies, so no spec is cached from an earlier test)."""
    specs = collections.Counter()
    for name, donor_name in PROBES.items():
        donor = get_scenario(donor_name)

        def builder(params, _build=donor.spec_builder, _name=name):
            specs[_name, repr(sorted(params.items()))] += 1
            return _build(params)

        register(dataclasses.replace(donor, name=name, spec_builder=builder))
    try:
        yield specs
    finally:
        for name in PROBES:
            unregister(name)


def _tune_and_count(monkeypatch, specs):
    """Plans built and distinct points validity-checked by one small
    model-stage tuning run (two scenarios, one part, one precision)."""
    counts = collections.Counter()
    for name in ("plan_convolution", "plan_stencil"):
        original = getattr(plan_module, name)
        _replace_everywhere(monkeypatch, original,
                            _counting(original, counts, "plans"))
    checked = set()
    original_check = space_module.point_is_valid

    def checking(scenario, size, architecture, precision, plan_kwargs):
        checked.add((scenario.name, size, architecture, precision,
                     tuple(sorted(plan_kwargs.items()))))
        return original_check(scenario, size, architecture, precision,
                              plan_kwargs)

    _replace_everywhere(monkeypatch, original_check, checking)
    result = run_tuning(scenarios=list(PROBES), architectures=["p100"],
                        precisions=["float32"], confirm=False, cache=None)
    assert result.metadata["evaluations"]["evaluated"] > 0
    assert specs, "the probe spec builders never ran"
    return counts["plans"], len(checked)


def test_a_tuning_run_plans_each_point_at_most_twice(monkeypatch, probes):
    plans, points = _tune_and_count(monkeypatch, probes)
    assert points == 64  # 8 P x 4 B per scenario, all valid on p100
    assert plans <= 2 * points, (plans, points)
    # one spec per (scenario, size), shared by every point of the cell
    assert max(probes.values()) == 1, probes


def test_guard_sees_consumers_planning_their_own_cell(monkeypatch, probes):
    # without one resolution per run, the validity check, the job key and
    # the evaluation each plan the point again
    _replace_everywhere(monkeypatch, resolving, contextlib.nullcontext)
    plans, points = _tune_and_count(monkeypatch, probes)
    assert plans > 2 * points, (plans, points)


def _fields(result) -> dict:
    """Every field of a closed-form run result, for a field-by-field diff."""
    launch = result.launch
    return {
        "name": result.name,
        "output": result.output,
        "parameters": dict(result.parameters),
        "kernel_name": launch.kernel_name,
        "config": launch.config.to_dict(),
        "architecture": launch.architecture,
        "counters": launch.counters.as_dict(),
        "blocks_executed": launch.blocks_executed,
        "sampled": launch.sampled,
        "sample_fraction": launch.sample_fraction,
        "timing": dataclasses.asdict(launch.timing),
    }


def _paper_cells():
    for scenario in all_scenarios(role="ssam"):
        if scenario.planner is None or "paper" not in scenario.sizes:
            continue
        for engine in ("model", "analytic"):
            for architecture in scenario.architectures:
                for precision in scenario.precisions:
                    if scenario.supports(architecture, precision, engine,
                                         "paper"):
                        yield scenario.name, engine, architecture, precision


@pytest.mark.parametrize("name,engine,architecture,precision",
                         list(_paper_cells()))
def test_evaluators_agree_with_and_without_the_handed_in_plan(
        name, engine, architecture, precision):
    scenario = get_scenario(name)
    cell = scenario.resolve("paper", architecture, precision)
    evaluator = getattr(scenario, engine)
    handed = evaluator(cell.spec, dict(cell.params), architecture, precision,
                       plan=cell.plan)
    planned = evaluator(cell.spec, dict(cell.params), architecture,
                        precision)
    with_plan, without = _fields(handed), _fields(planned)
    for field in with_plan:
        assert with_plan[field] == without[field], field


def test_every_planned_ssam_scenario_is_compared():
    covered = {name for name, *_ in _paper_cells()}
    assert covered == {s.name for s in all_scenarios(role="ssam")
                       if s.planner is not None}


def test_a_run_shares_one_resolution_per_cell():
    conv2d = get_scenario("conv2d")
    point = {"outputs_per_thread": 2, "block_threads": 256}
    with resolving():
        first = conv2d.resolve("tiny", "p100", "float32", point)
        assert conv2d.resolve("tiny", "p100", "float32", dict(point)) \
            is first
        assert conv2d.build_plan("tiny", "p100", "float32", point) \
            is first.plan
        with resolving():  # a nested block shares the outer memo
            assert conv2d.resolve("tiny", "p100", "float32", point) is first
    # outside a run nothing is kept
    assert conv2d.resolve("tiny", "p100", "float32", point) is not first


def test_a_run_sees_a_tuned_row_written_before_it(tmp_path, monkeypatch):
    monkeypatch.delenv("SSAM_TUNED_DB", raising=False)
    path = str(tmp_path / "results.sqlite")
    conv2d = get_scenario("conv2d")
    with tuning_database(path):
        with resolving():
            before = conv2d.resolve("tiny", "p100", "float32")
        store = ResultStore(path)
        store.put_tuned_config("conv2d", "p100", "float32", "paper",
                               {"outputs_per_thread": 2, "block_threads": 64},
                               model_ms=1.0, default_model_ms=2.0,
                               speedup=2.0, search="exhaustive",
                               confirmed=None)
        store.close()
        clear_lookup_cache()
        with resolving():
            after = conv2d.resolve("tiny", "p100", "float32")
    assert before.params[LAUNCH_DEFAULTS_SOURCE_KEY] == "paper"
    assert after.params[LAUNCH_DEFAULTS_SOURCE_KEY] == "tuned+paper"
    assert after.plan.outputs_per_thread == 2
    assert after.plan.block_threads == 64


def test_a_tuning_run_keeps_one_record_per_point(monkeypatch, probes):
    import repro.gpu.occupancy as occupancy_module
    import repro.tuning.tuner as tuner_module
    from repro.core.launch_defaults import resolve_launch_defaults

    monkeypatch.delenv("SSAM_TUNED_DB", raising=False)
    counts = collections.Counter()
    for name in ("ScenarioCase", "SimulationJob"):
        monkeypatch.setattr(tuner_module, name, _counting(
            getattr(tuner_module, name), counts, name))
    _replace_everywhere(monkeypatch, resolve_launch_defaults, _counting(
        resolve_launch_defaults, counts, "defaults"))
    shapes = collections.Counter()
    original_body = occupancy_module._compute_occupancy

    def computing(architecture, *shape):
        shapes[architecture.name, shape] += 1
        return original_body(architecture, *shape)

    monkeypatch.setattr(occupancy_module, "_OCCUPANCY", {})
    monkeypatch.setattr(occupancy_module, "_compute_occupancy", computing)
    result = run_tuning(scenarios=list(PROBES), architectures=["p100"],
                        precisions=["float32"], confirm=False, cache=None)
    evaluated = result.metadata["evaluations"]["evaluated"]
    assert evaluated == 64
    # the tuner builds each point's case and job once; observing, ranking
    # and assembling the result build none
    assert counts["ScenarioCase"] == counts["SimulationJob"] == evaluated
    # the registry resolves each point's launch defaults; the planner
    # receives them concrete and resolves nothing again
    assert counts["defaults"] == evaluated, counts
    # the validity check and the model share each launch shape's occupancy
    assert shapes and max(shapes.values()) == 1, shapes

    occupancy = get_scenario("conv2d").build_plan(
        "tiny", "p100", "float32").occupancy()
    with pytest.raises(TypeError):
        occupancy.limits["blocks"] = 0


def test_a_second_model_stage_tune_builds_no_plan(monkeypatch):
    """The plan cache holds a whole tune: a full model-stage run plans more
    points than the old 512-entry bound, and a second run in the same
    process finds every plan in the cache and builds none."""
    builds = collections.Counter()
    cached_plan = plan_module._cached_plan

    def counting(*args):
        *key, build = args

        def counted_build():
            builds["plans"] += 1
            return build()

        return cached_plan(*key, counted_build)

    monkeypatch.setattr(plan_module, "_PLAN_CACHE", collections.OrderedDict())
    monkeypatch.setattr(plan_module, "_cached_plan", counting)
    first = run_tuning(confirm=False, cache=None)
    assert first.metadata["evaluations"]["evaluated"] == 2112
    assert builds["plans"] > 512
    builds.clear()
    run_tuning(confirm=False, cache=None)
    assert builds["plans"] == 0

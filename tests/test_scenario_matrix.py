"""The auto-generated differential test matrix.

Nothing in this file names a kernel: every test cell is derived from the
scenario registry's envelopes, so registering a new kernel, architecture or
precision instantly adds its full correctness suite.  Each cell runs the
scenario on every functional engine it supports and checks

* **engine parity** — the trace-replay engine's output (cold and warm) is
  bit-identical to the batched engine's and every counter matches field by
  field;
* **functional correctness** — the batched output matches the scenario's
  CPU oracle to a precision-scaled tolerance.

The SSAM kernels are exercised over their full envelope (every architecture
x both precisions); baselines are thinned to the evaluated architectures at
single precision to bound runtime, but still derive entirely from their
registered envelopes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

import numpy as np
import pytest

from repro.scenarios import (
    ScenarioCase,
    all_scenarios,
    expand_matrix,
    get_scenario,
)
from repro.scenarios.sweep import load_matrix

#: max absolute error allowed against the float64 CPU oracle
ORACLE_TOLERANCE = {"float32": 1e-4, "float64": 1e-9}

#: the acceptance envelope: every SSAM kernel on the evaluated and the
#: post-paper architectures, both precisions and all functional engines
TIER1_KERNELS = ("conv1d", "conv2d", "stencil2d", "stencil3d", "scan",
                 "stencil2d-order4", "stencil2d-order6", "stencil2d-varcoef",
                 "stencil2d-masked", "conv2d-pipeline")
TIER1_ARCHITECTURES = ("p100", "v100", "a100", "h100")
TIER1_PRECISIONS = ("float32", "float64")
TIER1_ENGINES = ("batched", "replay")


def derive_differential_cells() -> List[ScenarioCase]:
    """One cell per (scenario, architecture, precision) on the batched engine.

    Cells are expanded from the registered envelopes — scenarios without a
    CPU oracle (analytic-only baselines) contribute nothing.  The returned
    case names the batched engine; the test itself also runs the replay
    engine for the parity check where the scenario supports it.
    """
    cells: List[ScenarioCase] = []
    for scenario in all_scenarios():
        if scenario.oracle is None:
            continue
        if "batched" not in scenario.engines:
            continue
        if scenario.role == "ssam":
            architectures = scenario.architectures
            precisions = scenario.precisions
        else:
            architectures = scenario.architectures[:2]
            precisions = scenario.precisions[:1]
        cells.extend(scenario.cases(architectures=architectures,
                                    precisions=precisions,
                                    engines=("batched",),
                                    sizes=("tiny",)))
    return cells


DIFFERENTIAL_CELLS = derive_differential_cells()


def _assert_engine_parity(reference, other, label):
    """Bit-identical outputs and field-by-field identical counters."""
    assert reference.output is not None and other.output is not None
    assert reference.output.dtype == other.output.dtype
    np.testing.assert_array_equal(reference.output, other.output)
    ref_counters = reference.launch.counters.as_dict()
    other_counters = other.launch.counters.as_dict()
    mismatched = {name: (ref_counters[name], other_counters[name])
                  for name in ref_counters
                  if ref_counters[name] != other_counters[name]}
    assert not mismatched, f"{label} counter mismatch: {mismatched}"


@pytest.mark.parametrize("case", DIFFERENTIAL_CELLS, ids=lambda c: c.case_id)
def test_differential_matrix(case):
    scenario = get_scenario(case.scenario)
    batched = scenario.run_case(case)

    # replay parity where the scenario supports the trace-replay engine:
    # run twice so both the cold (record + compile) path and the warm
    # (cached program, memoized counters) path are checked against batched
    if "replay" in scenario.engines:
        cold = scenario.run_case(replace(case, engine="replay"))
        _assert_engine_parity(batched, cold, "batched/replay-cold")
        warm = scenario.run_case(replace(case, engine="replay"))
        _assert_engine_parity(batched, warm, "batched/replay-warm")

    # functional correctness against the CPU oracle
    oracle = np.asarray(scenario.oracle_output(case), dtype=np.float64)
    error = np.max(np.abs(batched.output.astype(np.float64) - oracle))
    assert error <= ORACLE_TOLERANCE[case.precision], (
        f"{case.case_id}: max abs error {error} exceeds "
        f"{ORACLE_TOLERANCE[case.precision]}")


def test_matrix_covers_acceptance_envelope():
    """The derived matrix spans all 10 SSAM kernels x 2 engines x 2
    precisions x >= 4 architectures (each cell runs every engine)."""
    covered = {(c.scenario, c.architecture, c.precision)
               for c in DIFFERENTIAL_CELLS}
    for kernel in TIER1_KERNELS:
        for arch in TIER1_ARCHITECTURES:
            for precision in TIER1_PRECISIONS:
                assert (kernel, arch, precision) in covered
        # every SSAM kernel runs the replay leg of the differential test
        assert "replay" in get_scenario(kernel).engines


def test_tier1_matrix_expands_to_full_envelope():
    """The 'tier1' sweep preset expands to the same acceptance envelope."""
    cases = expand_matrix(load_matrix("tier1"))
    covered = {(c.scenario, c.architecture, c.precision, c.engine)
               for c in cases}
    for kernel in TIER1_KERNELS:
        for arch in TIER1_ARCHITECTURES:
            for precision in TIER1_PRECISIONS:
                for engine in TIER1_ENGINES:
                    assert (kernel, arch, precision, engine) in covered


def test_registering_a_scenario_extends_the_matrix():
    """A new registration is picked up by the derivation with no test edits."""
    from repro.scenarios import register, unregister

    donor = get_scenario("conv1d")
    name = "conv1d-copy-for-test"
    register(replace(donor, name=name))
    try:
        cells = derive_differential_cells()
        assert any(c.scenario == name for c in cells)
    finally:
        unregister(name)
    assert not any(c.scenario == name for c in derive_differential_cells())

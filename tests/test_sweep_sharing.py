"""A sweep simulates each built-in cell once per memory geometry.

Every shipped part has the memory geometry (32, 128, 32, 4), and the
counters and outputs of a built-in scenario depend on a part only through
that geometry.  ``_measure_case`` therefore runs a cell's simulation once
and hands it to the other parts of the geometry, which recompute their
modelled time and check their shared capacity.  These tests pin that the
shared payloads are byte-identical to fresh runs on every part, and that
whatever cannot share (a scenario registered at run time, another
geometry, a part whose scratchpad is too small) behaves as a fresh run.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import ResourceExhaustedError
from repro.gpu.architecture import (
    ARCHITECTURES,
    TESLA_P100,
    _lookup_architecture,
    architecture_names,
    get_architecture,
)
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.gpu.memory import GlobalMemory
from repro.kernels import KernelRunResult
from repro.scenarios import builtin, get_scenario, register, registry, unregister
from repro.scenarios import sweep
from repro.scenarios.sweep import _clear_shared_runs, _measure_case, run_sweep
from repro.serialization import jsonify

EXECUTING = ("batched", "replay")


def _encoded(payload) -> str:
    """The bytes the result store writes for a payload (key order kept)."""
    return json.dumps(jsonify(payload), separators=(",", ":"), allow_nan=True)


def _memo_size() -> int:
    with sweep._SHARED_RUNS_LOCK:
        return len(sweep._SHARED_RUNS)


def _fresh(*cell) -> dict:
    _clear_shared_runs()
    return _measure_case(*cell)


@pytest.fixture
def extra_part(monkeypatch):
    """Register a test-only part and widen one built-in scenario to it."""
    def add(short_name, part, scenario):
        monkeypatch.setitem(ARCHITECTURES, short_name, part)
        _lookup_architecture.cache_clear()
        entry = get_scenario(scenario)
        widened = dataclasses.replace(
            entry, architectures=entry.architectures + (short_name,))
        monkeypatch.setitem(registry._REGISTRY, scenario, widened)
        monkeypatch.setitem(builtin.BUILTIN, scenario, widened)

    yield add
    _lookup_architecture.cache_clear()
    _clear_shared_runs()


def _groups():
    """(scenario, precision, engine) of every built-in executable cell at
    ``tiny``, with the parts of its envelope."""
    for name, entry in builtin.BUILTIN.items():
        for precision in entry.precisions:
            for engine in EXECUTING:
                if engine not in entry.engines_for("tiny"):
                    continue
                yield name, precision, engine, entry.architectures


GROUPS = list(_groups())


@pytest.mark.parametrize(
    "scenario,precision,engine,parts", GROUPS,
    ids=[f"{g[0]}-{g[1]}-{g[2]}" for g in GROUPS])
def test_shared_payloads_equal_fresh_runs_on_every_part(
        scenario, precision, engine, parts):
    _clear_shared_runs()
    shared = {part: _measure_case(scenario, part, precision, engine, "tiny")
              for part in parts}
    # one simulation served every part of the geometry
    assert {get_architecture(p).memory_geometry for p in parts} \
        == {TESLA_P100.memory_geometry}
    assert _memo_size() == 1
    for part in parts:
        fresh = _fresh(scenario, part, precision, engine, "tiny")
        assert _encoded(shared[part]) == _encoded(fresh), part
    _clear_shared_runs()


def test_every_shipped_part_is_covered():
    covered = {part for group in GROUPS for part in group[3]}
    assert covered == set(architecture_names())


def test_runtime_registered_scenario_keeps_per_part_results():
    scan = get_scenario("scan")

    def reads_sm_count(spec, workload, params, architecture, precision,
                       engine):
        result = scan.runner(spec, workload, params, architecture,
                             precision, engine)
        scale = get_architecture(architecture).sm_count
        return KernelRunResult(result.name, result.output * scale,
                               result.launch, dict(result.parameters))

    register(dataclasses.replace(scan, name="sm-count-probe",
                                 runner=reads_sm_count))
    try:
        _clear_shared_runs()
        p100 = _measure_case("sm-count-probe", "p100", "float32", "replay",
                             "tiny")
        v100 = _measure_case("sm-count-probe", "v100", "float32", "replay",
                             "tiny")
        assert _memo_size() == 0
    finally:
        unregister("sm-count-probe")
    assert p100["output_digest"] != v100["output_digest"]
    assert p100["oracle_max_abs_error"] != v100["oracle_max_abs_error"]


def test_another_memory_geometry_misses(extra_part):
    narrow = dataclasses.replace(TESLA_P100, name="Narrow-line P100",
                                 cache_line_bytes=32)
    extra_part("narrow", narrow, "conv2d")
    _clear_shared_runs()
    p100 = _measure_case("conv2d", "p100", "float32", "replay", "tiny")
    shared = _measure_case("conv2d", "narrow", "float32", "replay", "tiny")
    assert _memo_size() == 2
    assert shared["counters"] != p100["counters"]
    fresh = _fresh("conv2d", "narrow", "float32", "replay", "tiny")
    assert _encoded(shared) == _encoded(fresh)


@pytest.mark.parametrize("engine", EXECUTING)
def test_too_small_scratchpad_raises_the_fresh_error_on_a_hit(
        extra_part, engine):
    # scan keeps one partial sum per warp in shared memory
    cramped = dataclasses.replace(TESLA_P100, name="Cramped P100",
                                  shared_memory_per_block=8)
    extra_part("cramped", cramped, "scan")
    cell = ("scan", "cramped", "float32", engine, "tiny")
    with pytest.raises(ResourceExhaustedError) as fresh:
        _fresh(*cell)
    assert _memo_size() == 0
    _measure_case("scan", "p100", "float32", engine, "tiny")
    assert _memo_size() == 1
    with pytest.raises(ResourceExhaustedError) as shared:
        _measure_case(*cell)
    assert str(shared.value) == str(fresh.value)
    assert "8 available per block" in str(shared.value)


def test_memo_stays_within_its_bound_under_threads(monkeypatch):
    monkeypatch.setattr(sweep, "SHARED_RUNS_MAX", 3)
    cells = [(scenario, part, precision, engine, "tiny")
             for scenario in ("conv1d", "scan", "stencil2d")
             for precision in ("float32", "float64")
             for engine in EXECUTING
             for part in ("p100", "v100")]
    expected = {cell: _encoded(_fresh(*cell)) for cell in cells}
    _clear_shared_runs()
    done = threading.Event()
    seen = []

    def watch():
        while not done.is_set():
            seen.append(_memo_size())

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            payloads = list(pool.map(lambda c: _measure_case(*c),
                                     cells + cells))
    finally:
        done.set()
        watcher.join()
    assert max(seen) <= 3 and _memo_size() <= 3
    for cell, payload in zip(cells + cells, payloads):
        assert _encoded(payload) == expected[cell], cell
    _clear_shared_runs()


def _arch_reading_kernel(ctx, src, dst, size):
    idx = np.minimum(ctx.thread_idx_x, size - 1)
    scale = 2.0 if ctx.architecture.name == "Tesla P100" else 3.0
    values = ctx.load_global(src, idx, mask=ctx.thread_idx_x < size)
    ctx.store_global(dst, idx, values * scale, mask=ctx.thread_idx_x < size)


def test_a_fallback_on_another_thread_stays_out_of_the_row():
    scan = get_scenario("scan")
    started, fell_back = threading.Event(), threading.Event()

    def waits_for_the_fallback(spec, workload, params, architecture,
                               precision, engine):
        started.set()
        assert fell_back.wait(60)
        return scan.runner(spec, workload, params, architecture, precision,
                           engine)

    def untraceable_launch():
        try:
            assert started.wait(60)
            memory = GlobalMemory()
            src = memory.to_device(np.ones(100, dtype=np.float32), name="src")
            dst = memory.allocate((128,), "float32", name="dst")
            Kernel(_arch_reading_kernel, name="reads_architecture").launch(
                LaunchConfig(grid_dim=(1, 1, 1), block_threads=128),
                (src, dst, 100), batch_size="replay")
        finally:
            fell_back.set()

    register(dataclasses.replace(scan, name="fallback-probe",
                                 runner=waits_for_the_fallback))
    other = threading.Thread(target=untraceable_launch)
    other.start()
    try:
        payload = _measure_case("fallback-probe", "p100", "float32",
                                "replay", "tiny")
    finally:
        other.join()
        unregister("fallback-probe")
    assert payload["replay_fallback"] == []


def test_parallel_sweep_across_parts_matches_serial():
    matrix = {"scenarios": ["conv2d", "scan"],
              "architectures": ["p100", "v100", "a100", "h100"],
              "precisions": ["float32"],
              "engines": list(EXECUTING),
              "sizes": ["tiny"]}
    _clear_shared_runs()
    serial = run_sweep(matrix, workers=1)
    _clear_shared_runs()
    parallel = run_sweep(matrix, workers=2)
    assert len(serial.measurements) == 16
    assert parallel == serial

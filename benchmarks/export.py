"""Per-PR benchmark artifact: emit ``BENCH_10.json`` at the repo root.

Measures the quantities this PR's acceptance criteria pin:

* **blocks/s per kernel x engine** — the five paper SSAM kernels through
  the batched (vectorized multi-block) and replay (compiled trace) engines, on paper-scale domains with grid sampling to
  bound wall-clock.  Replay is timed cold (record + compile + run) and
  warm (cached program, memoized counters); the headline pin is warm
  replay >= 3x batched blocks/s on conv2d and stencil2d.
* **blocks/s on the new architectures** — every registered SSAM scenario
  (the paper five plus the PR-8 registry additions) through each
  functional engine on the post-paper A100/H100 parts, via the registry.
* **sweep wall-clock, cold vs warm** — one sweep matrix through the cached
  job pipeline twice against a fresh cache directory, with the cache hit
  rates of both passes (warm must be 100% hits).
* **store throughput** — results/s into the shared sqlite/WAL result
  store: serial upserts, warm lookups, and aggregate results/s under
  concurrent writer threads (the regime the sweep service and overlapping
  CLI runs put it in).
* **guided autotuning** — model evaluations and wall-clock of the guided
  search against the exhaustive oracle over the full 80-cell tune matrix
  (quick: a pinned subset), plus the ``best_config`` lookup latency of the
  persistent tuning database — the cost a warm planner pays to resolve
  tuned defaults.
* **static analysis** — per-scenario wall-clock of the trace-IR verifier
  (record + interval analysis + race/bounds/lint checks + the
  static-vs-dynamic counter cross-check), one cell per analyzable scenario
  per architecture (quick: p100 only), with the finding count — the cost
  the ``analyze`` experiment and the CI analyze gate pay per cell.

Run from the repo root::

    PYTHONPATH=src python benchmarks/export.py            # full, ~2 min
    PYTHONPATH=src python benchmarks/export.py --quick    # CI smoke, ~15 s

The artifact is committed at the repo root so the perf trajectory is
reviewable per PR; CI regenerates it at ``--quick`` scale and uploads it.
``BENCH_9.json`` (the PR-9 artifact) stays committed for the trajectory.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time
from typing import Callable, Dict

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

SCHEMA = "ssam-bench/PR10"

#: the post-paper parts added by PR 8; the registry loop below measures
#: every SSAM scenario on each of them
NEW_ARCHITECTURES = ("a100", "h100")

#: acceptance pins checked by ``--check`` and recorded in the artifact
REPLAY_SPEEDUP_PINS = {"conv2d": 3.0, "stencil2d": 3.0}


def _workloads(quick: bool) -> Dict[str, Dict[str, object]]:
    """Fixed benchmark workloads (paper-scale domains, sampled grids)."""
    from repro.convolution.spec import ConvolutionSpec
    from repro.stencils.catalog import get_stencil

    rng = np.random.default_rng(20190617)
    if quick:
        image = rng.random((256, 512), dtype=np.float32)
        volume = rng.random((16, 40, 64), dtype=np.float32)
        sequence = rng.random(1 << 16, dtype=np.float32)
        max_blocks = 512
    else:
        image = rng.random((2048, 2048), dtype=np.float32)
        volume = rng.random((64, 256, 256), dtype=np.float32)
        sequence = rng.random(1 << 22, dtype=np.float32)
        max_blocks = 4096
    conv_spec = ConvolutionSpec.gaussian(9)
    taps = rng.random(7).astype(np.float32)

    def conv2d(batch_size):
        from repro.kernels.conv2d_ssam import ssam_convolve2d
        return ssam_convolve2d(image, conv_spec, batch_size=batch_size,
                               max_blocks=max_blocks)

    def stencil2d(batch_size):
        from repro.kernels.stencil2d_ssam import ssam_stencil2d
        return ssam_stencil2d(image, get_stencil("2d9pt"),
                              batch_size=batch_size,
                              max_blocks=max_blocks)

    def stencil3d(batch_size):
        from repro.kernels.stencil3d_ssam import ssam_stencil3d
        return ssam_stencil3d(volume, get_stencil("3d7pt"),
                              batch_size=batch_size,
                              max_blocks=max_blocks)

    def conv1d(batch_size):
        from repro.kernels.conv1d_ssam import ssam_convolve1d
        return ssam_convolve1d(sequence, taps, batch_size=batch_size,
                               max_blocks=max_blocks)

    def scan(batch_size):
        from repro.kernels.scan_ssam import ssam_scan
        return ssam_scan(sequence, batch_size=batch_size,
                         max_blocks=max_blocks)

    shapes = {
        "conv2d": {"domain": list(image.shape), "filter": "gaussian9"},
        "stencil2d": {"domain": list(image.shape), "stencil": "2d9pt"},
        "stencil3d": {"domain": list(volume.shape), "stencil": "3d7pt"},
        "conv1d": {"domain": [int(sequence.size)], "taps": 7},
        "scan": {"domain": [int(sequence.size)]},
    }
    runners = {"conv2d": conv2d, "stencil2d": stencil2d,
               "stencil3d": stencil3d, "conv1d": conv1d, "scan": scan}
    return {name: {"run": runners[name], "max_blocks": max_blocks,
                   **shapes[name]}
            for name in runners}


def _rate(run: Callable, batch_size, repeats: int) -> Dict[str, float]:
    """Best-of-N blocks/s of one engine on one workload."""
    best = float("inf")
    blocks = 0
    for _ in range(repeats):
        start = time.perf_counter()
        result = run(batch_size)
        best = min(best, time.perf_counter() - start)
        blocks = int(result.launch.blocks_executed)
    return {"blocks": blocks, "seconds": round(best, 6),
            "blocks_per_second": round(blocks / best, 1)}


def measure_throughput(quick: bool) -> Dict[str, object]:
    repeats = 1 if quick else 3
    out: Dict[str, object] = {}
    for name, workload in _workloads(quick).items():
        run = workload.pop("run")
        engines: Dict[str, Dict[str, float]] = {}
        engines["batched"] = _rate(run, "auto", repeats)
        cold_start = time.perf_counter()
        cold_result = run("replay")
        cold_seconds = time.perf_counter() - cold_start
        engines["replay_cold"] = {
            "blocks": int(cold_result.launch.blocks_executed),
            "seconds": round(cold_seconds, 6),
            "blocks_per_second": round(
                cold_result.launch.blocks_executed / cold_seconds, 1),
        }
        engines["replay"] = _rate(run, "replay", repeats)
        speedup = (engines["replay"]["blocks_per_second"]
                   / engines["batched"]["blocks_per_second"])
        out[name] = dict(workload)
        out[name]["engines"] = engines
        out[name]["replay_speedup_vs_batched"] = round(speedup, 3)
    return out


def measure_new_architectures(quick: bool) -> Dict[str, object]:
    """blocks/s per registered SSAM kernel x functional engine on A100/H100.

    Driven through the scenario registry, so the PR-8 kernels (higher-order
    and variable-coefficient stencils, the masked stencil, the two-stage
    convolution chain) are covered automatically alongside the paper five.
    """
    from repro.scenarios import ScenarioCase, get_scenario, scenario_names

    engines = ("batched", "replay")
    size = "tiny" if quick else "small"
    out: Dict[str, object] = {}
    for name in scenario_names(role="ssam"):
        scenario = get_scenario(name)
        per_arch: Dict[str, Dict[str, Dict[str, float]]] = {}
        for arch in NEW_ARCHITECTURES:
            per_engine: Dict[str, Dict[str, float]] = {}
            for engine in engines:
                if not scenario.supports(arch, "float32", engine, size):
                    continue
                case = ScenarioCase(name, arch, "float32", engine, size)
                start = time.perf_counter()
                result = scenario.run_case(case)
                seconds = time.perf_counter() - start
                blocks = int(result.launch.blocks_executed)
                per_engine[engine] = {
                    "blocks": blocks,
                    "seconds": round(seconds, 6),
                    "blocks_per_second": round(blocks / seconds, 1),
                }
            per_arch[arch] = per_engine
        out[name] = {"size": size, **per_arch}
    return out


def measure_sweep(quick: bool) -> Dict[str, object]:
    """Cold and warm wall-clock of one sweep matrix through the pipeline."""
    from repro.experiments.cache import SimulationCache
    from repro.experiments.parallel import execute_jobs
    from repro.scenarios import sweep

    matrix = sweep.load_matrix("smoke" if quick else "tier1")
    jobs = sweep.jobs(matrix)
    with tempfile.TemporaryDirectory() as tmp:
        cold_cache = SimulationCache(tmp)
        start = time.perf_counter()
        execute_jobs(jobs, workers=1, cache=cold_cache)
        cold_seconds = time.perf_counter() - start

        warm_cache = SimulationCache(tmp)
        start = time.perf_counter()
        execute_jobs(sweep.jobs(matrix), workers=1, cache=warm_cache)
        warm_seconds = time.perf_counter() - start

    cold_stats = cold_cache.stats()
    warm_stats = warm_cache.stats()

    def hit_rate(stats):
        total = stats["hits"] + stats["misses"]
        return round(stats["hits"] / total, 4) if total else None

    return {
        "matrix": matrix.get("name", "smoke" if quick else "tier1"),
        "jobs": len(jobs),
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "cold_cache": {**cold_stats, "hit_rate": hit_rate(cold_stats)},
        "warm_cache": {**warm_stats, "hit_rate": hit_rate(warm_stats)},
        "warm_speedup": round(cold_seconds / warm_seconds, 2),
    }


def measure_store(quick: bool) -> Dict[str, object]:
    """Results/s into the shared sqlite/WAL store, serial and concurrent.

    Three regimes: serial first-writer upserts (the store-back path of a
    cold sweep), warm lookups (the dedup path of a resubmit), and several
    writer threads publishing disjoint key ranges into one store at once
    (the service worker pool / overlapping CLI runs).  Payload shape
    mirrors a sweep cell's (a small nested mapping with counters).
    """
    import threading

    from repro.service.store import ResultStore

    entries = 200 if quick else 2000
    writer_threads = 4

    def payload_for(i: int) -> Dict[str, object]:
        return {"milliseconds": i * 0.25,
                "counters": {"fma": i * 100.0, "dram_read_bytes": i * 8.0},
                "config": {"block_threads": 128, "outputs_per_thread": 4},
                "label": f"bench-cell-{i}"}

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(str(pathlib.Path(tmp) / "bench.sqlite"),
                            code_version=lambda: "bench")
        start = time.perf_counter()
        for i in range(entries):
            store.upsert({"bench": "serial", "i": i}, payload_for(i),
                         job_key=f"bench:{i}")
        serial_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for i in range(entries):
            store.get({"bench": "serial", "i": i})
        lookup_seconds = time.perf_counter() - start
        store.close()

        concurrent = ResultStore(str(pathlib.Path(tmp) / "bench-mt.sqlite"),
                                 code_version=lambda: "bench")
        share = entries // writer_threads
        barrier = threading.Barrier(writer_threads + 1)

        def write_range(start_i: int) -> None:
            barrier.wait()
            for i in range(start_i, start_i + share):
                concurrent.upsert({"bench": "mt", "i": i}, payload_for(i),
                                  job_key=f"bench:{i}")

        threads = [threading.Thread(target=write_range, args=(t * share,))
                   for t in range(writer_threads)]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        concurrent_seconds = time.perf_counter() - start
        written = concurrent.entry_count()
        concurrent.close()

    return {
        "entries": entries,
        "serial_upserts_per_second": round(entries / serial_seconds, 1),
        "lookups_per_second": round(entries / lookup_seconds, 1),
        "concurrent_writers": writer_threads,
        "concurrent_entries": written,
        "concurrent_upserts_per_second": round(written / concurrent_seconds,
                                               1),
    }


def measure_tuning(quick: bool) -> Dict[str, object]:
    """Guided vs exhaustive search cost, and tuned-config lookup latency.

    The search comparison runs the model stage only (no confirmation) so
    both numbers isolate the quantity the guided strategy actually saves:
    performance-model evaluations.  The lookup benchmark then measures the
    ``best_config`` path a warm planner takes — a single-row sqlite read —
    both uncached (every call hits the database) and through the
    resolver's memoised lookup.
    """
    from repro.core.launch_defaults import (
        clear_lookup_cache,
        lookup_tuned_config,
        tuning_database,
    )
    from repro.experiments.cache import SimulationCache
    from repro.tuning import run_tuning

    if quick:
        cells = dict(scenarios=["conv2d", "stencil2d", "scan"],
                     architectures=["p100", "h100"],
                     precisions=["float32"])
    else:
        cells = {}   # the full 80-cell tune matrix
    out: Dict[str, object] = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = SimulationCache(tmp)
        for search in ("exhaustive", "guided"):
            start = time.perf_counter()
            result = run_tuning(confirm=False, search=search,
                                cache=cache if search == "guided" else None,
                                **cells)
            seconds = time.perf_counter() - start
            evals = result.metadata["evaluations"]
            out[search] = {
                "cells": len(result.measurements),
                "model_evaluations": evals["evaluated"],
                "space_points": evals["space"],
                "seconds": round(seconds, 3),
            }
        out["guided_fraction_of_exhaustive"] = round(
            out["guided"]["model_evaluations"]
            / out["exhaustive"]["model_evaluations"], 4)

        # the guided run above persisted tuned rows into the cache's store
        store = cache.result_store()
        lookups = 200 if quick else 2000
        start = time.perf_counter()
        for _ in range(lookups):
            found = store.best_config("conv2d", "p100", "float32")
        uncached_seconds = time.perf_counter() - start
        assert found is not None, "the guided tune must have written rows"

        with tuning_database(tmp):
            lookup_tuned_config("conv2d", "p100", "float32")  # prime
            start = time.perf_counter()
            for _ in range(lookups):
                lookup_tuned_config("conv2d", "p100", "float32")
            memoised_seconds = time.perf_counter() - start
        clear_lookup_cache()
        out["best_config_lookup"] = {
            "lookups": lookups,
            "store_microseconds": round(1e6 * uncached_seconds / lookups, 2),
            "resolver_memoised_microseconds": round(
                1e6 * memoised_seconds / lookups, 2),
        }
    return out


def measure_analysis(quick: bool) -> Dict[str, object]:
    """Wall-clock of the static verifier per analyzable scenario.

    Each cell runs the full ``analyze`` path: record the replay traces,
    run the interval/race/bounds/lint passes, and cross-check the static
    counter predictions against the dynamic engine.  Quick covers p100
    only; the full artifact covers every supported architecture, matching
    the CI analyze gate.
    """
    import repro.scenarios.builtin  # noqa: F401  (populate the registry)
    from repro.analysis.scenario import (
        ANALYZE_ARCHITECTURES,
        analyze_scenario,
        supports_analysis,
    )
    from repro.scenarios import all_scenarios

    architectures = ("p100",) if quick else ANALYZE_ARCHITECTURES
    scenarios: Dict[str, object] = {}
    total_findings = 0
    total_seconds = 0.0
    for entry in all_scenarios():
        if not supports_analysis(entry):
            continue
        per_arch: Dict[str, Dict[str, object]] = {}
        for arch in architectures:
            if arch not in entry.architectures:
                continue
            start = time.perf_counter()
            analysis = analyze_scenario(entry.name, architecture=arch)
            seconds = time.perf_counter() - start
            per_arch[arch] = {
                "seconds": round(seconds, 6),
                "traces": len(analysis.reports),
                "findings": len(analysis.findings),
                "ok": analysis.ok,
            }
            total_findings += len(analysis.findings)
            total_seconds += seconds
        scenarios[entry.name] = per_arch
    return {
        "architectures": list(architectures),
        "scenarios": scenarios,
        "cells": sum(len(v) for v in scenarios.values()),
        "total_seconds": round(total_seconds, 3),
        "total_findings": total_findings,
    }


def export(quick: bool = False) -> Dict[str, object]:
    throughput = measure_throughput(quick)
    pins = {
        kernel: {
            "min_replay_speedup_vs_batched": minimum,
            "observed": throughput[kernel]["replay_speedup_vs_batched"],
            "ok": throughput[kernel]["replay_speedup_vs_batched"] >= minimum,
        }
        for kernel, minimum in REPLAY_SPEEDUP_PINS.items()
    }
    return {
        "schema": SCHEMA,
        "quick": quick,
        "throughput": throughput,
        "new_architectures": measure_new_architectures(quick),
        "pins": pins,
        "sweep": measure_sweep(quick),
        "store": measure_store(quick),
        "tuning": measure_tuning(quick),
        "analysis": measure_analysis(quick),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Export the per-PR benchmark artifact (BENCH_10.json)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale: small domains, one repetition")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="artifact path (default: BENCH_10.json at the "
                             "repo root)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if a speedup pin is missed "
                             "(full scale only: quick domains are too small "
                             "to pin)")
    args = parser.parse_args(argv)
    payload = export(quick=args.quick)
    output = args.output or str(
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_10.json")
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"wrote {output}")
    for kernel, pin in payload["pins"].items():
        state = "ok" if pin["ok"] else "MISS"
        print(f"  pin {kernel}: replay {pin['observed']}x vs batched "
              f"(needs >= {pin['min_replay_speedup_vs_batched']}x) [{state}]")
    sweep = payload["sweep"]
    print(f"  sweep {sweep['matrix']}: cold {sweep['cold_seconds']}s, "
          f"warm {sweep['warm_seconds']}s "
          f"(hit rate {sweep['warm_cache']['hit_rate']})")
    store = payload["store"]
    print(f"  store: {store['serial_upserts_per_second']} upserts/s serial, "
          f"{store['concurrent_upserts_per_second']} upserts/s with "
          f"{store['concurrent_writers']} writers, "
          f"{store['lookups_per_second']} lookups/s")
    tuning = payload["tuning"]
    print(f"  tuning: guided {tuning['guided']['model_evaluations']} vs "
          f"exhaustive {tuning['exhaustive']['model_evaluations']} model "
          f"evaluations ({tuning['guided_fraction_of_exhaustive']:.0%}), "
          f"best_config "
          f"{tuning['best_config_lookup']['store_microseconds']}us/lookup")
    analysis = payload["analysis"]
    print(f"  analysis: {analysis['cells']} scenario x architecture cells "
          f"verified in {analysis['total_seconds']}s, "
          f"{analysis['total_findings']} finding(s)")
    if args.check and not args.quick:
        if not all(pin["ok"] for pin in payload["pins"].values()):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

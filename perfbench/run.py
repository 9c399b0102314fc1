"""End-to-end and per-layer benchmark of the SSAM simulator.

Usage::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is taken from
``src/`` next to this directory, the metric names and units from
``BENCHMARK.json`` beside it, and every file the benchmark writes goes
under ``.perfbench_work/`` in the checkout.  One run repeats the workload's
program process (a fresh interpreter each time) until ``--seconds`` is
spent, checks every output, prints a human-readable report and, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics, every one for every workload.
Each timed interval is scaled to reference-host seconds by the calibration
runs around it (``calibrate.py``); the report gives the unscaled host
figures beside them.

* ``setup_s``: spawn of the program process until it is ready (runner and
  registry imported and inputs built; for the daemon, ``/health`` answers).
* ``throughput_per_s``: the workload's unit of work per second, the median
  over rounds: sweep cells of a fresh process (sweep-cold), replay-engine
  simulated blocks with the program cached (engine-large) and model
  evaluations (tune-model) of a warm round; for service-mixed, completed
  submit-to-results round trips of one closed-loop client per second of
  its whole session, the median over daemons.
* ``peak_rss_mb``: peak resident set of the program process.

``--trace 1`` alternates untraced and traced program processes; a traced
one runs a single invocation (round 0, plus one warm round for
engine-large).  It reports the per-layer metrics of the traced processes
(see ``layers.py``) in host seconds, the ``sim.*`` simulated statistics,
which must repeat exactly, and ``tracing.overhead``, the traced round 0
over the untraced one, minus one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List

import inputs
from calibrate import calibrate, scale

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
LAUNCHER = os.path.join(BENCH_DIR, "launcher.py")
CONFIG = os.path.join(ROOT, "BENCHMARK.json")

#: seconds one program process may take before the run is abandoned
PROCESS_TIMEOUT = 120.0
#: status-poll interval of the service client (the library client sleeps
#: 0.1 s, coarser than the round trips it would time)
POLL_SECONDS = 0.005
#: share of ``--seconds`` a CLI or engine program process spends in rounds
#: after it is ready: two processes fill a run, each with several rounds
ROUNDS_SHARE = 0.4
#: service requests between two calibrations
SEGMENT_REQUESTS = 10

#: the end-to-end metric each per-layer metric should move, and on which
#: workloads (names and units are in BENCHMARK.json)
MOVES = {
    "experiments.import_s": "setup_s, all workloads",
    "experiments.execute_jobs_s": "throughput_per_s, sweep-cold",
    "experiments.cells": "throughput_per_s, sweep-cold",
    "scenarios.expand_s": "throughput_per_s, sweep-cold and service-mixed",
    "scenarios.run_case_s": "throughput_per_s, sweep-cold and service-mixed",
    "scenarios.assemble_s": "throughput_per_s, sweep-cold and service-mixed",
    "baselines.oracle_s": "throughput_per_s, sweep-cold; absent from engine-large",
    "baselines.oracle_calls": "throughput_per_s, sweep-cold",
    "core.plan_s": "throughput_per_s, sweep-cold and tune-model",
    "core.plan_calls": "throughput_per_s, sweep-cold and tune-model",
    "core.model_s": "throughput_per_s, tune-model only",
    "core.model_calls": "throughput_per_s, tune-model only",
    "gpu.launch_s": "batched_blocks_per_s, engine-large >> sweep-cold",
    "gpu.blocks": "batched_blocks_per_s, engine-large",
    "trace.record_s": "throughput_per_s, sweep-cold; replay_cold_s, engine-large; not engine-large throughput_per_s",
    "trace.records": "as trace.record_s",
    "trace.compile_s": "as trace.record_s",
    "trace.compiles": "as trace.record_s",
    "trace.replay_s": "throughput_per_s, engine-large >> sweep-cold",
    "trace.launches": "throughput_per_s, engine-large",
    "trace.program_reuse": "throughput_per_s, engine-large",
    "trace.fallbacks": "throughput_per_s, engine-large; must stay 0",
    "service.store.lookup_s": "throughput_per_s, service-mixed and sweep-cold",
    "service.store.lookups": "throughput_per_s, service-mixed and sweep-cold",
    "service.store.hit_ratio": "throughput_per_s, service-mixed",
    "service.store.upsert_s": "throughput_per_s, service-mixed and sweep-cold",
    "service.store.upserts": "throughput_per_s, service-mixed and sweep-cold",
    "service.store.claim_s": "throughput_per_s, service-mixed and sweep-cold",
    "service.store.claims": "throughput_per_s, service-mixed and sweep-cold",
    "service.store.claim_wait_s": "throughput_per_s, service-mixed",
    "service.submit_s": "throughput_per_s, service-mixed only",
    "service.queue_wait_s": "throughput_per_s, service-mixed only",
    "service.http_s": "throughput_per_s, service-mixed only",
    "tuning.search_s": "throughput_per_s, tune-model only",
    "tuning.evals": "throughput_per_s, tune-model only",
    "sim.blocks": "none: identical for any simulator-only change",
    "sim.fma": "none: identical for any simulator-only change",
    "sim.shfl": "none: identical for any simulator-only change",
    "sim.dram_bytes": "none: identical for any simulator-only change",
    "sim.model_ms": "none: identical for any simulator-only change",
    "tracing.overhead": "traced round 0 / untraced round 0 - 1",
}
SIM_KEYS = ("sim.blocks", "sim.fma", "sim.shfl", "sim.dram_bytes",
            "sim.model_ms")


class RunFailed(RuntimeError):
    """The program could not be run or measured at all."""


def load_units():
    """``(end-to-end, per-layer)`` metric name -> unit, from BENCHMARK.json."""
    with open(CONFIG, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in config[key]}
                 for key in ("end_to_end", "per_layer"))


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # keep every default location the program might touch inside the work
    # directory, and no ambient tuning database
    env["SSAM_REPRO_CACHE_DIR"] = os.path.join(WORK, "default-cache")
    env["XDG_CACHE_HOME"] = os.path.join(WORK, "xdg")
    env.pop("SSAM_TUNED_DB", None)
    return env


def _sim_totals(rows) -> Dict[str, float]:
    """Simulated statistics summed over counter mappings."""
    totals = dict.fromkeys(SIM_KEYS, 0.0)
    for counters, ms in rows:
        if counters:
            totals["sim.blocks"] += counters.get("blocks_executed", 0)
            totals["sim.fma"] += counters.get("fma", 0)
            totals["sim.shfl"] += counters.get("shfl", 0)
            totals["sim.dram_bytes"] += (counters.get("dram_read_bytes", 0)
                                         + counters.get("dram_write_bytes", 0))
        totals["sim.model_ms"] += ms or 0.0
    return totals


def _check_rows(measurements, seen) -> int:
    """Failed sweep rows: oracle error, replay fallback, engine disagreement.

    Rows of the same cell under the batched and the replay engine must
    agree on output digest and counters, and so must a row and any earlier
    row of that cell recorded in ``seen`` (a mapping kept by the caller).
    """
    failed = 0
    for m in measurements:
        extra = m["extra"]
        error = extra.get("oracle_max_abs_error")
        bad = (extra.get("replay_fallback")
               or (error is not None
                   and error > inputs.ORACLE_TOLERANCE[extra["precision"]]))
        cell = (m["kernel"], m["architecture"], extra["precision"],
                extra["size"], json.dumps(m.get("config"), sort_keys=True))
        outcome = (extra.get("output_digest"), m.get("counters"))
        if seen.setdefault(cell, outcome) != outcome:
            bad = True
        failed += bool(bad)
    return failed


def _interval(seconds: float, before: float, after: float,
              units: float = 0.0) -> Dict[str, float]:
    """One timed interval: host seconds, the factor to reference-host
    seconds from the calibrations around it, and the work done in it."""
    return {"seconds": seconds, "factor": scale(before, after), "units": units}


class Program:
    """Spawns, times and collects one launcher process."""

    def __init__(self, directory: str, request: Dict[str, object]) -> None:
        os.makedirs(directory, exist_ok=True)
        self.result_path = os.path.join(directory, "result.json")
        request = dict(request, result=self.result_path)
        request_path = os.path.join(directory, "request.json")
        with open(request_path, "w", encoding="utf-8") as handle:
            json.dump(request, handle)
        self.log = open(os.path.join(directory, "output.txt"), "wb")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCHER, request_path], cwd=ROOT, env=_env(),
            stdout=self.log, stderr=subprocess.STDOUT)

    def wait(self, timeout: float = PROCESS_TIMEOUT) -> Dict[str, object]:
        try:
            code = self.proc.wait(timeout=timeout)
        finally:
            self.stop()
        if code != 0 or not os.path.exists(self.result_path):
            raise RunFailed(f"program process exited with code {code}; see "
                            f"{self.log.name}")
        with open(self.result_path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
        if result.get("exit_code", 0) != 0:
            raise RunFailed(f"program returned {result['exit_code']}")
        return result

    def stop(self) -> None:
        """Kill the process if it still runs and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


# ----------------------------------------------------------------- workloads

class Workload:
    """One repetition = one program process; subclasses define the work.

    A repetition returns the timed intervals (``setup``, ``cold`` for round
    0 and ``rounds`` for the warm rounds; see :func:`_interval`), the
    outcome counts and ``sims``, the simulated statistics of each checked
    output, which must all be equal.
    """

    name = ""
    #: rounds of a traced program process
    traced_rounds = 1

    def __init__(self, seed: int, directory: str, seconds: float) -> None:
        self.seed = seed
        self.directory = directory
        self.seconds = seconds

    def rep(self, index: int, trace: bool, plant=None) -> Dict[str, object]:
        raise NotImplementedError

    def rounds(self, trace: bool) -> Dict[str, object]:
        if trace:
            return {"budget_s": 0.0, "min_rounds": self.traced_rounds,
                    "max_rounds": self.traced_rounds}
        return {"budget_s": ROUNDS_SHARE * self.seconds, "min_rounds": 2,
                "max_rounds": 1000}

    def report(self, reps: List[Dict[str, object]]) -> List[str]:
        """Workload-specific lines of the human-readable report."""
        return []


def _spawn(directory: str, request: Dict[str, object]):
    """Run one launcher process with rounds; returns its result with the
    ``setup`` and per-round intervals (round 0 first)."""
    before = calibrate()
    program = Program(directory, request)
    result = program.wait()
    calibrations = result["calibrations"]
    result["setup"] = _interval(result["ready"] - program.spawned, before,
                                calibrations[0])
    result["intervals"] = [
        _interval(r["seconds"], a, b)
        for r, a, b in zip(result["rounds"], calibrations, calibrations[1:])]
    return result


class CliWorkload(Workload):
    """A fresh interpreter runs ``runner.main(argv)`` once per round; round
    ``i`` writes under ``round<i>`` of the repetition's directory.

    With ``warm`` false a process runs round 0 only, and that round is the
    one timed for throughput.
    """

    imports: List[str] = []
    warm = True

    def rounds(self, trace):
        if self.warm:
            return super().rounds(trace)
        return {"budget_s": 0.0, "min_rounds": 1, "max_rounds": 1}

    def argv(self, directory: str) -> List[str]:
        raise NotImplementedError

    def check(self, directory: str, seen) -> Dict[str, object]:
        """``units``, ``attempted``, ``failed`` and ``sim`` of one round."""
        raise NotImplementedError

    def rep(self, index, trace, plant=None):
        directory = os.path.join(self.directory, f"rep{index}")
        result = _spawn(directory, {
            "mode": "cli", "argv": self.argv(directory),
            "imports": self.imports, "trace": trace, "plant": plant,
            **self.rounds(trace)})
        codes = [r["exit_code"] for r in result["rounds"]]
        if any(codes):
            raise RunFailed(f"program returned {codes} in its rounds")
        seen: Dict[tuple, tuple] = {}
        checks = [self.check(os.path.join(directory, f"round{i}"), seen)
                  for i in range(len(result["rounds"]))]
        for interval, check in zip(result["intervals"], checks):
            interval["units"] = check["units"]
        intervals = result["intervals"]
        result.update(
            cold=intervals[0], rounds=intervals[1:] if self.warm else intervals,
            attempted=sum(c["attempted"] for c in checks),
            failed=sum(c["failed"] for c in checks),
            sims=[c["sim"] for c in checks])
        return result


class SweepCold(CliWorkload):
    """320 new cells through the CLI sweep on an empty store, one sweep per
    fresh process."""

    name = "sweep-cold"
    imports = ["repro.scenarios.sweep"]
    # a second sweep in the same process would find round 0's recorded
    # traces in the program's in-memory plan cache and record none, so
    # the cells would no longer be new
    warm = False

    def argv(self, directory):
        os.makedirs(directory, exist_ok=True)
        matrix_path = os.path.join(directory, "matrix.json")
        with open(matrix_path, "w", encoding="utf-8") as handle:
            json.dump(inputs.sweep_matrix(self.seed), handle)
        return ["--experiment", "sweep", "--matrix", matrix_path,
                "--cache-dir", os.path.join(directory, "round{round}", "cache"),
                "--jobs", "1",
                "--output-dir", os.path.join(directory, "round{round}")]

    def check(self, directory, seen):
        with open(os.path.join(directory, "sweep.json")) as handle:
            rows = json.load(handle)["measurements"]
        failed = _check_rows(rows, seen) + abs(len(rows) - inputs.SWEEP_CELLS)
        return {"units": len(rows), "attempted": inputs.SWEEP_CELLS,
                "failed": min(failed, inputs.SWEEP_CELLS),
                "sim": _sim_totals((m["counters"], m["milliseconds"])
                                   for m in rows)}


class TuneModel(CliWorkload):
    """The exhaustive closed-form explore stage of the launch tuner."""

    name = "tune-model"
    imports = ["repro.tuning"]

    def argv(self, directory):
        return inputs.TUNE_ARGV + ["--output-dir",
                                   os.path.join(directory, "round{round}")]

    def check(self, directory, seen):
        with open(os.path.join(directory, "tune.json")) as handle:
            result = json.load(handle)
        rows = result["measurements"]
        evaluations = sum(cell["evaluated"] for cell in
                          result["metadata"]["evaluations"]["cells"].values())
        # exhaustive search sees the paper default, so it never loses to it
        failed = sum(1 for m in rows
                     if not 0 < m["extra"]["best_model_ms"]
                     <= m["extra"]["default_model_ms"])
        return {"units": evaluations, "attempted": max(len(rows), 1),
                "failed": failed + (not rows),
                "sim": _sim_totals((None, m["extra"]["best_model_ms"])
                                   for m in rows)}


class EngineLarge(Workload):
    """Cold and warm launches of the five paper kernels on large inputs."""

    name = "engine-large"
    traced_rounds = 2

    def rep(self, index, trace, plant=None):
        result = _spawn(os.path.join(self.directory, f"rep{index}"), {
            "mode": "engine", "trace": trace, "plant": plant,
            "seed": self.seed, "kernels": inputs.ENGINE_KERNELS,
            "max_blocks": inputs.ENGINE_MAX_BLOCKS, **self.rounds(trace)})
        engine = result["engine"]
        warm = list(zip(result["rounds"][1:], result["intervals"][1:]))
        result.update(
            cold=result["intervals"][0],
            rounds=[dict(i, seconds=r["replay"], units=engine["blocks"])
                    for r, i in warm],
            batched=[dict(i, seconds=r["batched"], units=engine["blocks"])
                     for r, i in warm],
            attempted=engine["launches"],
            failed=min(engine["mismatches"] + engine["fallbacks"],
                       engine["launches"]),
            sims=[_sim_totals(engine["cold"])])
        return result

    def report(self, reps):
        return [
            _line("batched_blocks_per_s",
                  _rates([i for r in reps for i in r["batched"]]), "blocks/s"),
            _line("replay_cold_s", _seconds([r["cold"] for r in reps]), "s"),
        ]


class ServiceMixed(Workload):
    """A fresh daemon per repetition and one closed-loop HTTP client."""

    name = "service-mixed"

    def rep(self, index, trace, plant=None):
        directory = os.path.join(self.directory, f"rep{index}")
        cache_dir = os.path.join(directory, "cache")
        before = calibrate()
        program = Program(directory, {
            "mode": "serve", "trace": trace, "plant": plant,
            "argv": ["--experiment", "serve", "--port", "0", "-j", "2",
                     "--cache-dir", cache_dir]})
        try:
            url = self._await_health(program, cache_dir)
            ready = time.monotonic()
            after = calibrate()
            session = self._session(url, after)
            program.proc.send_signal(signal.SIGTERM)
            result = program.wait(timeout=30.0)
        finally:
            program.stop()
        result.update(session)
        result["setup"] = _interval(ready - program.spawned, before, after)
        if trace:
            result["layers"]["service.http_s"] = (
                session["client_http_s"] - result["service_core_s"])
        return result

    @staticmethod
    def _await_health(program: Program, cache_dir: str) -> str:
        endpoint = os.path.join(cache_dir, "daemon.json")
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if program.proc.poll() is not None:
                raise RunFailed("daemon exited during start-up")
            try:
                with open(endpoint, "r", encoding="utf-8") as handle:
                    url = json.load(handle)["url"]
                if _call(url, "GET", "/health")[1].get("status") == "ok":
                    return url
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(POLL_SECONDS)
        raise RunFailed("daemon did not answer /health within 60 s")

    def _session(self, url: str, calibration: float) -> Dict[str, object]:
        """Send the seeded requests in segments of ``SEGMENT_REQUESTS``,
        calibrating after each segment, which scales the segment's time and
        latencies.  Only completed requests count as work done; a failed
        request adds no latency."""
        requests = inputs.service_requests(self.seed)
        segments, latencies, sim_rows = [], [], []
        client_http_s = 0.0
        failed = 0
        seen: Dict[tuple, tuple] = {}
        for first in range(0, len(requests), SEGMENT_REQUESTS):
            start = time.monotonic()
            done = []
            for matrix in requests[first:first + SEGMENT_REQUESTS]:
                sent = time.monotonic()
                try:
                    seconds, rows = self._round_trip(url, matrix)
                except (OSError, ValueError, KeyError):
                    failed += 1
                    continue
                client_http_s += seconds
                if len(rows) != 2 or _check_rows(rows, seen):
                    failed += 1
                    continue
                done.append(time.monotonic() - sent)
                sim_rows.extend((m["counters"], m["milliseconds"])
                                for m in rows)
            seconds = time.monotonic() - start
            after = calibrate()
            segment = _interval(seconds, calibration, after, len(done))
            segments.append(segment)
            latencies.extend(dict(segment, seconds=s, units=1) for s in done)
            calibration = after
        # the session is the round: its segments differ in their mix of new
        # and repeated cells, so only the whole session has a fixed mix
        host = sum(_seconds(segments, host=True))
        session = {"seconds": host, "factor": sum(_seconds(segments)) / host,
                   "units": sum(s["units"] for s in segments)}
        return {"rounds": [session], "latencies": latencies, "cold": session,
                "client_http_s": client_http_s, "attempted": len(requests),
                "failed": failed, "sims": [_sim_totals(sim_rows)]}

    @staticmethod
    def _round_trip(url: str, matrix):
        """Submit one sweep and poll its results; returns the client's HTTP
        seconds and the result rows."""
        seconds, run = _call(url, "POST", "/sweeps",
                             {"matrix": matrix, "priority": 0})
        sent = time.monotonic()
        # the results endpoint answers a status body (HTTP 202) until the
        # run is done
        while True:
            took, results = _call(url, "GET", f"/runs/{run['run_id']}/results")
            seconds += took
            if "measurements" in results:
                return seconds, results["measurements"]
            if time.monotonic() - sent > PROCESS_TIMEOUT:
                raise OSError(f"run {run['run_id']} never finished")
            time.sleep(POLL_SECONDS)

    def report(self, reps):
        latencies = [i for r in reps for i in r["latencies"]]
        scaled = _seconds(latencies)
        p90 = _percentile(scaled, 90)
        beyond = sum(1 for x in scaled if x > p90)
        return [
            _line("latency_p50_s", scaled, "s"),
            f"latency_p90_s {p90:.6g} s  (host "
            f"{_percentile(_seconds(latencies, host=True), 90):.6g}; "
            f"n={len(scaled)}, {beyond} beyond p90)",
        ]


WORKLOADS = {cls.name: cls for cls in (SweepCold, EngineLarge, ServiceMixed,
                                        TuneModel)}


# ------------------------------------------------------------------- helpers

def _call(url: str, method: str, path: str, body=None):
    """One JSON request on a new connection, as the library client makes
    it; returns ``(seconds, decoded body)``."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url + path, data=data, method=method,
        headers={"Content-Type": "application/json"})
    start = time.monotonic()
    try:
        with urllib.request.urlopen(request, timeout=60.0) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        raise OSError(f"{method} {path} failed with {exc.code}") from exc
    return time.monotonic() - start, payload


def _seconds(intervals, host: bool = False) -> List[float]:
    """Reference-host (or, with ``host``, host) seconds of intervals."""
    return [i["seconds"] * (1.0 if host else i["factor"]) for i in intervals]


def _rates(intervals, host: bool = False) -> List[float]:
    """Units per reference-host (or host) second of intervals."""
    return [i["units"] / s for i, s in zip(intervals, _seconds(intervals, host))]


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _line(name: str, values: List[float], unit: str) -> str:
    return (f"{name} {statistics.median(values):.6g} {unit}  "
            f"(median of {len(values)})")


def _warm_up() -> None:
    """Compile the program's bytecode once, outside every timed process."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(SRC, "repro"), BENCH_DIR],
                   cwd=ROOT, env=_env(), check=True, timeout=PROCESS_TIMEOUT,
                   stdout=subprocess.DEVNULL)


def _end_to_end(reps, host: bool = False) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(
            _seconds([r["setup"] for r in reps], host)),
        "throughput_per_s": statistics.median(
            _rates([i for r in reps for i in r["rounds"]], host)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def _layer_metrics(rep: Dict[str, object], names) -> Dict[str, float]:
    layers = dict(rep["layers"])
    out = {name: float(layers.get(name, 0.0)) for name in names}
    out["experiments.import_s"] = rep["import_s"]
    compiles = layers.get("trace.compiles", 0)
    out["trace.program_reuse"] = (layers.get("trace.launches", 0) / compiles
                                  if compiles else 0.0)
    lookups = layers.get("service.store.lookups", 0)
    out["service.store.hit_ratio"] = (layers.get("service.store.hits", 0)
                                      / lookups if lookups else 0.0)
    out.update(rep["sims"][0])
    return out


def measure(workload: Workload, seconds: float, trace: bool, plant=None):
    """Repeat the workload until ``seconds`` are spent; returns the reps.

    A repetition starts only if it is expected to end within ``seconds``
    (judged by the longest one so far), or while fewer than two are done.
    With ``trace`` the repetitions alternate untraced and traced.
    """
    start = time.monotonic()
    reps: List[Dict[str, object]] = []
    longest = 0.0
    while len(reps) < 2 or time.monotonic() - start + longest <= seconds:
        began = time.monotonic()
        traced = trace and len(reps) % 2 == 1
        rep = workload.rep(len(reps), traced, plant)
        rep["traced"] = traced
        reps.append(rep)
        longest = max(longest, time.monotonic() - began)
    return reps


def summarise(workload: Workload, reps, trace: bool):
    """``(report lines, metrics, attempted, failed)`` of one run."""
    end_units, layer_units = load_units()
    plain = [r for r in reps if not r["traced"]]
    rounds = sum(len(r["rounds"]) for r in plain)
    lines = [f"workload {workload.name}: {len(reps)} program processes, "
             f"{rounds} timed rounds; times scaled to the reference host "
             f"(unscaled host figures in brackets)"]
    end_to_end = _end_to_end(plain)
    host = _end_to_end(plain, host=True)
    for name, unit in end_units.items():
        lines.append(f"{name} {end_to_end[name]:.6g} {unit}  "
                     f"(host {host[name]:.6g})")
    wall = [s + c for s, c in zip(_seconds([r["setup"] for r in plain]),
                                  _seconds([r["cold"] for r in plain]))]
    lines.append(_line("wall_s", wall, "s")
                 + "  set-up plus round 0: one invocation")
    lines.extend(workload.report(plain))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # simulated statistics are deterministic: every output must agree
    sims = {json.dumps(s, sort_keys=True) for r in reps for s in r["sims"]}
    if len(sims) > 1:
        failed = max(failed, 1)
        lines.append("sim.* totals differ between outputs")
    lines.append(f"failed_frac {failed / attempted:.6g} ratio  "
                 f"({failed} of {attempted})")
    if not trace:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in end_units.items()}
        return lines, metrics, attempted, failed
    traced = [r for r in reps if r["traced"]]
    per_rep = [_layer_metrics(r, layer_units) for r in traced]
    layer_values = {name: statistics.median(t[name] for t in per_rep)
                    for name in layer_units}
    layer_values["tracing.overhead"] = (
        statistics.median(_seconds([r["cold"] for r in traced]))
        / statistics.median(_seconds([r["cold"] for r in plain])) - 1.0)
    for name, unit in layer_units.items():
        lines.append(f"  {name} {layer_values[name]:.6g} {unit}  -> "
                     f"{MOVES.get(name, '')}")
    metrics = {name: {"value": layer_values[name], "unit": unit}
               for name, unit in layer_units.items()}
    return lines, metrics, attempted, failed


def run(name: str, seed: int, seconds: float, trace: bool, plant=None):
    """Measure one workload; returns ``(report lines, result object)``."""
    directory = os.path.join(WORK, name)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    workload = WORKLOADS[name](seed, directory, seconds)
    _warm_up()
    reps = measure(workload, seconds, trace, plant)
    lines, metrics, attempted, failed = summarise(workload, reps, trace)
    return lines, {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for required in (os.path.join(SRC, "repro", "__init__.py"), CONFIG):
        if not os.path.isfile(required):
            print(f"missing {required}", file=sys.stderr)
            return 2
    try:
        lines, result = run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except (RunFailed, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

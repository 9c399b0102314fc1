"""Program process of one benchmark repetition.

Usage: ``python3 perfbench/launcher.py REQUEST.json``.  The request names
the mode (``cli``, ``serve`` or ``engine``), the arguments and where to
write the result.  The launcher imports the program, marks itself ready,
runs the work and writes one JSON result: the ready time on the
system-wide monotonic clock (comparable with the generator's spawn time),
the import time, the peak RSS of this process (outside calibration runs)
and, when traced, the per-layer summary.

The ``cli`` and ``engine`` modes run the work in rounds: round 0 is what a
single invocation does in a fresh process, later rounds repeat it in the
warm process until the request's time budget is spent.  A calibration run
(``calibrate.py``) follows ready and every round, so the generator can scale
each round to reference-host seconds.

The CLI modes call ``repro.experiments.runner.main(argv)`` directly: no
``ssam-repro`` console script is installed from this source tree, and
``python -m repro.experiments.runner`` warns about the runpy double import.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import signal
import sys
import time

#: layers the engine workload exercises; wrapping the others would import
#: the runner stack (and scipy) into a process that never uses it
ENGINE_LAYER_PREFIXES = ("repro.gpu", "repro.trace", "repro.core")


def _digest(array) -> str:
    return hashlib.sha1(array.tobytes()).hexdigest()[:16]


def _engine_inputs(request):
    """Seeded arrays and one callable per pinned kernel."""
    import numpy as np

    from repro import ConvolutionSpec
    from repro.kernels.conv1d_ssam import ssam_convolve1d
    from repro.kernels.conv2d_ssam import ssam_convolve2d
    from repro.kernels.scan_ssam import ssam_scan
    from repro.kernels.stencil2d_ssam import ssam_stencil2d
    from repro.kernels.stencil3d_ssam import ssam_stencil3d
    from repro.stencils.catalog import get_stencil

    rng = np.random.default_rng(request["seed"])
    max_blocks = request["max_blocks"]
    launches = []
    for entry in request["kernels"]:
        data = rng.random(tuple(entry["shape"]), dtype=np.float32)
        kind = entry["kernel"]
        if kind == "conv2d":
            spec = ConvolutionSpec.gaussian(entry["filter"])
            fn = (lambda bs, d=data, s=spec: ssam_convolve2d(
                d, s, max_blocks=max_blocks, batch_size=bs, keep_output=True))
        elif kind == "stencil2d":
            spec = get_stencil(entry["stencil"])
            fn = (lambda bs, d=data, s=spec: ssam_stencil2d(
                d, s, max_blocks=max_blocks, batch_size=bs, keep_output=True))
        elif kind == "stencil3d":
            spec = get_stencil(entry["stencil"])
            fn = (lambda bs, d=data, s=spec: ssam_stencil3d(
                d, s, max_blocks=max_blocks, batch_size=bs, keep_output=True))
        elif kind == "conv1d":
            taps = rng.random(entry["taps"])
            fn = (lambda bs, d=data, t=taps: ssam_convolve1d(
                d, t, max_blocks=max_blocks, batch_size=bs, keep_output=True))
        elif kind == "scan":
            fn = (lambda bs, d=data: ssam_scan(
                d, max_blocks=max_blocks, batch_size=bs, keep_output=True))
        else:
            raise ValueError(f"unknown engine kernel {kind!r}")
        launches.append((entry["name"], fn))
    return launches


class EngineRounds:
    """Round 0 launches every kernel once under replay (record + compile +
    run); each later round launches every kernel once batched and once
    under replay with the program cached.

    Every launch of a kernel must produce the output digest and counters of
    its round-0 launch; mismatches are counted.
    """

    def __init__(self, launches) -> None:
        self.launches = launches
        self.blocks = {}
        self.cold = []
        self.reference = {}
        self.launched = 0
        self.mismatches = 0

    def __call__(self, index: int) -> dict:
        if index == 0:
            seconds = 0.0
            for name, fn in self.launches:
                start = time.perf_counter()
                result = fn("replay")
                seconds += time.perf_counter() - start
                counters = result.launch.counters.as_dict()
                self.reference[name] = (_digest(result.output), counters)
                self.blocks[name] = result.launch.blocks_executed
                self.cold.append((counters, result.milliseconds))
                self.launched += 1
            return {"seconds": seconds}
        legs = {"batched": 0.0, "replay": 0.0}
        for engine, batch_size in (("batched", "auto"), ("replay", "replay")):
            for name, fn in self.launches:
                start = time.perf_counter()
                result = fn(batch_size)
                legs[engine] += time.perf_counter() - start
                self.launched += 1
                if (_digest(result.output), result.launch.counters.as_dict(),
                        ) != self.reference[name]:
                    self.mismatches += 1
        return {"seconds": legs["batched"] + legs["replay"], **legs}

    def summary(self) -> dict:
        from repro.trace.replay import fallback_log

        return {"blocks": sum(self.blocks.values()), "cold": self.cold,
                "launches": self.launched, "mismatches": self.mismatches,
                "fallbacks": len(fallback_log())}


class PeakRss:
    """Peak resident set of this process, in MB, outside calibration runs.

    The calibration allocates arrays of its own; the kernel's high-water
    mark is read before each calibration and reset to the current resident
    set after it (``/proc/self/clear_refs``), so they never count.
    """

    def __init__(self) -> None:
        self.peak_mb = 0.0

    def read(self) -> float:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    self.peak_mb = max(self.peak_mb, int(line.split()[1]) / 1024)
        return self.peak_mb

    def calibrate(self) -> float:
        # imported here, not at the top: NumPy must load inside the timed
        # import of the program
        from calibrate import calibrate

        self.read()
        seconds = calibrate()
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return seconds


def run_rounds(work, peak: PeakRss, budget_s: float, min_rounds: int,
               max_rounds: int):
    """Call ``work(index)`` for rounds 0, 1, ... and calibrate after each.

    Another round starts while fewer than ``min_rounds`` ran, or while
    fewer than ``max_rounds`` ran and the last round's length still fits
    into ``budget_s``.  Returns the rounds (each with its host ``seconds``)
    and the calibrations, one more than rounds: the first is taken before
    round 0.
    """
    calibrations = [peak.calibrate()]
    rounds = []
    start = time.monotonic()
    while len(rounds) < min_rounds or (
            len(rounds) < max_rounds
            and time.monotonic() - start + rounds[-1]["seconds"] <= budget_s):
        rounds.append(work(len(rounds)))
        calibrations.append(peak.calibrate())
    return rounds, calibrations


def _cli_round(argv):
    from repro.experiments.runner import main as runner_main

    def work(index: int) -> dict:
        start = time.perf_counter()
        code = runner_main([arg.replace("{round}", str(index))
                            for arg in argv])
        return {"seconds": time.perf_counter() - start, "exit_code": code}

    return work


def main(request_path: str) -> int:
    with open(request_path, "r", encoding="utf-8") as handle:
        request = json.load(handle)
    mode = request["mode"]
    start = time.perf_counter()
    if mode == "engine":
        importlib.import_module("repro.kernels")
    else:
        importlib.import_module("repro.experiments.runner")
    for name in request.get("imports", []):
        importlib.import_module(name)
    import_s = time.perf_counter() - start

    collector = None
    if request.get("plant") or request["trace"]:
        import layers

        if request.get("plant"):
            layers.plant_delay(request["plant"]["target"],
                               request["plant"]["seconds"])
        if request["trace"]:
            collector = layers.Collector()
            layers.install(collector, prefixes=(
                ENGINE_LAYER_PREFIXES if mode == "engine" else None))

    engine = EngineRounds(_engine_inputs(request)) if mode == "engine" else None
    result = {"ready": time.monotonic(), "import_s": import_s}
    peak = PeakRss()

    def finish() -> None:
        result["peak_rss_mb"] = peak.read()
        if collector is not None:
            result["layers"] = collector.summary()
            result["service_core_s"] = collector.inclusive(
                {"service.submit", "service.status", "service.results"})
        with open(request["result"], "w", encoding="utf-8") as handle:
            json.dump(result, handle)

    if mode == "serve":
        from repro.experiments.runner import main as runner_main

        # the generator ends the daemon with SIGTERM once its session is
        # done; the daemon's own shutdown is not measured, so the process
        # leaves right after writing the result
        def on_term(signum, frame):
            finish()
            os._exit(0)

        signal.signal(signal.SIGTERM, on_term)
        result["exit_code"] = runner_main(request["argv"])
    else:
        work = engine if engine is not None else _cli_round(request["argv"])
        result["rounds"], result["calibrations"] = run_rounds(
            work, peak, request["budget_s"], request["min_rounds"],
            request["max_rounds"])
        if engine is not None:
            result["engine"] = engine.summary()
    finish()
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

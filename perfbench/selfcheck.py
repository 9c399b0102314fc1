"""Self-check of the layer map with a planted delay.

Usage::

    python3 perfbench/selfcheck.py [--seed 1] [--write perfbench/baseline.json]

Every call of ``repro.trace.replay.record_trace`` is made to sleep
``DELAY_S`` seconds first, from the launcher (the program's source is not
touched).  The check passes when the benchmark shows the planted cost where
the layer map predicts it and nowhere else:

* ``trace.record_s`` on sweep-cold grows by about records x delay;
* sweep-cold ``throughput_per_s`` (cells/s) drops by more than its bound;
* engine-large ``throughput_per_s`` (warm replay blocks/s) stays within
  its bound, because warm replay launches never record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run

TARGET = "repro.trace.replay:record_trace"
#: seconds slept before every call of TARGET
DELAY_S = 0.02


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--write", default=None, metavar="PATH",
                        help="add the outcome to this JSON record")
    args = parser.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    bound = next(m["bound"] for m in config["end_to_end"]
                 if m["name"] == "throughput_per_s")
    seconds = config["run_seconds"]
    plant = {"target": TARGET, "seconds": DELAY_S}

    def metrics(workload, trace, planted):
        _lines, result = run.run(workload, args.seed, seconds, trace,
                                 plant if planted else None)
        if not result["correct"]:
            raise SystemExit(f"{workload} produced incorrect output")
        return {name: m["value"] for name, m in result["metrics"].items()}

    figures = {}
    for planted in (False, True):
        layers = metrics("sweep-cold", True, planted)
        figures["planted" if planted else "base"] = {
            "sweep-cold trace.record_s": layers["trace.record_s"],
            "sweep-cold trace.records": layers["trace.records"],
            "sweep-cold throughput_per_s": metrics(
                "sweep-cold", False, planted)["throughput_per_s"],
            "engine-large throughput_per_s": metrics(
                "engine-large", False, planted)["throughput_per_s"],
        }
    base, planted = figures["base"], figures["planted"]
    expected = planted["sweep-cold trace.records"] * DELAY_S
    grown = (planted["sweep-cold trace.record_s"]
             - base["sweep-cold trace.record_s"])
    cells = (planted["sweep-cold throughput_per_s"]
             / base["sweep-cold throughput_per_s"])
    blocks = (planted["engine-large throughput_per_s"]
              / base["engine-large throughput_per_s"])
    checks = {
        "trace.record_s grows by records x delay":
            0.8 * expected <= grown <= 1.5 * expected,
        "sweep-cold cells/s drops by more than its bound": cells < 1 - bound,
        "engine-large replay blocks/s within its bound":
            abs(blocks - 1) <= bound,
    }
    outcome = {"target": TARGET, "delay_s": DELAY_S, "seed": args.seed,
               "figures": figures, "record_s_growth": grown,
               "record_s_expected": expected, "cells_ratio": cells,
               "replay_blocks_ratio": blocks, "checks": checks}
    print(json.dumps(outcome, indent=2))
    if args.write:
        with open(args.write, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        record["selfcheck"] = outcome
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Repeat benchmark runs over several seeds and report their spread.

Usage::

    python3 perfbench/prove.py --seeds 1-10 [--workloads sweep-cold,tune-model]
                               [--write perfbench/baseline.json]

Each run is ``run.py`` in its own process, exactly as a single benchmark
run.  For every end-to-end metric the report gives the median of the runs
and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  A spread at or above a third
of the bound is flagged, except for ``setup_s``.  ``--write`` records the
figures with the machine they were measured on under ``sets`` and the
seed range, so separate sets of runs sit side by side, replacing the
entries of the workloads measured and keeping everything else in the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _machine():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform()}


def run_once(config, workload: str, seed: int):
    command = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload)")
    parser.add_argument("--write", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in config["workloads"]])
    seeds = _seeds(args.seeds)
    workloads = {}
    steady = True
    for name in names:
        results = [run_once(config, name, seed) for seed in seeds]
        why = next((w["why"] for w in config["workloads"]
                    if w["name"] == name), None)
        entry = {"why": why, "seeds": seeds,
                 "run_seconds": config["run_seconds"],
                 "correct": all(r["correct"] for r in results),
                 "metrics": {}}
        for metric in config["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flagged = (metric["name"] != "setup_s"
                       and spread >= metric["bound"] / 3)
            steady &= not flagged
            entry["metrics"][metric["name"]] = {
                "median": median, "spread": spread, "bound": metric["bound"],
                "unit": metric["unit"], "values": values}
            print(f"{name:14} {metric['name']:17} median {median:12.6g} "
                  f"spread {spread:7.4f} bound {metric['bound']:.2f}"
                  f"{'  <-- not steady' if flagged else ''}", flush=True)
        steady &= entry["correct"]
        workloads[name] = entry
    if args.write:
        record = {}
        if os.path.exists(args.write):
            with open(args.write, encoding="utf-8") as handle:
                record = json.load(handle)
        sets = record.setdefault("sets", {})
        previous = sets.get(args.seeds, {}).get("workloads", {})
        sets[args.seeds] = {"machine": _machine(),
                            "workloads": {**previous, **workloads}}
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

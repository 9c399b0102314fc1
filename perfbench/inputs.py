"""Pinned workload inputs of the benchmark.

Every input is spelled out here rather than named through a preset of the
program (``--matrix tier1`` and friends), so a change to a preset can never
shrink or grow a workload without this file changing too.  The seed only
orders, samples or fills these inputs; the same seed always yields the same
inputs.
"""

from __future__ import annotations

import random
from typing import Dict, List

ARCHITECTURES = ["p100", "v100", "a100", "h100"]
PRECISIONS = ["float32", "float64"]

#: sweep-cold: every SSAM scenario x 4 parts x 2 precisions x the two
#: executing engines x two sizes = 320 cells, all new to an empty store
SWEEP_MATRIX: Dict[str, object] = {
    "name": "perfbench-sweep-cold",
    "scenarios": [
        "conv1d", "conv2d", "stencil2d", "stencil3d", "scan",
        "stencil2d-order4", "stencil2d-order6", "stencil2d-varcoef",
        "stencil2d-masked", "conv2d-pipeline",
    ],
    "architectures": ARCHITECTURES,
    "precisions": PRECISIONS,
    "engines": ["batched", "replay"],
    "sizes": ["tiny", "small"],
}
SWEEP_CELLS = 320

#: oracle error allowed per precision (max abs error against the CPU oracle)
ORACLE_TOLERANCE = {"float32": 1e-4, "float64": 1e-9}

#: tune-model: the closed-form explore stage over every tunable cell
TUNE_ARGV = ["--experiment", "tune", "--tune-stage", "model",
             "--search", "exhaustive", "--no-cache"]

#: engine-large: the five paper kernels at evaluation-like scale, with the
#: grid sampled to ``max_blocks`` blocks per launch
ENGINE_KERNELS = [
    {"name": "conv2d", "kernel": "conv2d", "filter": 9, "shape": [2048, 2048]},
    {"name": "stencil2d", "kernel": "stencil2d", "stencil": "2d9pt",
     "shape": [2048, 2048]},
    {"name": "stencil3d", "kernel": "stencil3d", "stencil": "3d7pt",
     "shape": [64, 256, 256]},
    {"name": "conv1d", "kernel": "conv1d", "taps": 7, "shape": [1 << 22]},
    {"name": "scan", "kernel": "scan", "shape": [1 << 22]},
]
ENGINE_MAX_BLOCKS = 2048

#: service-mixed: 2-D SSAM scenarios whose launch configuration tunes, so
#: the ``plan_kwargs`` axis supplies new cells without end (every session
#: starts on an empty store and draws the same number of new cells)
SERVICE_SCENARIOS = ["conv2d", "stencil2d", "stencil2d-order4",
                     "stencil2d-order6", "stencil2d-varcoef"]
SERVICE_ENGINES = ["batched", "replay"]
SERVICE_PLAN_KWARGS = [{"block_threads": b, "outputs_per_thread": p}
                       for b in (64, 128, 256, 512) for p in range(1, 9)]
#: groups whose requests interleave
SERVICE_GROUPS_PER_CHUNK = 4


def sweep_matrix(seed: int) -> Dict[str, object]:
    """The pinned sweep matrix with its axes in a seeded order.

    The cell set is the same for every seed; the seed changes only the
    execution order of the cells.
    """
    rng = random.Random(seed)
    matrix = {key: (list(value) if isinstance(value, list) else value)
              for key, value in SWEEP_MATRIX.items()}
    for axis in ("scenarios", "architectures", "precisions"):
        rng.shuffle(matrix[axis])
    return matrix


def service_requests(seed: int) -> List[Dict[str, object]]:
    """One session's closed-loop request sequence (80 requests).

    A group fixes scenario, precision, engine and launch configuration; its
    four requests pair its four architectures as (a,b), (a,c), (b,d), (c,d),
    so a group's eight cells are four new cells and four repeats served by
    the store.  Every scenario x precision x engine combination is one
    group with a pinned launch configuration: cell costs differ several-fold
    between configurations, so the seed changes only the order of the
    groups and the architecture pairs, never the cost of the mix.  Groups
    interleave in chunks, so a repeat is rarely the cell of the immediately
    preceding request.
    """
    rng = random.Random(seed)
    combos = [(s, p, e) for s in SERVICE_SCENARIOS for p in PRECISIONS
              for e in SERVICE_ENGINES]
    # stride 7 is coprime to the 32 configurations, so the groups spread
    # over every block size and window depth
    groups = [(combo, SERVICE_PLAN_KWARGS[(7 * i) % len(SERVICE_PLAN_KWARGS)])
              for i, combo in enumerate(combos)]
    rng.shuffle(groups)
    requests: List[Dict[str, object]] = []
    pairs = [(0, 1), (0, 2), (1, 3), (2, 3)]
    for chunk in range(0, len(groups), SERVICE_GROUPS_PER_CHUNK):
        members = groups[chunk:chunk + SERVICE_GROUPS_PER_CHUNK]
        arch_orders = [rng.sample(ARCHITECTURES, 4) for _ in members]
        for first, second in pairs:
            for ((scenario, precision, engine), pk), archs in zip(members,
                                                                  arch_orders):
                requests.append({
                    "name": "perfbench-service",
                    "scenarios": [scenario],
                    "architectures": [archs[first], archs[second]],
                    "precisions": [precision],
                    "engines": [engine],
                    "sizes": ["tiny"],
                    "plan_kwargs": [dict(pk)],
                })
    return requests

"""Benchmarks for the Section 5 performance model and the simulator itself.

These are the ablation-style benches of the README section "The model
engine and the `paper` sweep": the analytic model sweep (Eq. 4/5 + halo
analysis), the occupancy calculator, and the raw block-execution
throughput of the simulator.
"""

import numpy as np

from repro.core.performance_model import advantage_table
from repro.experiments.runner import run_experiment
from repro.gpu.architecture import TESLA_P100
from repro.gpu.microbench import run_table2
from repro.gpu.occupancy import compute_occupancy
from repro.gpu.warp import shfl_up


def test_bench_section5_model_sweep(benchmark):
    rows = benchmark(advantage_table, "p100", range(2, 21), 4)
    assert all(row["dif_cycles"] > 0 for row in rows)
    print("\n" + run_experiment("model"))


def test_bench_occupancy_calculator(benchmark):
    def sweep():
        return [compute_occupancy(TESLA_P100, block, regs, smem).occupancy
                for block in (64, 128, 256, 512)
                for regs in (32, 64, 128, 255)
                for smem in (0, 16 * 1024, 48 * 1024)]

    occupancies = benchmark(sweep)
    # the sweep spans configurations from fully occupied down to ones whose
    # register demand cannot fit a single 512-thread block on an SM
    assert max(occupancies) == 1.0
    assert min(occupancies) >= 0.0


def test_bench_microbenchmark_harness(benchmark):
    rows = benchmark(run_table2)
    assert len(rows) == 6


def test_bench_warp_shuffle_throughput(benchmark):
    values = np.arange(32 * 4096, dtype=np.float32)

    def shuffle_many():
        out = values
        for _ in range(8):
            out = shfl_up(out, 1)
        return out

    result = benchmark(shuffle_many)
    assert result.shape == values.shape

"""Benchmarks regenerating Table 1, Table 2 and Table 3 of the paper.

Run with ``pytest benchmarks/ --benchmark-only``.  Each benchmark times the
table's pipeline and prints the rows the paper reports so that the output
can be compared side by side with the original tables.
"""

from repro.experiments.runner import render_result, run_experiment_results


def _bench_table(benchmark, name):
    result = benchmark(run_experiment_results, name)[name]
    assert all(row["matches_paper"] for row in result.rows())
    print("\n" + render_result(name, result))


def test_bench_table1(benchmark):
    _bench_table(benchmark, "table1")


def test_bench_table2(benchmark):
    _bench_table(benchmark, "table2")


def test_bench_table3(benchmark):
    _bench_table(benchmark, "table3")

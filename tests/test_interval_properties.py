"""Property-based soundness test of the index-range interval engine.

Hypothesis generates random data-free index expression trees over the
thread/block coordinates, a throwaway kernel computes each one under the
tracer, and the recorded trace is analyzed two ways:

* the concrete evaluator (:func:`repro.analysis.concrete.evaluate_data_free`)
  must reproduce a brute-force numpy enumeration of the expression over
  every (block, thread) exactly, and
* the interval of **every** node must contain every value the node actually
  takes — the engine may over-approximate, never under-approximate.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.concrete import evaluate_data_free
from repro.analysis.ranges import RangeAnalysis
from repro.dtypes import resolve_precision
from repro.gpu.architecture import get_architecture
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import Kernel, LaunchConfig, block_schedule
from repro.gpu.memory import GlobalMemory
from repro.trace.replay import record_trace

#: kept tiny so int64 arithmetic cannot overflow even for pure-mul trees
MAX_CONST = 10
MAX_BLOCKS = 8
BLOCK_THREADS = 64

_LEAVES = st.one_of(
    st.just(("tid",)), st.just(("lane",)), st.just(("warp",)),
    st.just(("bx",)),
    st.integers(min_value=-MAX_CONST, max_value=MAX_CONST)
    .map(lambda c: ("const", c)),
)


def _extend(children):
    unary = st.tuples(st.sampled_from(["neg", "abs"]), children)
    binary = st.tuples(st.sampled_from(["add", "sub", "mul", "min", "max"]),
                       children, children)
    divlike = st.tuples(st.sampled_from(["mod", "floordiv"]), children,
                        st.integers(min_value=1, max_value=MAX_CONST))
    return st.one_of(unary, binary, divlike)


EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=8)


def _evaluate(node, coords):
    """Evaluate one AST node over a coordinate environment (numpy int64)."""
    op = node[0]
    if op in coords:
        return coords[op]
    if op == "const":
        return np.int64(node[1])
    if op == "neg":
        return -_evaluate(node[1], coords)
    if op == "abs":
        return np.abs(_evaluate(node[1], coords))
    a = _evaluate(node[1], coords)
    if op in ("mod", "floordiv"):
        divisor = np.int64(node[2])
        return a % divisor if op == "mod" else a // divisor
    b = _evaluate(node[2], coords)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "min":
        return np.minimum(a, b)
    return np.maximum(a, b)


def _record_expression(expression, num_blocks):
    """Trace a kernel that computes ``expression`` and stores it linearly."""
    prec = resolve_precision("float64")
    memory = GlobalMemory()
    dst = memory.allocate((num_blocks * BLOCK_THREADS,), prec, name="dst")

    def body(ctx, dst):
        coords = {"tid": ctx.thread_idx_x, "lane": ctx.lane_id,
                  "warp": ctx.warp_id, "bx": ctx.block_idx_x}
        value = _evaluate(expression, coords)
        gidx = ctx.block_idx_x * ctx.block_threads + ctx.thread_idx_x
        ctx.store_global(dst, gidx, value)

    config = LaunchConfig(grid_dim=(num_blocks, 1, 1),
                          block_threads=BLOCK_THREADS, precision=prec)
    arch = get_architecture("p100")
    blocks = block_schedule(config.grid_dim)
    trace = record_trace(Kernel(body, name="interval_probe"), config, (dst,),
                         arch, KernelCounters(), blocks)
    return trace, config, blocks


@settings(max_examples=60, deadline=None)
@given(expression=EXPRESSIONS,
       num_blocks=st.integers(min_value=1, max_value=MAX_BLOCKS))
def test_intervals_are_sound_and_evaluator_is_exact(expression, num_blocks):
    trace, config, blocks = _record_expression(expression, num_blocks)
    env = evaluate_data_free(trace, blocks)
    ranges = RangeAnalysis(trace, config.grid_dim)

    # 1. the concrete evaluator reproduces a brute-force enumeration of the
    # expression over every (block, thread) pair
    tid = np.arange(BLOCK_THREADS, dtype=np.int64)[None, :]
    warp_size = get_architecture("p100").warp_size
    coords = {
        "tid": np.broadcast_to(tid, (num_blocks, BLOCK_THREADS)),
        "lane": np.broadcast_to(tid % warp_size,
                                (num_blocks, BLOCK_THREADS)),
        "warp": np.broadcast_to(tid // warp_size,
                                (num_blocks, BLOCK_THREADS)),
        "bx": np.broadcast_to(
            np.arange(num_blocks, dtype=np.int64)[:, None],
            (num_blocks, BLOCK_THREADS)),
    }
    expected = np.broadcast_to(np.asarray(_evaluate(expression, coords)),
                               (num_blocks, BLOCK_THREADS))
    store = next(n for n in trace.nodes if n.op == "store_global")
    value_node = store.inputs[1]
    observed = np.broadcast_to(np.asarray(env[value_node]),
                               (num_blocks, BLOCK_THREADS))
    np.testing.assert_array_equal(observed, expected)

    # 2. soundness: every node's interval contains every value it takes
    for node_id, values in env.items():
        array = np.asarray(values)
        if array.dtype == np.bool_:
            array = array.astype(np.int64)
        interval = ranges.interval(node_id)
        assert not interval.empty
        lo, hi = float(array.min()), float(array.max())
        assert interval.lo <= lo and hi <= interval.hi, (
            f"interval [{interval.lo}, {interval.hi}] of node {node_id} "
            f"({trace.nodes[node_id].op}) under-approximates observed "
            f"[{lo}, {hi}] for expression {expression!r}")

"""Concrete re-evaluation of a trace's data-free slice over chosen blocks.

Where :mod:`repro.analysis.ranges` abstracts index expressions into
intervals, this module *executes* them — mirroring the eager batched
context's arithmetic semantics exactly — for an explicit set of block
indices.  The race detector and bounds checker use the resulting per-thread
index matrices for exact pairwise overlap checks whenever every index and
mask feeding an access is data-free (the common case for the SSAM kernels);
the performance lint replays the same matrices through the simulator's own
coalescing/bank-conflict accounting.

The environment maps node id -> ndarray broadcastable against the
``(num_blocks, block_threads)`` register shape: scalars for ``CONST``
values, ``(T,)`` rows for block-uniform values, ``(B, 1)`` columns for the
block-index inputs and ``(B, T)`` matrices for mixed expressions — the same
shape discipline the replay compiler relies on.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..trace.ir import BLOCK_AXES, Trace, compute_data_free, node_evaluator


def evaluate_data_free(trace: Trace, block_indices: np.ndarray
                       ) -> Dict[int, np.ndarray]:
    """Concrete values of every data-free node for the given blocks.

    ``block_indices`` is a ``(B, 3)`` int64 matrix of ``(bx, by, bz)``
    triples — typically :func:`repro.gpu.kernel.block_schedule` over
    the full grid, so the checks cover blocks the recorded chunk never
    executed.  Nodes that are not data-free (loads, and anything derived
    from them) are absent from the returned environment.  Value ops
    evaluate through :func:`repro.trace.ir.node_evaluator`, the rule the
    replay engine's launch tier runs.
    """
    block_indices = np.asarray(block_indices, dtype=np.int64)
    registers = (block_indices.shape[0], trace.block_threads)
    data_free = compute_data_free(trace)
    env: Dict[int, np.ndarray] = {}
    for node in trace.nodes:
        if not data_free[node.id]:
            continue
        if node.op == "const":
            env[node.id] = np.asarray(node.value)
        elif node.op == "input":
            name = node.params["name"]
            if name in BLOCK_AXES:
                axis = BLOCK_AXES[name]
                env[node.id] = block_indices[:, axis:axis + 1]
            else:
                env[node.id] = np.asarray(node.value)
        else:
            evaluate = node_evaluator(node, trace.numpy_dtype,
                                      trace.warp_size)
            env[node.id] = evaluate([env[i] for i in node.inputs], registers)
    return env


def index_matrix(env: Dict[int, np.ndarray], node_id: int,
                 num_blocks: int, block_threads: int) -> Optional[np.ndarray]:
    """``(B, T)`` int64 index matrix of a data-free index node, else None."""
    value = env.get(node_id)
    if value is None:
        return None
    arr = np.asarray(value, dtype=np.int64)
    return np.broadcast_to(arr, (num_blocks, block_threads))


def mask_matrix(env: Dict[int, np.ndarray], node_id: Optional[int],
                num_blocks: int, block_threads: int) -> Optional[np.ndarray]:
    """``(B, T)`` bool mask matrix; all-True when the access is unmasked.

    Returns ``None`` when the mask node exists but is data-dependent.
    """
    if node_id is None:
        return np.ones((num_blocks, block_threads), dtype=bool)
    value = env.get(node_id)
    if value is None:
        return None
    arr = np.asarray(value, dtype=bool)
    return np.broadcast_to(arr, (num_blocks, block_threads))

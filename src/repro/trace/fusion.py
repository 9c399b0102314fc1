"""Stage fusion: adjacent traced launches as one software-pipelined launch.

Two kernels that share a blocking plan (same grid and block geometry) and
communicate through an intermediate buffer can be fused: the fused launch
interleaves replay chunks of the stages so the producer runs just far
enough ahead of the consumer to cover its halo, the way a fused device
kernel keeps a bounded rolling window of the intermediate on chip.  The
intermediate buffer is marked ``cached`` — its writes and reads stay in
L2/registers and generate no DRAM traffic — so the fused launch's traffic
is strictly below the unfused chain's.

Results are bit-identical to running the stages back to back: fusion only
reorders whole blocks across stages, and a consumer chunk never runs
before every producer block it reads from.  Stages must be out-of-place
(no stage may read a buffer it also writes); consumer reads of the
intermediate are forced to chunk tier through the replay compiler's
``volatile_slots`` mechanism so they observe the producer's freshest
writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


from ..errors import LaunchError
from ..gpu.architecture import get_architecture
from ..gpu.counters import KernelCounters
from ..gpu.kernel import Kernel, LaunchConfig, LaunchResult, auto_batch_size
from ..gpu.memory import DeviceBuffer
from ..gpu.shared_memory import check_shared_capacity
from .ir import TraceUnsupported
from .replay import (ReplaySession, _block_index_matrix, compile_trace,
                     get_program, record_trace)


@dataclass(frozen=True)
class FusedStage:
    """One stage of a fused pipeline: a kernel plus its launch binding."""

    kernel: Kernel
    config: LaunchConfig
    args: Tuple[object, ...]


class _StageState:
    """Execution cursor of one stage inside a fused launch."""

    def __init__(self, index: int, stage: FusedStage) -> None:
        self.index = index
        self.kernel = stage.kernel
        self.config = stage.config
        self.args = tuple(stage.args)
        self.program = None
        self.session: Optional[ReplaySession] = None
        self.pos = 0  # blocks completed, in launch order


def _volatile_slots(state: _StageState, states: List[_StageState]
                    ) -> frozenset:
    """Argument positions of ``state`` written by an earlier stage.

    Earlier stages always compile before a later stage's first chunk runs
    (the driver keeps producers ahead of consumers), so their write-sets
    are known here on both the cold and the warm path.
    """
    written_ids = set()
    for earlier in states[:state.index]:
        program = earlier.program
        if program is None:  # pragma: no cover - driver ordering invariant
            raise LaunchError("fused stage compiled before its producer")
        for slot in program.written_slots:
            written_ids.add(earlier.args[slot].buffer_id)
    return frozenset(
        i for i, arg in enumerate(state.args)
        if isinstance(arg, DeviceBuffer) and arg.buffer_id in written_ids)


def fused_launch(stages: Sequence[FusedStage], architecture: object = "p100",
                 lead_blocks: Optional[int] = None) -> LaunchResult:
    """Run ``stages`` as one fused launch with a shared counter set.

    Parameters
    ----------
    stages:
        Pipeline stages in dataflow order.  All stages must share the
        launch grid and block size (one blocking plan); each stage's reads
        of buffers written by earlier stages are handled through the
        replay compiler's volatile-slot mechanism.
    lead_blocks:
        How many blocks a producer stage must stay ahead of its consumer
        — the fused pipeline's rolling window, derived from the consumer's
        halo.  ``None`` runs each stage to completion before the next
        starts (always safe).

    Any untraceable stage falls back to running every stage sequentially
    through the batched engine (stages must therefore be out-of-place, so
    a partially-run pipeline can be re-executed deterministically); the
    returned :class:`LaunchResult` then merges the per-stage launches.
    """
    stages = [stage if isinstance(stage, FusedStage) else FusedStage(*stage)
              for stage in stages]
    if len(stages) < 2:
        raise LaunchError("fused_launch needs at least two stages")
    arch = get_architecture(architecture)
    base = stages[0].config
    for stage in stages:
        config = stage.config
        if (config.grid_dim != base.grid_dim
                or config.block_threads != base.block_threads):
            raise LaunchError(
                "fused stages must share one blocking plan: got grid "
                f"{config.grid_dim} x {config.block_threads} threads vs "
                f"{base.grid_dim} x {base.block_threads}")
        if config.block_threads % arch.warp_size != 0:
            raise LaunchError(
                f"block size {config.block_threads} is not a multiple of "
                f"warp size {arch.warp_size}")
    try:
        return _fused_replay(stages, arch, lead_blocks)
    except TraceUnsupported:
        results = [stage.kernel.launch(stage.config, stage.args,
                                       architecture=arch,
                                       batch_size="auto")
                   for stage in stages]
        merged = results[0]
        for result in results[1:]:
            merged = merged.merged_with(result)
        return merged


def _fused_replay(stages: List[FusedStage], arch,
                  lead_blocks: Optional[int]) -> LaunchResult:
    base = stages[0].config
    index_matrix = _block_index_matrix(base.grid_dim)
    n = index_matrix.shape[0]
    chunk = min(auto_batch_size(base), max(1, (n + 1) // 2)) if n > 1 else 1
    counters = KernelCounters()
    states = [_StageState(i, stage) for i, stage in enumerate(stages)]

    def run_one_chunk(state: _StageState) -> None:
        start = state.pos
        end = min(n, start + chunk)
        batch = index_matrix[start:end]
        if state.program is None:
            volatile = _volatile_slots(state, states)
            program, key = get_program(state.kernel, state.config, state.args,
                                       arch, volatile)
            if program is None:
                if key in state.kernel._trace_cache:
                    raise TraceUnsupported(
                        f"kernel {state.kernel.name!r} is untraceable")
                try:
                    trace = record_trace(state.kernel, state.config,
                                         state.args, arch, counters, batch)
                    program = compile_trace(trace, volatile)
                except TraceUnsupported:
                    state.kernel._trace_cache[key] = None
                    raise
                state.kernel._trace_cache[key] = program
                state.program = program
                state.pos = end  # the recording chunk executed eagerly
                return
            check_shared_capacity(program.shared_allocations,
                                  arch.shared_memory_per_block)
            state.program = program
        if state.session is None:
            state.session = ReplaySession(state.program, state.args, arch,
                                          counters, max_chunk_blocks=chunk)
        state.session.run_chunk(batch)
        state.pos = end

    num_stages = len(states)
    lead = n if lead_blocks is None else max(chunk, int(lead_blocks))
    while states[-1].pos < n:
        target = min(n, states[-1].pos + chunk)
        # pull every producer far enough ahead to cover the halo of all
        # its downstream consumers, then advance the final stage one chunk
        for s in range(num_stages - 1):
            need = min(n, target + (num_stages - 1 - s) * lead)
            while states[s].pos < need:
                run_one_chunk(states[s])
        while states[-1].pos < target:
            run_one_chunk(states[-1])

    return LaunchResult(
        kernel_name="+".join(stage.kernel.name for stage in stages),
        config=base,
        architecture=arch,
        counters=counters,
        blocks_executed=sum(state.pos for state in states),
        sampled=False,
        sample_fraction=1.0,
    )

"""Stage fusion: adjacent traced launches as one software-pipelined launch.

Two kernels that share a blocking plan (same grid and block geometry) and
communicate through an intermediate buffer can be fused: the fused launch
interleaves replay chunks of the stages so the producer runs just far
enough ahead of the consumer to cover its halo, the way a fused device
kernel keeps a bounded rolling window of the intermediate on chip.  The
intermediate buffer is marked ``cached`` — its writes and reads stay in
L2/registers and generate no DRAM traffic — so the fused launch's traffic
is strictly below the unfused chain's.

This module only declares the pipeline.  The chunk loop, the program
acquisition (with its trace capture and counter memo) and the fallback
are the ones every launch runs
(:func:`repro.gpu.kernel.launch_stages`), with one stage per kernel; what
fusion adds is the check that the stages share one blocking plan and the
*volatile slots*: a consumer's reads of a buffer an earlier stage writes
are forced to chunk tier through the replay compiler's ``volatile_slots``
mechanism, so they observe the producer's freshest writes.

Results are bit-identical to running the stages back to back: fusion only
reorders whole blocks across stages, and a consumer chunk never runs
before every producer block it reads from.  Stages must be out-of-place
(no stage may read a buffer it also writes), so an untraceable stage can
send the whole launch back to the batched engine from the start.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

from ..errors import LaunchError
from ..gpu.kernel import Kernel, LaunchConfig, LaunchResult, launch_stages
from ..gpu.memory import DeviceBuffer


class FusedStage(NamedTuple):
    """One stage of a fused pipeline: a kernel plus its launch binding."""

    kernel: Kernel
    config: LaunchConfig
    args: Tuple[object, ...]


def _volatile_slots(index: int, stages: Sequence) -> frozenset:
    """Argument positions of stage ``index`` written by an earlier stage.

    Earlier stages always compile before a later stage's first chunk runs
    (the chunk loop keeps producers ahead of consumers), so their
    write-sets are known here on both the cold and the warm path.
    """
    written_ids = set()
    for earlier in stages[:index]:
        program = earlier.program
        if program is None:  # pragma: no cover - chunk loop ordering invariant
            raise LaunchError("fused stage compiled before its producer")
        for slot in program.written_slots:
            written_ids.add(earlier.args[slot].buffer_id)
    return frozenset(
        i for i, arg in enumerate(stages[index].args)
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

    Any untraceable stage is logged in
    :func:`~repro.trace.replay.fallback_log` and the launch runs again from
    the start with every stage on the batched engine, in the same pipeline
    order; the result is named after every stage either way.
    """
    stages = [FusedStage(*stage) for stage in stages]
    if len(stages) < 2:
        raise LaunchError("fused_launch needs at least two stages")
    base = stages[0].config
    for _, config, _ in stages:
        if (config.grid_dim != base.grid_dim
                or config.block_threads != base.block_threads):
            raise LaunchError(
                "fused stages must share one blocking plan: got grid "
                f"{config.grid_dim} x {config.block_threads} threads vs "
                f"{base.grid_dim} x {base.block_threads}")
    return launch_stages(stages, architecture, batch_size="replay",
                         lead_blocks=lead_blocks,
                         volatile_slots=_volatile_slots)

"""Kernel trace IR, compiled replay engine and fusion.

The package captures each kernel body once as a dataflow IR
(:mod:`repro.trace.ir`, recorded by :mod:`repro.trace.tracer`), compiles it
to a straight-line vectorized program (:mod:`repro.trace.replay`) and fuses
adjacent traces that share a blocking plan (:mod:`repro.trace.fusion`).
Static counts of a trace come from
:func:`repro.analysis.lint.predict_counters`.
"""

from .fusion import FusedStage, fused_launch
from .ir import Trace, TraceUnsupported
from .replay import ReplayProgram, ReplaySession, compile_trace, replay_launch

__all__ = [
    "Trace",
    "TraceUnsupported",
    "ReplayProgram",
    "ReplaySession",
    "FusedStage",
    "fused_launch",
    "compile_trace",
    "replay_launch",
]

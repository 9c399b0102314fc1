"""Compile a recorded trace into a straight-line vectorized replay program.

``compile_trace`` runs five passes — tiers (:func:`_assign_tiers`: when
each value can be computed), the operands the counters read from loaded
data (:func:`_loaded_operands`: none makes a program memoizable, so a
repeat launch may reuse its counters), the shuffle-into-mad peephole
(:func:`_fuse_shuffles`), the row forms of global addresses
(:mod:`repro.trace.rows`: an index that is ``base(block, warp) + lane`` is
computed once per warp row, and the access copies whole rows) and
liveness (:func:`_release_points`: when each scratch slot is released) —
then lowers each node through :data:`LOWERINGS`, one function per op
family taking the shared :class:`_CompileState`.

Replay computes values only.  The lowerings emit two step lists:

* a *launch prologue* — closures run once per :class:`ReplaySession` that
  materialise LAUNCH-tier values (e.g. loads from buffers the trace never
  stores to, shared-memory staging of broadcast weights);
* a *chunk program* — closures run per batch chunk that compute only the
  genuinely block-varying values (CHUNK tier), writing into a pooled
  scratch arena (liveness-scanned slots, allocated once per session) so
  the steady state performs no large allocations.  The program knows the
  arena's exact bytes per block, so replay sizes its chunks to keep the
  arena within :data:`~repro.gpu.kernel.REPLAY_CACHE_BYTES`.

Counters come from :func:`repro.analysis.lint.predict_counters`, the one
function that turns a trace's index and mask matrices into counters (the
static verifier's prediction is the same call).  A program keeps a *count
plan* — the trace's node structure with only its const and input values —
and each counted chunk hands it the data-free environment of the chunk's
blocks plus replay's own values of any index or mask operand computed
from loaded data (kept live to the end of the chunk).  The count checks
every access's bounds too.  A repeat launch of a memoizable program reuses
the first launch's counters and runs the value steps alone.

The replay of a chunk therefore touches NumPy kernels only — no Python
kernel-body dispatch, no per-op method calls, no redundant index
re-derivation.
A launch drives a program through :class:`ReplayStage`, one stage of the
chunk loop every launch runs (:func:`repro.gpu.kernel.launch_stages`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..analysis.concrete import evaluate_data_free
from ..analysis.lint import predict_counters
from ..errors import SimulationError
from ..gpu.architecture import GPUArchitecture
from ..gpu.counters import KernelCounters
from ..gpu.kernel import (
    MAX_AUTO_BATCH_BLOCKS,
    REPLAY_CACHE_BYTES,
    LaunchResult,
    StageFallback,
    block_context,
    launch_stages,
)
from ..gpu.memory import DeviceBuffer, scatter_global
from ..gpu.shared_memory import check_shared_capacity
from ..gpu.warp import lane_shift
from .ir import (
    B_AXIS,
    BLOCK_AXES,
    KIND_THREAD,
    MEMORY_OPS,
    TIER_CHUNK,
    TIER_COMPILE,
    TIER_LAUNCH,
    Trace,
    TraceUnsupported,
    compute_data_free,
    memory_operands,
    node_evaluator,
)
from .tracer import TracingContext, _astype_fn

if TYPE_CHECKING:
    from .rows import _RowProgram


# ---------------------------------------------------------- tier assignment

def _assign_tiers(trace: Trace, volatile_slots: frozenset
                  ) -> Tuple[List[int], Dict[int, int]]:
    """Fixpoint tier assignment (monotone, so it terminates quickly)."""
    nodes = trace.nodes
    tiers = [TIER_COMPILE] * len(nodes)
    content: Dict[int, int] = {n.id: TIER_LAUNCH for n in nodes
                               if n.op == "alloc_shared"}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            op = node.op
            if op == "const":
                t = TIER_COMPILE
            elif op == "input":
                t = (TIER_CHUNK if node.params["name"] in BLOCK_AXES
                     else TIER_COMPILE)
            elif op in ("sync", "misc"):
                t = TIER_COMPILE
            elif op == "alloc_shared":
                t = content[node.id]
            elif op == "load_global":
                slot = node.params["slot"]
                t = max([tiers[i] for i in node.inputs] + [TIER_LAUNCH])
                if slot in trace.written_slots or slot in volatile_slots:
                    t = TIER_CHUNK
            elif op == "store_global":
                t = max([tiers[i] for i in node.inputs] + [TIER_LAUNCH])
            elif op == "load_shared":
                t = max([tiers[i] for i in node.inputs]
                        + [content[node.params["shared"]]])
            elif op == "store_shared":
                t = max([tiers[i] for i in node.inputs] + [TIER_LAUNCH])
                shared = node.params["shared"]
                if t > content[shared]:
                    content[shared] = t
                    changed = True
            else:  # pure / arith / shfl
                t = max([tiers[i] for i in node.inputs], default=TIER_COMPILE)
            if t != tiers[node.id]:
                tiers[node.id] = t
                changed = True
    return tiers, content


# ------------------------------------------------------------ scratch pool

class _Pool:
    """Compile-time planner for the per-session scratch arena."""

    def __init__(self) -> None:
        self.slots: List[Tuple[Tuple[int, ...], np.dtype]] = []
        self._free: Dict[tuple, List[int]] = {}

    def alloc(self, tail: Tuple[int, ...], dtype) -> int:
        dtype = np.dtype(dtype)
        key = (tail, dtype.str)
        free = self._free.get(key)
        if free:
            return free.pop()
        self.slots.append((tail, dtype))
        return len(self.slots) - 1

    def release(self, slot: int) -> None:
        tail, dtype = self.slots[slot]
        self._free.setdefault((tail, dtype.str), []).append(slot)


# ----------------------------------------------------------------- program

class ReplayProgram:
    """Everything needed to replay one trace against fresh launch arguments."""

    __slots__ = ("env_template", "launch_steps", "chunk_steps", "pool_slots",
                 "block_inputs", "slot_info", "plan", "loaded_operands",
                 "counter_cache", "written_slots", "shared_allocations",
                 "row_pass", "row_accesses")

    def __init__(self) -> None:
        self.env_template: List[object] = []
        self.launch_steps: List = []
        self.chunk_steps: List = []
        self.pool_slots: List[Tuple[Tuple[int, ...], np.dtype]] = []
        self.block_inputs: List[Tuple[int, int]] = []
        self.slot_info: Dict[int, Dict[str, object]] = {}
        #: the count plan: the trace's node structure, const and input
        #: values only (:meth:`~repro.trace.ir.Trace.count_plan`)
        self.plan: Optional[Trace] = None
        #: index and mask operands computed from loaded data: the count
        #: reads replay's own values of these
        self.loaded_operands: Tuple[int, ...] = ()
        #: (grid_dim, max_blocks) -> unscaled counter dict of a completed
        #: launch, replayed without counting again
        self.counter_cache: Dict[tuple, Dict[str, float]] = {}
        #: argument positions of global buffers this program writes
        #: (used by stage fusion to mark downstream reads volatile)
        self.written_slots: frozenset = frozenset()
        #: per-block bytes of each shared allocation, in allocation order:
        #: a program serves every part of its memory geometry, so a launch
        #: that reuses it checks them against that part's capacity
        self.shared_allocations: Tuple[int, ...] = ()
        #: whether the row-form pass ran (:func:`compile_trace`'s ``rows``)
        self.row_pass = False
        #: node ids of the chunk-tier global loads and stores that run in
        #: row form (:func:`repro.trace.rows._row_forms`)
        self.row_accesses: frozenset = frozenset()

    @property
    def arena_bytes_per_block(self) -> int:
        """Bytes of the scratch arena per block of a chunk: the program's
        exact working set, summed over its pooled slots."""
        return sum(int(np.prod(tail)) * dtype.itemsize
                   for tail, dtype in self.pool_slots)

    def chunk_blocks(self, num_blocks: int) -> int:
        """Blocks per replay chunk: as many as keep the scratch arena within
        :data:`~repro.gpu.kernel.REPLAY_CACHE_BYTES`, and at least two chunks
        per launch so the compiled path runs even on tiny grids."""
        if num_blocks <= 1:
            return 1
        fit = REPLAY_CACHE_BYTES // max(1, self.arena_bytes_per_block)
        return max(1, min(fit, MAX_AUTO_BATCH_BLOCKS, (num_blocks + 1) // 2))

    @property
    def memoizable(self) -> bool:
        """True when no index or mask reads loaded data: the counters of a
        launch are then a pure function of the block schedule and can be
        reused verbatim."""
        return not self.loaded_operands


class ReplaySession:
    """One launch of a compiled program: buffer bindings + scratch arena."""

    def __init__(self, program: ReplayProgram, args: Sequence[object],
                 architecture: GPUArchitecture,
                 counters: Optional[KernelCounters],
                 max_chunk_blocks: int) -> None:
        self.program = program
        self.architecture = architecture
        #: None when the launch's counters come from the program's counter
        #: cache: the count (bounds checks included — they are
        #: deterministic and passed on the cached launch) is skipped and
        #: only the value steps run
        self.counters = counters
        self.buffers: Dict[int, DeviceBuffer] = {}
        for slot, info in program.slot_info.items():
            buffer = args[slot]
            if not isinstance(buffer, DeviceBuffer):
                raise SimulationError(
                    f"replay argument {slot} must be a device buffer")
            self.buffers[slot] = buffer
        self.env: List[object] = list(program.env_template)
        self.scratch = [np.empty((max_chunk_blocks,) + tail, dtype)
                        for tail, dtype in program.pool_slots]
        self.B = 0
        self.chunk_key: Optional[tuple] = None
        #: the chunk's row-form facts (:class:`_ChunkRows`), its per-lane
        #: blocks and the per-lane values of row nodes on them
        self.chunk_rows = None
        self.exact_blocks: Optional[np.ndarray] = None
        self.exact: Dict[int, object] = {}
        self.windows: Dict[int, np.ndarray] = {}
        for step in program.launch_steps:
            step(self)

    def s(self, slot: int) -> np.ndarray:
        """Current chunk's view of one pooled scratch slot."""
        return self.scratch[slot][:self.B]

    def window(self, slot: int, width: int) -> np.ndarray:
        """Read-only view of one buffer as overlapping rows of ``width``
        elements (row ``i`` starts at element ``i``): a warp row's load is
        one row of it."""
        view = self.windows.get(slot)
        if view is None:
            view = np.lib.stride_tricks.sliding_window_view(
                self.buffers[slot].flat, width)
            self.windows[slot] = view
        return view

    def run_chunk(self, block_indices: np.ndarray, count: bool = True,
                  key: Optional[tuple] = None) -> None:
        """Replay the program for one contiguous chunk of blocks, then
        count it (unless the caller counts these blocks itself).  ``key``
        names the chunk's blocks — its launch's grid and sampling and its
        place in their schedule — for memos of data-free facts."""
        self.B = int(block_indices.shape[0])
        self.chunk_key = key
        env = self.env
        for node_id, axis in self.program.block_inputs:
            env[node_id] = block_indices[:, axis:axis + 1]
        try:
            for step in self.program.chunk_steps:
                step(self)
        except IndexError:
            # a value step indexed past a buffer: the count raises the
            # engines' bounds error for the first such access
            self.count(block_indices)
            raise
        if count:
            self.count(block_indices)

    def count(self, block_indices: np.ndarray) -> None:
        """Add the blocks' counters, predicted from the program's plan.

        Loaded operands are read from the values of the chunk just
        replayed, so a program with any counts each chunk right after
        replaying it; a data-free program may count any blocks."""
        if self.counters is None:
            return
        program = self.program
        env = evaluate_data_free(program.plan, block_indices)
        for node_id in program.loaded_operands:
            env[node_id] = self.env[node_id]
        self.counters.accumulate(predict_counters(
            program.plan, env, int(block_indices.shape[0]),
            self.architecture).counters)


# ------------------------------------------------------------ compile passes

def _loaded_operands(trace: Trace) -> Tuple[int, ...]:
    """Index and mask operands whose values depend on loaded data.

    With none, warp counts, transactions, divergence and traffic are a pure
    function of the block schedule, so a repeat launch with the same grid
    and sampling can reuse the first launch's counters verbatim
    (:attr:`ReplayProgram.memoizable`).
    """
    data_free = compute_data_free(trace)
    loaded = set()
    for node in trace.nodes:
        if node.op in MEMORY_OPS:
            index, _, mask = memory_operands(node)
            loaded.update(i for i in (index, mask)
                          if i is not None and not data_free[i])
    return tuple(sorted(loaded))


def _fuse_shuffles(nodes, tiers: List[int], working: np.dtype,
                   warp_size: int) -> Dict[int, int]:
    """Peephole: ``{mad id: shfl id}`` for every chunk-tier shuffle consumed
    only by the accumulator operand of one fused multiply-add.

    The shuffle then collapses into that mad's emission: the shifted addend
    is added straight out of the previous partial sum by the add form of
    :func:`~repro.gpu.warp.lane_shift`, removing one full register-wide
    copy per filter tap.
    """
    uses = [0] * len(nodes)
    for node in nodes:
        for i in node.inputs:
            uses[i] += 1
    fused: Dict[int, int] = {}
    for node in nodes:
        if (node.op != "arith" or node.params["kind"] != "mad"
                or tiers[node.id] != TIER_CHUNK):
            continue
        acc = nodes[node.inputs[2]]
        if (acc.op != "shfl" or uses[acc.id] != 1
                or tiers[acc.id] != TIER_CHUNK
                or acc.params["dir"] not in ("up", "down")
                or not 0 < acc.params["amount"] < warp_size):
            continue
        prev = nodes[acc.inputs[0]]
        shapes_ok = (node.shape == acc.shape == prev.shape
                     and node.shape and node.shape[0] == B_AXIS)
        dtypes = [node.dtype, acc.dtype, prev.dtype,
                  nodes[node.inputs[0]].dtype, nodes[node.inputs[1]].dtype]
        if shapes_ok and all(np.dtype(d) == working for d in dtypes):
            fused[node.id] = acc.id
    return fused


#: lanes a launch's chunks must reach for it to compile the row pass
#: (:meth:`ReplayStage._row_chunks`): on fewer NumPy's per-call cost, not
#: the lanes, sets an op's time
_ROW_MIN_LANES = 4096


def _release_points(nodes, fused: Dict[int, int],
                    keep: Tuple[int, ...] = ()) -> Dict[int, List[int]]:
    """Liveness: node id -> the values whose last consumer it is.

    A value's scratch slot is reclaimed once its last consumer is lowered;
    a fused shuffle's source lives until the mad that absorbed it, and the
    values in ``keep`` (the operands the count reads) to the end of the
    chunk.
    """
    last_use = list(range(len(nodes)))
    for node in nodes:
        for i in node.inputs:
            last_use[i] = node.id
        if node.op in ("load_shared", "store_shared"):
            last_use[node.params["shared"]] = node.id
    for mad_id, shfl_id in fused.items():
        src = nodes[shfl_id].inputs[0]
        last_use[src] = max(last_use[src], mad_id)
    for i in keep:
        last_use[i] = len(nodes)  # past the last node: never released
    release_at: Dict[int, List[int]] = {}
    for i, at in enumerate(last_use):
        release_at.setdefault(at, []).append(i)
    return release_at


class _CompileState:
    """What the lowerings of one trace share while it compiles."""

    def __init__(self, trace: Trace, tiers: List[int],
                 content_tiers: Dict[int, int],
                 fused: Dict[int, int],
                 rows: Optional[_RowProgram] = None) -> None:
        self.nodes = trace.nodes
        self.slot_info = trace.slot_info
        self.tiers = tiers
        #: alloc_shared node id -> tier of the allocation's content
        self.content_tiers = content_tiers
        #: mad node id -> the shuffle node fused into it
        self.fused = fused
        self.fused_shuffles = frozenset(fused.values())
        self.T = trace.block_threads
        self.ws = trace.warp_size
        self.working = np.dtype(trace.numpy_dtype)
        self.program = ReplayProgram()
        self.program.slot_info = dict(trace.slot_info)
        self.program.written_slots = frozenset(trace.written_slots)
        self.program.env_template = [None] * len(trace.nodes)
        self.pool = _Pool()
        #: node id -> pooled scratch slot holding its chunk value
        self.storage: Dict[int, int] = {}
        #: the row-form accesses (None: no access takes the row form)
        self.rows = rows
        #: never-released slots a row-form store with per-lane blocks builds
        #: its (B, T) index and mask in
        self.row_scratch = None
        if rows is not None and any(self.nodes[i].op == "store_global"
                                    for i in rows.accesses):
            self.row_scratch = (self.pool.alloc((self.T,), np.int64),
                                self.pool.alloc((self.T,), bool))

    def pooled(self, node) -> Optional[int]:
        """Scratch slot for a block-varying value (None for other kinds)."""
        if node.shape and node.shape[0] == B_AXIS:
            slot = self.pool.alloc(tuple(node.shape[1:]), node.dtype)
            self.storage[node.id] = slot
            return slot
        return None


def _row_of(env_value, threads: int, dtype=None) -> np.ndarray:
    """One block's (T,)-row of a thread-uniform operand."""
    arr = np.asarray(env_value)
    if dtype is not None and arr.dtype != dtype:
        arr = arr.astype(dtype)
    return np.ascontiguousarray(np.broadcast_to(arr, (threads,)))


# ------------------------------------------------------------- lowerings

def _lower_leaf(state: _CompileState, node) -> None:
    """const / input: baked into the program, or the chunk's block ids."""
    axis = BLOCK_AXES.get(node.params.get("name"))
    if axis is None:
        state.program.env_template[node.id] = node.value
    else:
        state.program.block_inputs.append((node.id, axis))


def _lower_nothing(state: _CompileState, node) -> None:
    """sync / misc: counted by the plan, no value to compute."""


def _lower_static_value(state: _CompileState, node) -> bool:
    """Emit a COMPILE- or LAUNCH-tier value op; False for a chunk-tier one.

    LAUNCH-tier values evaluate once per session by the IR's evaluation
    rule, the one the verifier's concrete evaluator runs.
    """
    tier = state.tiers[node.id]
    if tier == TIER_COMPILE:
        state.program.env_template[node.id] = node.value
        return True
    if tier != TIER_LAUNCH:
        return False

    def step(session, evaluate=node_evaluator(node, state.working, state.ws),
             ids=node.inputs, shape=tuple(node.shape), nid=node.id):
        env = session.env
        env[nid] = evaluate([env[i] for i in ids], shape)
    state.program.launch_steps.append(step)
    return True


def _lower_pure(state: _CompileState, node) -> None:
    """Intercepted NumPy calls; common ones write into pooled scratch."""
    if _lower_static_value(state, node):
        return
    nid = node.id
    ids = node.inputs
    fn, kwargs = node.fn, node.kwargs
    slot = state.pooled(node)
    if slot is None:
        def step(session, fn=fn, ids=ids, kwargs=kwargs, nid=nid):
            env = session.env
            env[nid] = fn(*[env[i] for i in ids], **kwargs)
    elif fn is _astype_fn:
        i0 = ids[0]

        def step(session, i0=i0, slot=slot, nid=nid):
            buf = session.s(slot)
            np.copyto(buf, session.env[i0], casting="unsafe")
            session.env[nid] = buf
    elif fn is np.where:
        ic, ia, ib = ids

        def step(session, ic=ic, ia=ia, ib=ib, slot=slot, nid=nid):
            env = session.env
            buf = session.s(slot)
            np.copyto(buf, env[ib], casting="unsafe")
            np.copyto(buf, env[ia], where=env[ic], casting="unsafe")
            env[nid] = buf
    elif fn is np.clip:
        ia, ilo, ihi = ids

        def step(session, ia=ia, ilo=ilo, ihi=ihi, slot=slot, nid=nid):
            env = session.env
            buf = session.s(slot)
            np.clip(env[ia], env[ilo], env[ihi], out=buf)
            env[nid] = buf
    elif isinstance(fn, np.ufunc) and fn.nout == 1 and not kwargs:
        def step(session, fn=fn, ids=ids, slot=slot, nid=nid):
            env = session.env
            buf = session.s(slot)
            fn(*[env[i] for i in ids], out=buf)
            env[nid] = buf
    else:
        def step(session, fn=fn, ids=ids, kwargs=kwargs, slot=slot,
                 nid=nid):
            env = session.env
            buf = session.s(slot)
            buf[...] = fn(*[env[i] for i in ids], **kwargs)
            env[nid] = buf
    state.program.chunk_steps.append(step)


def _lower_arith(state: _CompileState, node) -> None:
    """mad / add / mul, in place on pooled registers when dtypes agree."""
    if node.id in state.fused:
        _lower_fused_mad(state, node)
        return
    if _lower_static_value(state, node):
        return
    nid = node.id
    ids = node.inputs
    kind = node.params["kind"]
    working = state.working
    slot = state.pooled(node)
    fast = (slot is not None and node.dtype == working
            and all(np.dtype(state.nodes[i].dtype) == working for i in ids))
    if fast and kind == "mad":
        ia, ib_, iacc = ids

        def step(session, ia=ia, ib_=ib_, iacc=iacc, slot=slot, nid=nid):
            env = session.env
            buf = session.s(slot)
            np.multiply(env[ia], env[ib_], out=buf)
            np.add(buf, env[iacc], out=buf)
            env[nid] = buf
    elif fast:
        ufunc = np.add if kind == "add" else np.multiply
        ia, ib_ = ids

        def step(session, ia=ia, ib_=ib_, ufunc=ufunc, slot=slot, nid=nid):
            env = session.env
            buf = session.s(slot)
            ufunc(env[ia], env[ib_], out=buf)
            env[nid] = buf
    else:
        def step(session, ids=ids, slot=slot, nid=nid,
                 evaluate=node_evaluator(node, working, state.ws)):
            env = session.env
            value = evaluate([env[i] for i in ids], None)
            if slot is not None:
                buf = session.s(slot)
                buf[...] = value
                value = buf
            env[nid] = value
    state.program.chunk_steps.append(step)


def _lower_fused_mad(state: _CompileState, node) -> None:
    """mul into the out slot, then add the lane-shifted previous partial
    (:func:`~repro.gpu.warp.lane_shift`'s add form) — bit-identical to
    shfl followed by mad (same elementwise additions on the same
    operands), one register-wide pass cheaper."""
    acc = state.nodes[state.fused[node.id]]

    def step(session, ia=node.inputs[0], ib_=node.inputs[1],
             iprev=acc.inputs[0], slot=state.pooled(node), nid=node.id,
             direction=acc.params["dir"], amount=acc.params["amount"],
             ws=state.ws):
        env = session.env
        buf = session.s(slot)
        np.multiply(env[ia], env[ib_], out=buf)
        env[nid] = lane_shift(env[iprev], amount, direction, ws, buf, add=True)
    state.program.chunk_steps.append(step)


def _lower_shfl(state: _CompileState, node) -> None:
    """Warp shuffles: up/down through :func:`~repro.gpu.warp.lane_shift`,
    idx as a grouped broadcast (fused ones have no step)."""
    if node.id in state.fused_shuffles or _lower_static_value(state, node):
        return
    ws = state.ws
    slot = state.pooled(node)
    if slot is None:
        # a thread-uniform shuffle recomputed per chunk (its operand was
        # loaded from a buffer the kernel writes) has no pooled register:
        # shuffle the operand as it comes (the identity on a warp-uniform
        # one)
        def step(session, evaluate=node_evaluator(node, state.working, ws),
                 i0=node.inputs[0], shape=tuple(node.shape), nid=node.id):
            env = session.env
            value = env[i0]
            env[nid] = evaluate(
                [value], np.broadcast_shapes(np.shape(value), shape))
        state.program.chunk_steps.append(step)
        return

    def step(session, i0=node.inputs[0], slot=slot, nid=node.id,
             direction=node.params["dir"], amount=node.params["amount"]):
        env = session.env
        buf = session.s(slot)
        if direction == "idx":
            src = np.broadcast_to(env[i0], buf.shape).reshape(-1, ws)
            buf.reshape(-1, ws)[:] = src[:, amount:amount + 1]
        else:
            lane_shift(env[i0], amount, direction, ws, buf)
        env[nid] = buf
    state.program.chunk_steps.append(step)


# -------------------------------------------------------- global memory

def _lower_global(state: _CompileState, node) -> None:
    """load_global / store_global: a launch-static access runs once per
    session, anything else per chunk.  Stores of either tier go through
    :func:`~repro.gpu.memory.scatter_global`, the batched engine's
    scatter."""
    if state.tiers[node.id] != TIER_LAUNCH:
        _global_chunk_access(state, node)
        return
    T, working = state.T, state.working
    is_store = node.op == "store_global"
    i_idx, i_val, i_mask = memory_operands(node)

    def launch_step(session, i_idx=i_idx, i_val=i_val, i_mask=i_mask,
                    slot=node.params["slot"], nid=node.id):
        env = session.env
        buffer = session.buffers[slot]
        idx = _row_of(env[i_idx], T, np.int64)
        mask = None if i_mask is None else _row_of(env[i_mask], T, bool)
        if is_store:
            scatter_global(buffer, idx, env[i_val], mask)
            return
        values = np.zeros((T,), dtype=buffer.dtype)
        if mask is None:
            values[:] = buffer.flat[idx]
        else:
            values[mask] = buffer.flat[idx[mask]]
        env[nid] = values.astype(working, copy=False)
    state.program.launch_steps.append(launch_step)


def _global_chunk_access(state: _CompileState, node) -> None:
    """A CHUNK-tier global load or store: in row form
    (:func:`~repro.trace.rows._row_load`,
    :func:`~repro.trace.rows._row_store`) when its index and mask have
    one, else per lane."""
    T, working = state.T, state.working
    is_store = node.op == "store_global"
    info = state.slot_info[node.params["slot"]]
    i_idx, i_val, i_mask = memory_operands(node)
    access = None if state.rows is None else state.rows.accesses.get(node.id)
    if access is not None:
        from .rows import _row_load, _row_store
    if access is not None and not is_store:
        _row_load(state, node, access)
        return
    if access is not None:
        def row_step(session, place=_row_store(state, node, access),
                     slot=node.params["slot"]):
            for args in place(session):
                scatter_global(session.buffers[slot], *args)
        state.program.chunk_steps.append(row_step)
        return
    out_slot = None if is_store else state.pooled(node)

    def step(session, i_idx=i_idx, i_val=i_val, i_mask=i_mask,
             slot=node.params["slot"], nid=node.id, out_slot=out_slot,
             masked=node.params["masked"], buf_dtype=np.dtype(info["dtype"])):
        env = session.env
        shape = (session.B, T)
        buffer = session.buffers[slot]
        idx = np.asarray(env[i_idx])
        idxb = idx if idx.shape == shape else np.broadcast_to(idx, shape)
        mask = None
        if masked:
            mask = np.asarray(env[i_mask])
            if mask.shape != shape:
                mask = np.broadcast_to(mask, shape)
        if is_store:
            scatter_global(buffer, idxb, env[i_val], mask)
            return
        # functional gather — mirrors the batched engine expression
        if out_slot is not None and buf_dtype == working and mask is None:
            out = session.s(out_slot)
            np.take(buffer.flat, idxb, out=out)
            env[nid] = out
            return
        if out_slot is not None and buf_dtype == working:
            out = session.s(out_slot)
            out.fill(0)
            out[mask] = buffer.flat[idxb[mask]]
            env[nid] = out
            return
        values = np.zeros(shape, dtype=buf_dtype)
        if mask is None:
            values[:] = buffer.flat[idxb]
        else:
            values[mask] = buffer.flat[idxb[mask]]
        env[nid] = values.astype(working, copy=False)
    state.program.chunk_steps.append(step)


# -------------------------------------------------------- shared memory

def _lower_alloc_shared(state: _CompileState, node) -> None:
    """A zeroed allocation: once per session when its content is
    launch-static, else a pooled (B, size) slot re-zeroed every chunk."""
    nid = node.id
    size = node.params["size"]
    dtype = np.dtype(node.params["dtype"])
    state.program.shared_allocations += (size * dtype.itemsize,)
    if state.content_tiers[nid] <= TIER_LAUNCH:
        def step(session, nid=nid, size=size, dtype=dtype):
            session.env[nid] = np.zeros((size,), dtype=dtype)
        state.program.launch_steps.append(step)
        return
    slot = state.pool.alloc((size,), dtype)
    state.storage[nid] = slot

    def step(session, nid=nid, slot=slot):
        buf = session.s(slot)
        buf.fill(0)
        session.env[nid] = buf
    state.program.chunk_steps.append(step)


def _lower_load_shared(state: _CompileState, node) -> None:
    """Shared reads: a launch-static row gather, or a per-chunk gather
    from launch-static or block-varying content."""
    T, working = state.T, state.working
    nid = node.id
    shared_id = node.params["shared"]
    masked = node.params["masked"]
    uniform = node.params["uniform"]
    i_idx, _, i_mask = memory_operands(node)

    if state.tiers[nid] <= TIER_LAUNCH:
        # content and indices are launch-static: one (T,)-row gather
        def step(session, i_idx=i_idx, i_mask=i_mask, shared_id=shared_id,
                 nid=nid, uniform=uniform):
            env = session.env
            content = env[shared_id]
            raw = np.asarray(env[i_idx])
            if i_mask is None and uniform:
                index = int(raw.reshape(-1)[0])
                env[nid] = content[index].astype(working)
                return
            idx = _row_of(raw, T, np.int64)
            if i_mask is None:
                env[nid] = content[idx].astype(working, copy=False)
                return
            mask = _row_of(env[i_mask], T, bool)
            values = np.zeros((T,), dtype=working)
            values[mask] = content[idx[mask]].astype(working, copy=False)
            env[nid] = values
        state.program.launch_steps.append(step)
        return

    out_slot = state.pooled(node)
    if out_slot is None and uniform and not masked:
        # a warp-uniform read of thread-uniform chunk content is still one
        # value per block: give it the (B, 1) column the step writes
        out_slot = state.pool.alloc((1,), node.dtype)
        state.storage[nid] = out_slot

    def step(session, i_idx=i_idx, i_mask=i_mask, shared_id=shared_id,
             nid=nid, uniform=uniform, masked=masked,
             content_chunk=state.content_tiers[shared_id] == TIER_CHUNK,
             out_slot=out_slot,
             idx_is_block=state.nodes[i_idx].kind > KIND_THREAD):
        env = session.env
        B = session.B
        content = env[shared_id]
        raw = np.asarray(env[i_idx])
        if uniform and not masked:
            out = session.s(out_slot)  # (B, 1)
            if content_chunk:
                if idx_is_block:
                    out[:, 0] = content[np.arange(B), raw[:, 0]]
                else:
                    out[:, 0] = content[:, int(raw.reshape(-1)[0])]
            else:
                if idx_is_block:
                    out[:, 0] = content[raw[:, 0]]
                else:
                    out[:, 0] = content[int(raw.reshape(-1)[0])]
            env[nid] = out
            return
        shape = (B, T)
        idxb = raw if raw.shape == shape else np.broadcast_to(raw, shape)
        if idxb.dtype != np.int64:
            idxb = idxb.astype(np.int64)
        mask = None
        if masked:
            mask = np.asarray(env[i_mask])
            if mask.shape != shape:
                mask = np.broadcast_to(mask, shape)
        out = session.s(out_slot) if out_slot is not None else \
            np.empty(shape, dtype=working)
        if not content_chunk:
            if mask is None:
                if content.dtype == working:
                    np.take(content, idxb, out=out)
                else:
                    np.copyto(out, content[idxb], casting="unsafe")
            else:
                out.fill(0)
                out[mask] = content[idxb[mask]].astype(working, copy=False)
        else:
            if mask is None and not idx_is_block:
                row = np.ascontiguousarray(raw).reshape(-1)
                if content.dtype == working:
                    np.take(content, row, axis=1, out=out)
                else:
                    np.copyto(out, content[:, row], casting="unsafe")
            elif mask is None:
                rows = np.broadcast_to(np.arange(B)[:, None], shape)
                np.copyto(out, content[rows, idxb], casting="unsafe")
            else:
                rows = np.broadcast_to(np.arange(B)[:, None], shape)
                out.fill(0)
                out[mask] = content[rows[mask], idxb[mask]].astype(
                    working, copy=False)
        env[nid] = out
    state.program.chunk_steps.append(step)


def _lower_store_shared(state: _CompileState, node) -> None:
    """Shared writes: scattered once per session into launch-static
    content, else per chunk into each block's row."""
    T = state.T
    shared_id = node.params["shared"]
    masked = node.params["masked"]
    i_idx, i_val, i_mask = memory_operands(node)

    if state.content_tiers[shared_id] != TIER_CHUNK:
        # launch-static content: scatter one (T,)-row once per session
        def step(session, i_idx=i_idx, i_val=i_val, i_mask=i_mask,
                 shared_id=shared_id):
            env = session.env
            content = env[shared_id]
            idx = _row_of(env[i_idx], T, np.int64)
            values = np.broadcast_to(np.asarray(env[i_val]), (T,))
            if i_mask is None:
                content[idx] = values.astype(content.dtype, copy=False)
            else:
                mask = _row_of(env[i_mask], T, bool)
                content[idx[mask]] = values[mask].astype(content.dtype,
                                                         copy=False)
        state.program.launch_steps.append(step)
        return

    def step(session, i_idx=i_idx, i_val=i_val, i_mask=i_mask,
             shared_id=shared_id, masked=masked,
             row_access=all(state.nodes[i].kind <= KIND_THREAD
                            for i in (i_idx, i_mask) if i is not None)):
        env = session.env
        B = session.B
        content = env[shared_id]
        shape = (B, T)
        raw = np.asarray(env[i_idx])
        values = np.broadcast_to(np.asarray(env[i_val]), shape)
        if row_access:
            # index and mask are the same for every block: one row
            row = _row_of(raw, T, np.int64)
            if masked:
                mask0 = _row_of(env[i_mask], T, bool)
                cols = row[mask0]
                content[:, cols] = values[:, mask0].astype(content.dtype,
                                                           copy=False)
            else:
                content[:, row] = values.astype(content.dtype, copy=False)
            return
        idxb = raw if raw.shape == shape else np.broadcast_to(raw, shape)
        if idxb.dtype != np.int64:
            idxb = idxb.astype(np.int64)
        rows = np.broadcast_to(np.arange(B)[:, None], shape)
        if masked:
            mask = np.asarray(env[i_mask])
            if mask.shape != shape:
                mask = np.broadcast_to(mask, shape)
            content[rows[mask], idxb[mask]] = values[mask].astype(
                content.dtype, copy=False)
        else:
            content[rows, idxb] = values.astype(content.dtype, copy=False)
    state.program.chunk_steps.append(step)


#: op -> lowering; every op the tracer records has exactly one entry
LOWERINGS = {
    "const": _lower_leaf,
    "input": _lower_leaf,
    "pure": _lower_pure,
    "arith": _lower_arith,
    "shfl": _lower_shfl,
    "sync": _lower_nothing,
    "misc": _lower_nothing,
    "load_global": _lower_global,
    "store_global": _lower_global,
    "alloc_shared": _lower_alloc_shared,
    "load_shared": _lower_load_shared,
    "store_shared": _lower_store_shared,
}


# ------------------------------------------------------------ the compiler

def compile_trace(trace: Trace, volatile_slots: frozenset = frozenset(),
                  rows: bool = True) -> ReplayProgram:
    """Lower a recorded trace to a :class:`ReplayProgram`.

    Runs the passes — tiers, loaded operands, the shuffle-into-mad
    peephole, row forms (unless ``rows`` is false: a launch whose chunks
    never reach :data:`_ROW_MIN_LANES` lanes runs every access per lane
    and skips them) and liveness — then walks the nodes through
    :data:`LOWERINGS`, reclaiming each scratch slot after its value's last
    consumer.  The lowerings read the warp size alone from the part that
    recorded the trace.
    """
    tiers, content_tiers = _assign_tiers(trace, volatile_slots)
    fused = _fuse_shuffles(trace.nodes, tiers, np.dtype(trace.numpy_dtype),
                           trace.warp_size)
    loaded = _loaded_operands(trace)
    row_program = None
    if rows:
        from .rows import _row_forms
        row_program = _row_forms(trace, tiers)
    release_at = _release_points(trace.nodes, fused, keep=loaded)
    state = _CompileState(trace, tiers, content_tiers, fused, row_program)
    program = state.program
    program.plan = trace.count_plan()
    program.loaded_operands = loaded
    program.row_pass = rows
    removable: frozenset = frozenset()
    if row_program is not None:
        program.chunk_steps.append(row_program)
        program.row_accesses = frozenset(row_program.accesses)
        removable = row_program.removable
    for node in trace.nodes:
        lower = LOWERINGS.get(node.op)
        if lower is None:  # pragma: no cover - exhaustive over recorded ops
            raise TraceUnsupported(f"unknown trace op {node.op!r}")
        if node.id not in removable:
            lower(state, node)
        for i in release_at.get(node.id, ()):
            if i in state.storage:
                state.pool.release(state.storage.pop(i))
    program.pool_slots = list(state.pool.slots)
    return program


# ----------------------------------------------------- capture + fallbacks

@dataclass
class TraceCaptureRecord:
    """One recorded kernel trace plus the context the verifier needs."""

    kernel_name: str
    trace: Trace
    config: object
    architecture: GPUArchitecture
    #: block-index matrix of the recorded chunk
    chunk_blocks: np.ndarray
    #: counter delta the eager engine accumulated while recording the chunk
    chunk_counters: Dict[str, float] = field(default_factory=dict)

    @property
    def dedupe_key(self) -> tuple:
        """Identity of the recorded program (repeat launches re-record)."""
        return (self.kernel_name, tuple(self.config.grid_dim),
                int(self.trace.block_threads),
                self.architecture.name,
                tuple(node.op for node in self.trace.nodes))


class TraceCapture:
    """Collects every trace (and fallback) recorded inside the context."""

    def __init__(self) -> None:
        self.records: List[TraceCaptureRecord] = []
        self.fallbacks: List[Dict[str, str]] = []

    def unique_records(self) -> List[TraceCaptureRecord]:
        """Records deduplicated by program identity, first capture wins."""
        seen = set()
        unique = []
        for record in self.records:
            key = record.dedupe_key
            if key not in seen:
                seen.add(key)
                unique.append(record)
        return unique


class _ThreadState(threading.local):
    """This thread's open captures and fallback log: a capture or a
    fallback belongs to the thread whose launch made it, so a worker thread
    never sees another's (the daemon runs cells on several threads)."""

    def __init__(self) -> None:
        self.captures: List[TraceCapture] = []
        self.fallbacks: List[Dict[str, str]] = []


_THREAD = _ThreadState()


def _active_capture() -> Optional[TraceCapture]:
    return _THREAD.captures[-1] if _THREAD.captures else None


@contextmanager
def capture_traces():
    """Capture the recorded trace of every replay launch this thread makes
    in the block.

    Forces re-recording of chunk 0 even on warm trace caches, so the
    capture always carries the eager chunk's counter delta for the
    static-vs-dynamic cross-check.  Kernels that fall back to the batched
    engine land in ``capture.fallbacks`` instead of silently vanishing.
    """
    capture = TraceCapture()
    _THREAD.captures.append(capture)
    try:
        yield capture
    finally:
        _THREAD.captures.pop()


def record_fallback(kernel_name: str, reason: str) -> None:
    """Log one replay-engine fallback in this thread's log (also mirrored
    into its active captures); the sweep reads deltas of the log to surface
    unanalyzable kernels."""
    event = {"kernel": kernel_name, "reason": reason}
    _THREAD.fallbacks.append(event)
    capture = _active_capture()
    if capture is not None:
        capture.fallbacks.append(dict(event))


def fallback_log() -> List[Dict[str, str]]:
    """Snapshot of every fallback recorded by this thread so far."""
    return [dict(event) for event in _THREAD.fallbacks]


# ---------------------------------------------------------------- the glue

def trace_key(config, architecture: GPUArchitecture, args: Sequence[object],
              volatile_slots: frozenset = frozenset()) -> tuple:
    """Cache key of one compiled program.

    Grid-independent: kernel bodies never read ``grid_dim``, so one trace
    serves every launch of the same plan — including the stencil ping-pong,
    whose rebinding of ``src``/``dst`` preserves the positional buffer
    signature.

    Independent of the part's name too: the key holds only its
    :attr:`~repro.gpu.architecture.GPUArchitecture.memory_geometry`, the
    four fields the counter rules read, so P100, V100, A100 and H100 share
    one program and its ``counter_cache``.  A kernel body cannot bake in
    anything else — the tracer refuses a body that reads the architecture —
    and the one other field a launch depends on, the per-block shared
    capacity, is checked against ``program.shared_allocations`` on reuse.
    A sweep goes one step further on the same ground: it runs each built-in
    cell once per geometry and only re-models the time for the other parts
    (see :mod:`repro.scenarios.sweep`).
    """
    parts: List[object] = [architecture.memory_geometry, config.precision.name,
                           int(config.block_threads),
                           tuple(sorted(volatile_slots))]
    for arg in args:
        if isinstance(arg, DeviceBuffer):
            parts.append(("buf", str(arg.dtype), int(arg.size),
                          bool(arg.cached)))
        else:
            parts.append(("arg", repr(arg)))
    return tuple(parts)


def record_trace(kernel, config, args, architecture: GPUArchitecture,
                 counters: KernelCounters,
                 block_indices: np.ndarray) -> Trace:
    """Run one chunk eagerly under the tracer and return the recorded trace.

    The chunk is fully simulated (counters, traffic, buffer writes) with the
    batched engine's semantics while the trace is captured.
    """
    eager = block_context(config, architecture, counters, block_indices)
    trace = Trace(tuple(args), batch_blocks=int(block_indices.shape[0]),
                  block_threads=eager.block_threads,
                  warp_size=eager.warp_size, num_warps=eager.num_warps,
                  numpy_dtype=eager.numpy_dtype)
    ctx = TracingContext(eager, trace)
    kernel.func(ctx, *args)
    ctx.finalize()
    return trace


class ReplayStage:
    """One kernel of a launch on the replay engine, a stage of the chunk
    loop in :func:`repro.gpu.kernel.launch_stages`.

    Its first chunk acquires the program (:meth:`_acquire`); the others
    replay it at the program's cache-sized chunk or, in a fused pipeline
    whose halo lead couples the stages' chunks, at the recording chunk.
    """

    def __init__(self, kernel, config, args: Sequence[object],
                 architecture: GPUArchitecture, max_blocks: Optional[int],
                 record_chunk: int, pipelined: bool = False,
                 volatile: Optional[Callable[[], frozenset]] = None) -> None:
        self.kernel = kernel
        self.config = config
        self.args = tuple(args)
        self.architecture = architecture
        self.memo_key = (config.grid_dim, max_blocks)
        self.record_chunk = self.chunk = record_chunk
        self.pipelined = pipelined
        #: this stage's argument positions that earlier stages write
        self.volatile = volatile
        self.counters = KernelCounters()
        self.program: Optional[ReplayProgram] = None
        self.session: Optional[ReplaySession] = None
        self.recorded = False
        #: the launch's counters when ``counter_cache`` already holds them
        self.cached: Optional[Dict[str, float]] = None
        #: blocks per count when it runs apart from the replay chunks, and
        #: the replayed blocks not counted yet
        self.count_chunk: Optional[int] = None
        self.uncounted = np.empty((0, 3), dtype=np.int64)

    def run(self, schedule: np.ndarray, start: int) -> int:
        """Run the chunk of ``schedule`` at ``start``; return its end."""
        if self.session is None:
            end = self._acquire(schedule, start)
            self._open(schedule.shape[0])
            if end > start:
                return end
        end = min(schedule.shape[0], start + self.chunk)
        blocks = schedule[start:end]
        self.session.run_chunk(blocks, count=self.count_chunk is None,
                               key=self.memo_key + (start, end))
        if self.count_chunk is not None and self.session.counters is not None:
            # count in whole recording-size steps; the rest waits
            pending = np.concatenate([self.uncounted, blocks])
            whole = pending.shape[0] - pending.shape[0] % self.count_chunk
            for s in range(0, whole, self.count_chunk):
                self.session.count(pending[s:s + self.count_chunk])
            self.uncounted = pending[whole:]
        return end

    def _acquire(self, schedule: np.ndarray, start: int) -> int:
        """Find or build this stage's program; return the end of the chunk
        it recorded (``start`` when it recorded none).

        A cached program is checked against the part's shared capacity.
        Without one, and always under :func:`capture_traces`, the chunk
        runs eagerly under the tracer (so its counters and writes are the
        batched engine's), is compiled and cached, and the capture gets its
        record.  An untraceable kernel is cached as such and falls back.
        A program compiled without the row pass, for a launch whose chunks
        were too small for it, is compiled again by the first launch whose
        chunks can take it.
        """
        volatile = frozenset() if self.volatile is None else self.volatile()
        key = trace_key(self.config, self.architecture, self.args, volatile)
        cache = self.kernel._trace_cache
        capture = _active_capture()
        rows = self._row_chunks(schedule.shape[0])
        program = cache.get(key)
        if program is not None and rows and not program.row_pass:
            # compiled for chunks too small for the row form: compiled
            # again, once, by the first launch whose chunks can take it
            program = None
        if program is not None:
            check_shared_capacity(program.shared_allocations,
                                  self.architecture.shared_memory_per_block)
            self.program = program
            if capture is None:
                return start
        elif key in cache and cache[key] is None and capture is None:
            # known untraceable (a capture records again to report why)
            record_fallback(self.kernel.name, "known untraceable (cached)")
            raise StageFallback(self.kernel.name)
        end = min(schedule.shape[0], start + self.record_chunk)
        blocks = schedule[start:end]
        try:
            trace = record_trace(self.kernel, self.config, self.args,
                                 self.architecture, self.counters, blocks)
            if program is None:
                program = compile_trace(trace, volatile, rows)
        except TraceUnsupported as exc:
            cache[key] = None
            record_fallback(self.kernel.name, str(exc))
            raise StageFallback(self.kernel.name) from exc
        cache[key] = self.program = program
        self.recorded = True
        if capture is not None:
            capture.records.append(TraceCaptureRecord(
                kernel_name=self.kernel.name, trace=trace, config=self.config,
                architecture=self.architecture,
                chunk_blocks=np.ascontiguousarray(blocks),
                chunk_counters=self.counters.as_dict()))
        return end

    def _row_chunks(self, num_blocks: int) -> bool:
        """Whether a replay chunk of this launch can hold
        :data:`_ROW_MIN_LANES` lanes, so its accesses can take the row
        form (:meth:`_open` sizes the chunks: at most half the launch)."""
        chunk = self.record_chunk if self.pipelined else min(
            MAX_AUTO_BATCH_BLOCKS, (num_blocks + 1) // 2)
        return chunk * self.config.block_threads >= _ROW_MIN_LANES

    def _open(self, num_blocks: int) -> None:
        """Start the session; a launch that recorded nothing may take its
        counters from ``counter_cache`` and then counts nothing."""
        program = self.program
        if not self.pipelined:
            self.chunk = program.chunk_blocks(num_blocks)
        if program.memoizable:
            if not self.recorded:
                self.cached = program.counter_cache.get(self.memo_key)
            # a data-free count reads nothing but the block ids and costs
            # mostly per call, so it runs over recording-size chunks
            if self.chunk != self.record_chunk:
                self.count_chunk = self.record_chunk
        self.session = ReplaySession(
            program, self.args, self.architecture,
            self.counters if self.cached is None else None,
            max_chunk_blocks=self.chunk)

    def finish(self) -> KernelCounters:
        """Counters of every block this stage ran (unscaled); a memoizable
        program keeps them for its repeat launches."""
        if self.uncounted.shape[0]:
            self.session.count(self.uncounted)
        if self.cached is not None:
            return KernelCounters.from_dict(self.cached)
        if self.program.memoizable:
            self.program.counter_cache[self.memo_key] = self.counters.as_dict()
        return self.counters


def replay_launch(kernel, config, args, architecture: object = "p100",
                  max_blocks: Optional[int] = None) -> LaunchResult:
    """Execute a launch through the compiled replay engine: one
    :class:`ReplayStage` in the launch loop, falling back to the batched
    engine transparently when the tracer cannot record the kernel."""
    return launch_stages([(kernel, config, args)], architecture,
                         max_blocks=max_blocks, batch_size="replay")

"""Row forms of replay's global addresses: a compile pass and its lowerings.

An SSAM warp reads and writes one contiguous run of a buffer, so a
chunk-tier global index is usually ``base(block, warp) + lane``.
:func:`_row_forms` gives such an index (and its mask) a row form
(:class:`_RowForm`) and builds the chunk prologue (:class:`_RowProgram`)
that evaluates the bases on a ``(B, W)`` grid of warp rows; the lowerings
:func:`_row_load` and :func:`_row_store` then read and write whole warp
rows.  Every block with a row off its form runs the exact per-lane steps,
so outputs, the bounds error and counters stay those of the per-lane
program.

:func:`repro.trace.replay.compile_trace` imports this module only for a
launch whose chunks can take the row form, so a process that never replays
a large chunk never loads it.
"""

from __future__ import annotations

from functools import partial
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple,
                    Optional, Tuple)

import numpy as np

from . import replay
from .ir import B_AXIS, TIER_CHUNK, TIER_COMPILE, Trace, memory_operands

if TYPE_CHECKING:
    from .replay import ReplaySession, _CompileState

_INT64 = np.dtype(np.int64)
_BOOL = np.dtype(bool)
_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)
#: bound on the blocks a program's memo of chunks covers (cleared when
#: full): a sampled launch's cold and warm chunkings, ~2 MB of row bases
_CHUNK_MEMO_BLOCKS = 4096
#: ops the row-form pass looks at
_ROW_OPS = frozenset(("input", "pure", "load_global", "store_global"))
#: comparisons that are monotone along a stride-1 row
_ORDERINGS = (np.less, np.less_equal, np.greater, np.greater_equal)


class _RowForm(NamedTuple):
    """How one global index or mask varies along a warp row.

    An int64 value is ``base[b, w] + stride * lane`` (``stride`` 0 or 1);
    a bool value is ``base[b, w] & lanes[w, lane]`` (``stride`` None,
    ``lanes`` a compile-time ``(W, ws)`` mask, None for every lane).
    The form holds on every row where none of ``guards`` binds.
    """

    stride: Optional[int]
    lanes: Optional[np.ndarray]
    guards: frozenset

    @property
    def uniform(self) -> bool:
        """One value on every lane of a row."""
        return self.stride == 0 or (self.stride is None and self.lanes is None)


_NO_GUARDS: frozenset = frozenset()


def _leaf_form(value, num_warps: int, ws: int):
    """``(form, row base)`` of a compile-time int64 or bool value (a scalar
    or one ``(T,)`` row), or None when its lanes follow no row form."""
    arr = np.asarray(value)
    if arr.dtype != _INT64 and arr.dtype != _BOOL:
        return None
    stride = 0 if arr.dtype == _INT64 else None
    if arr.ndim == 0:
        return _RowForm(stride, None, _NO_GUARDS), value
    if arr.shape != (num_warps * ws,):
        return None
    rows = arr.reshape(num_warps, ws)
    if (rows == rows[:, :1]).all():
        return _RowForm(stride, None, _NO_GUARDS), rows[:, 0].copy()
    if stride is None:
        return _RowForm(None, rows.copy(), _NO_GUARDS), True
    if (rows - rows[:, :1] == np.arange(ws)).all():
        return _RowForm(1, None, _NO_GUARDS), rows[:, 0].copy()
    return None


def _range_guard(x: int, lo: Optional[int], hi: int):
    """Rows where ``lo <= base(x) <= hi``: a clip, minimum or maximum of a
    stride-1 row passes every lane through unchanged."""
    def check(rows):
        base = rows[x]
        ok = base <= hi
        return ok if lo is None else ok & (base >= lo)
    return check


def _ordering_guard(node_id: int, fn, x: int, c: int, x_first: bool, k: int):
    """Rows where an ordering of a stride-1 row against a constant agrees
    on the first and the last lane (so on every lane) and no lane wraps."""
    def check(rows):
        base = rows[x]
        last = fn(base, c - k) if x_first else fn(c - k, base)
        return (rows[node_id] == last) & (base <= _INT64_MAX - k)
    return check


def _pure_form(node, ins: List[_RowForm], const_of: Callable, ws: int):
    """``(form, guard check or None)`` of a chunk-tier int64/bool ``pure``
    node over row-form operands, or None when it has none.

    Its row base is always ``node.fn`` of the operands' bases.  Any op of
    lane-uniform operands is uniform.  A stride-1 operand passes through
    an add or subtract of a uniform one, and through a clip, minimum or
    maximum against constants on the rows where that does not bind (a
    *guard*); an ordering against a constant is uniform on the rows where
    the first and last lane agree (a guard too).  An ``and`` of masks
    ands their lane masks.
    """
    fn = node.fn
    guards = ins[0].guards
    uniform = ins[0].uniform
    for f in ins[1:]:
        if f.guards:
            guards = guards | f.guards
        uniform = uniform and f.uniform
    is_int = node.dtype == _INT64
    if uniform:
        return _RowForm(0 if is_int else None, None, guards), None
    if node.kwargs:
        return None
    strides = [f.stride for f in ins]
    consts = [const_of(i) for i in node.inputs]
    k = ws - 1
    if is_int and strides.count(1) == 1 and strides.count(0) == len(ins) - 1:
        x = node.inputs[strides.index(1)]
        row = _RowForm(1, None, guards | {node.id})
        if fn is np.add or (fn is np.subtract and strides[0] == 1) \
                or fn is np.positive:
            return _RowForm(1, None, guards), None
        if fn is np.clip and None not in consts[1:]:
            lo, hi = consts[1], consts[2] - k
            return (row, _range_guard(x, lo, hi)) if lo <= hi else None
        other = consts[1 - strides.index(1)] if len(ins) == 2 else None
        if other is not None and fn is np.minimum \
                and other - k >= _INT64_MIN:
            return row, _range_guard(x, None, other - k)
        if other is not None and fn is np.maximum:
            return row, _range_guard(x, other, _INT64_MAX - k)
        return None
    if is_int:
        return None
    if fn in _ORDERINGS and strides in ([1, 0], [0, 1]):
        first = strides[0] == 1
        c = consts[1 if first else 0]
        if c is None:
            return None
        return (_RowForm(None, None, guards | {node.id}),
                _ordering_guard(node.id, fn, node.inputs[0 if first else 1],
                                c, first, k))
    if fn in (np.bitwise_and, np.logical_and) and strides == [None, None]:
        lanes = [f.lanes for f in ins if f.lanes is not None]
        mask = lanes[0] if len(lanes) == 1 else lanes[0] & lanes[1]
        return _RowForm(None, mask, guards), None
    return None


class _RowAccess(NamedTuple):
    """A chunk-tier global access whose index (and mask) took the row form."""

    index: int
    mask: Optional[int]
    stride: int
    #: the mask's compile-time lane mask (None: every lane)
    lanes: Optional[np.ndarray]
    guards: frozenset
    #: bounds on a row's base for the row to lie inside the buffer
    lo: int
    hi: int
    #: a stride-1 store's lanes ``[start, stop)``, the same in every warp
    run: Tuple[int, int]


def _lane_run(lanes: Optional[np.ndarray], ws: int):
    """``(start, stop)`` of the one run of lanes every warp stores, or None
    when warps differ or a warp's lanes are not contiguous."""
    if lanes is None:
        return 0, ws
    on = np.flatnonzero(lanes[0])
    if (not on.size or on[-1] - on[0] + 1 != on.size
            or not (lanes == lanes[0]).all()):
        return None
    return int(on[0]), int(on[-1]) + 1


def _row_access(node, index: Optional[_RowForm], mask: Optional[_RowForm],
                size: int, threads: int, ws: int) -> Optional[_RowAccess]:
    """The row form of one chunk-tier global access, or None: its index is
    a stride-0/1 int and its mask (if any) a bool with a row form; a
    stride-1 store stores one run of lanes in every warp and a buffer
    holds at least one row."""
    i_idx, _, i_mask = memory_operands(node)
    store = node.op == "store_global"
    if index is None or index.stride is None or (
            i_mask is not None and (mask is None or mask.stride is not None)):
        return None
    if not store and tuple(node.shape) != (B_AXIS, threads):
        return None
    lanes = None if mask is None else mask.lanes
    guards = index.guards | (mask.guards if mask is not None else _NO_GUARDS)
    lo, hi, run = 0, size - 1, (0, 1)
    if index.stride == 1:
        run = _lane_run(lanes, ws) if store else (0, ws)
        if run is None:
            return None
        lo, hi = -run[0], size - run[1]
        if hi < lo:
            return None
    return _RowAccess(i_idx, i_mask, index.stride, lanes, guards, lo, hi, run)


def _row_forms(trace: Trace, tiers: List[int]) -> Optional["_RowProgram"]:
    """Compile pass: the row form of every chunk-tier global access whose
    index and mask have one (:class:`_RowForm`), the prologue that
    evaluates it per chunk, and the per-lane index steps it makes
    redundant; None when no access takes the row form.

    A per-lane step goes only when every consumer of its value is a row
    node that goes too or a row-form access reading it as an address;
    anything else (a value operand, a shuffle, the count's loaded
    operands, which are never data-free) keeps it.
    """
    nodes = trace.nodes
    W, ws, T = trace.num_warps, trace.warp_size, trace.block_threads
    forms: Dict[int, Optional[_RowForm]] = {}
    bases: Dict[int, object] = {}
    checks: Dict[int, Callable] = {}

    def form_of(i: int) -> Optional[_RowForm]:
        if i not in forms:
            forms[i] = None
            if tiers[i] == TIER_COMPILE:
                leaf = _leaf_form(nodes[i].value, W, ws)
                if leaf is not None:
                    forms[i], bases[i] = leaf
        return forms[i]

    def const_of(i: int) -> Optional[int]:
        """A compile-time int64 scalar operand as a Python int."""
        form = forms.get(i)
        if form is None or form.stride != 0 or i not in bases \
                or np.ndim(bases[i]):
            return None
        return int(bases[i])

    accesses: Dict[int, _RowAccess] = {}
    for node in nodes:
        op = node.op
        if op not in _ROW_OPS or tiers[node.id] != TIER_CHUNK:
            continue
        if op == "input":
            forms[node.id] = _RowForm(0, None, _NO_GUARDS)
        elif op == "pure":
            if (node.shape not in ((B_AXIS, 1), (B_AXIS, T))
                    or node.dtype not in (_INT64, _BOOL)):
                continue
            ins = [form_of(i) for i in node.inputs]
            if None in ins:
                continue
            found = _pure_form(node, ins, const_of, ws)
            if found is not None:
                forms[node.id], check = found
                if check is not None:
                    checks[node.id] = check
        else:
            i_idx, _, i_mask = memory_operands(node)
            access = _row_access(
                node, form_of(i_idx),
                None if i_mask is None else form_of(i_mask),
                trace.slot_info[node.params["slot"]]["size"], T, ws)
            if access is not None:
                accesses[node.id] = access
    if not accesses:
        return None
    # the row nodes the accesses read, and the compile-time leaves they use
    ops, leaves = set(), set()
    stack = [i for a in accesses.values() for i in (a.index, a.mask)
             if i is not None]
    while stack:
        i = stack.pop()
        if tiers[i] == TIER_COMPILE:
            leaves.add(i)
        elif i not in ops:
            ops.add(i)
            if nodes[i].op == "pure":
                stack.extend(nodes[i].inputs)
    users: Dict[int, List[int]] = {i: [] for i in ops}
    for node in nodes:
        for i in node.inputs:
            if i in users:
                users[i].append(node.id)
    removable = set()
    for i in sorted(ops, reverse=True):
        if nodes[i].op == "pure" and all(
                c in removable or (c in accesses
                                   and memory_operands(nodes[c])[1] != i)
                for c in users[i]):
            removable.add(i)
    return _RowProgram(
        W, ws, {i: (bases[i], _lane_grid(nodes[i].value, W, ws))
                for i in leaves},
        [(i, nodes[i].fn, nodes[i].inputs, nodes[i].kwargs)
         for i in sorted(ops) if nodes[i].op == "pure"],
        [(g, checks[g]) for g in sorted(ops) if g in checks],
        accesses, frozenset(removable),
        [i for i in sorted(ops) if nodes[i].op == "input"],
        {i: forms[i] for i in ops if not forms[i].guards})


def _lane_grid(value, num_warps: int, ws: int):
    """A compile-time value on the ``(W, ws)`` lane grid (scalars as is)."""
    return value if np.ndim(value) == 0 else \
        np.asarray(value).reshape(num_warps, ws)


class _ChunkRows:
    """What the row prologue finds for one chunk of blocks.  All of it is
    data-free, a function of the chunk's blocks alone, so a later launch's
    chunk of the same blocks (the same grid, sampling and place in the
    schedule) reuses it."""

    __slots__ = ("addresses", "exact_blocks", "bases")

    def __init__(self, addresses: Dict[int, tuple],
                 exact_blocks: Optional[np.ndarray]) -> None:
        #: access id -> (row bases, active rows or None, rows holding the
        #: form inside the buffer or None for all)
        self.addresses = addresses
        #: positions of the blocks that take per-lane steps (None: none)
        self.exact_blocks = exact_blocks
        #: guard-free row node -> its row bases on those blocks
        self.bases: Dict[int, np.ndarray] = {}


def _clip_ints(a, lo, hi):
    """``np.clip`` of integers, through the two ufuncs that define it: on
    a ``(B, W)`` grid np.clip's own wrapper costs more than the clip."""
    return np.minimum(np.maximum(a, lo), hi)


class _RowProgram:
    """The chunk prologue of the row-form accesses, the first chunk step.

    On a ``(B, W)`` grid of warp rows it evaluates the base of every
    row-form index and mask (the node's own op on its operands' bases) and
    the rows where each guard holds; then, for all accesses at once on an
    ``(A, B, W)`` stack, the rows that hold their form and lie inside the
    buffer or store nothing.  The blocks with any other row take per-lane
    steps, which read :meth:`exact` values: the same ops on just those
    blocks, on an ``(n, W, ws)`` lane grid where a row base broadcasts.
    """

    def __init__(self, num_warps: int, ws: int, leaves: Dict[int, object],
                 ops: List[tuple], checks: List[Tuple[int, Callable]],
                 accesses: Dict[int, _RowAccess], removable: frozenset,
                 inputs: List[int], free: Dict[int, _RowForm]) -> None:
        self.num_warps = num_warps
        #: compile-time leaf -> its row base, and its value on the lane grid
        self.leaves = {i: base for i, (base, _) in leaves.items()}
        self.lane_leaves = {i: grid for i, (_, grid) in leaves.items()}
        #: (node id, fn, operand ids) of the row nodes, trace order, their
        #: keyword arguments bound
        self.ops = [(nid, partial(fn, **kwargs) if kwargs else
                     _clip_ints if fn is np.clip else fn, ids)
                    for nid, fn, ids, kwargs in ops]
        self.checks = checks
        self.accesses = accesses
        #: row nodes with no per-lane step
        self.removable = removable
        #: the block-index inputs the row nodes read
        self.inputs = inputs
        #: per-lane rule of each row node: its op, or the form of a node no
        #: guard reaches, whose per-lane values its row bases give
        self.rules: Dict[int, object] = {
            nid: (fn, ids) for nid, fn, ids in self.ops}
        self.rules.update(free)
        self.lane = np.arange(ws, dtype=np.int64)
        #: chunk key -> its :class:`_ChunkRows` (a function of its blocks),
        #: and the blocks they cover
        self.memo: Dict[tuple, _ChunkRows] = {}
        self.memo_blocks = 0
        sets = sorted({a.guards for a in accesses.values() if a.guards},
                      key=sorted)
        #: access ids in stack order, grouped by guard set
        self.order = sorted(accesses, key=lambda n: (
            sets.index(accesses[n].guards) if accesses[n].guards else -1, n))
        self.indices = [accesses[n].index for n in self.order]
        self.masks = [(a, accesses[n].mask) for a, n in enumerate(self.order)
                      if accesses[n].mask is not None]
        #: (first, stop, guard ids) of each run of accesses sharing guards
        self.groups = []
        for guards in sets:
            at = [a for a, n in enumerate(self.order)
                  if accesses[n].guards == guards]
            self.groups.append((at[0], at[-1] + 1, tuple(sorted(guards))))
        lo = [accesses[n].lo for n in self.order]
        hi = [accesses[n].hi for n in self.order]
        # lo <= 0, so base - lo wraps only for bases far above hi, which
        # the unsigned compare rejects too: it is the whole range check
        self.lo = np.array(lo, np.int64).reshape(-1, 1, 1)
        self.span = np.array([h - low for h, low in zip(hi, lo)],
                             np.uint64).reshape(-1, 1, 1)

    def __call__(self, session: "ReplaySession") -> None:
        key = session.chunk_key
        chunk = None if key is None else self.memo.get(key)
        session.rows = None
        if chunk is None:
            chunk = self._find(session)
            if key is not None:
                self.memo_blocks += session.B
                if self.memo_blocks > _CHUNK_MEMO_BLOCKS:
                    self.memo.clear()
                    self.memo_blocks = session.B
                self.memo[key] = chunk
        session.chunk_rows = chunk
        session.addresses = chunk.addresses
        session.exact_blocks = chunk.exact_blocks
        session.exact = {}

    def _rows(self, session: "ReplaySession") -> Dict[int, object]:
        """The row base of every row node on the chunk's ``(B, W)`` grid."""
        if session.rows is None:
            env = session.env
            rows = dict(self.leaves)
            for nid in self.inputs:
                rows[nid] = env[nid]
            for nid, fn, ids in self.ops:
                if len(ids) == 2:
                    rows[nid] = fn(rows[ids[0]], rows[ids[1]])
                else:
                    rows[nid] = fn(*[rows[i] for i in ids])
            session.rows = rows
        return session.rows

    def _find(self, session: "ReplaySession") -> "_ChunkRows":
        """The row bases and rows off their form of every access.  A chunk
        of fewer than :data:`~repro.trace.replay._ROW_MIN_LANES` lanes
        runs every block per lane: its per-lane ops cost what the row ops
        would."""
        B, W = session.B, self.num_warps
        if B * W * self.lane.shape[0] < replay._ROW_MIN_LANES:
            return _ChunkRows(dict.fromkeys(self.order, (None, None, True)),
                              np.arange(B))
        rows = self._rows(session)
        bases = np.empty((len(self.indices), B, W), np.int64)
        for a, index in enumerate(self.indices):
            bases[a] = rows[index]
        fits = np.subtract(bases, self.lo).view(np.uint64) <= self.span
        actives = {}
        for a, mask in self.masks:
            active = rows[mask]
            if np.ndim(active) or not active:
                actives[a] = active
                fits[a] |= ~active
        if self.groups:
            ok = {gid: check(rows) for gid, check in self.checks}
            for first, stop, gids in self.groups:
                held = ok[gids[0]]
                for g in gids[1:]:
                    held = held & ok[g]
                fits[first:stop] &= held
        whole = np.logical_and.reduce(fits.reshape(fits.shape[0], -1), axis=1)
        addresses = {nid: (bases[a], actives.get(a),
                           None if whole[a] else fits[a])
                     for a, nid in enumerate(self.order)}
        if whole.all():
            return _ChunkRows(addresses, None)
        held = np.logical_and.reduce(fits[~whole], axis=0)
        return _ChunkRows(addresses, np.flatnonzero(~held.all(axis=1)))

    def exact(self, session: "ReplaySession", nid: int):
        """Per-lane value of a row node (or leaf) on the chunk's per-lane
        blocks, computed once per chunk."""
        exact = session.exact
        if nid in exact:
            return exact[nid]
        rule = self.rules.get(nid)
        if rule is None:
            value = self.lane_leaves[nid]
        elif type(rule) is _RowForm:
            # no guard reaches it: its form holds on every row
            chunk = session.chunk_rows
            value = chunk.bases.get(nid)
            if value is None:
                value = self._rows(session)[nid][chunk.exact_blocks]
                chunk.bases[nid] = value
            value = value[..., None]
            if rule.stride == 1:
                value = value + self.lane
            elif rule.lanes is not None:
                value = value & rule.lanes
        else:
            fn, ids = rule
            value = fn(*[self.exact(session, i) for i in ids])
        exact[nid] = value
        return value


def _exact_values(rows: _RowProgram, session: ReplaySession, index: int,
                  mask: Optional[int]):
    """Per-lane ``(index, mask)`` of the chunk's per-lane blocks, on the
    ``(n, W, ws)`` lane grid."""
    shape = (session.exact_blocks.shape[0], rows.num_warps,
             rows.lane.shape[0])
    values = []
    for i in (index, mask):
        value = None if i is None else rows.exact(session, i)
        if value is not None and np.shape(value) != shape:
            value = np.broadcast_to(value, shape)
        values.append(value)
    return values


def _row_load(state: _CompileState, node, access: _RowAccess) -> None:
    """A row-form load into the pooled register: one strided-view row per
    warp row (stride 1) or one element broadcast along it (stride 0),
    masked rows and lanes zeroed; blocks with a row off its form or its
    buffer then take the per-lane gather."""
    T, ws = state.T, state.ws
    W = T // ws
    idle = None if access.lanes is None else ~access.lanes

    def step(session, nid=node.id, slot=node.params["slot"],
             out_slot=state.pooled(node), stride=access.stride,
             index=access.index, mask=access.mask, rows_program=state.rows):
        B = session.B
        buffer = session.buffers[slot]
        out = session.s(out_slot)
        rows = out.reshape(B, W, ws)
        base, active, fits = session.addresses[nid]
        exact = session.exact_blocks
        if fits is None or exact.shape[0] < B:
            use = active if fits is None else (
                fits if active is None else fits & active)
            take = base if use is None else np.where(use, base, 0)
            if stride:
                rows[...] = session.window(slot, ws)[take]
            else:
                rows[...] = buffer.flat[take][..., None]
            if active is not None and not active.all():
                np.copyto(rows, 0, where=~active[..., None])
            if idle is not None:
                np.copyto(rows, 0, where=idle)
        if fits is not None:
            idx, lanes = _exact_values(rows_program, session, index, mask)
            if lanes is None:
                values = buffer.flat[idx]
            else:
                values = np.zeros(idx.shape, dtype=buffer.dtype)
                values[lanes] = buffer.flat[idx[lanes]]
            if exact.shape[0] == B:
                np.copyto(rows, values, casting="unsafe")
            else:
                rows[exact] = values
        session.env[nid] = out
    state.program.chunk_steps.append(step)


def _row_store(state: _CompileState, node, access: _RowAccess) -> Callable:
    """``place(session)``: the arguments of the one
    :func:`~repro.gpu.memory.scatter_global` call of a row-form store.

    When every row holds its form inside the buffer, a stride-1 store
    writes its warps' lane run as rows, and a stride-0 one each warp's
    last storing lane (the lane the per-lane scatter lets win).  Otherwise
    the chunk's whole per-lane index and mask are scattered, in lane
    order: the per-lane blocks' exact values, the other rows rebuilt from
    their bases.
    """
    T, ws = state.T, state.ws
    W = T // ws
    start, stop = access.run
    lanes = np.ones((W, ws), bool) if access.lanes is None else access.lanes
    warps = np.flatnonzero(lanes.any(axis=1))
    last = np.array([np.flatnonzero(lanes[w])[-1] for w in warps], np.int64)
    offsets = np.arange(ws, dtype=np.int64)
    idx_slot, mask_slot = state.row_scratch
    i_val = memory_operands(node)[1]

    def place(session, nid=node.id, stride=access.stride, index=access.index,
              mask=access.mask, rows_program=state.rows):
        B = session.B
        values = session.env[i_val]
        base, active, fits = session.addresses[nid]
        if active is not None and active.shape != (B, W):
            active = np.broadcast_to(active, (B, W))
        if np.shape(values) != (B, T):
            values = np.broadcast_to(values, (B, T))
        rows = values.reshape(B, W, ws)
        if fits is None and stride:
            return (base + start if start else base,
                    rows[:, :, start:stop], active, stop - start)
        if fits is None:
            return (base[:, warps], rows[:, warps, last],
                    None if active is None else active[:, warps], None)
        idx, lane_mask = _exact_values(rows_program, session, index, mask)
        exact = session.exact_blocks
        if exact.shape[0] == B:
            return idx, rows, lane_mask, None
        full = session.s(idx_slot).reshape(B, W, ws)
        np.add(base[..., None], offsets * stride, out=full)
        full[exact] = idx
        full_mask = None
        if mask is not None:
            full_mask = session.s(mask_slot).reshape(B, W, ws)
            full_mask[...] = lanes
            if active is not None:
                full_mask &= active[..., None]
            full_mask[exact] = lane_mask
        return full, rows, full_mask, None
    return place

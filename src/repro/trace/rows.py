"""Row forms of replay's global addresses: a compile pass and its lowerings.

An SSAM warp reads and writes one contiguous run of a buffer, so a
chunk-tier global index is usually ``base(block, warp) + lane``.
:func:`_row_forms` gives such an index (and its mask) a row form
(:class:`_RowForm`) and builds the chunk prologue (:class:`_RowProgram`)
that evaluates the bases on a ``(B, W)`` grid of warp rows; the lowerings
:func:`_row_load` and :func:`_row_store` then read and write whole warp
rows.  A row where a clamp or an ordering binds (the halo at a domain
edge) takes a compile-time lane remap (:class:`_Guard`).  Only blocks with
a row that leaves its buffer or that no remap covers run per lane, so
outputs, the bounds error and counters stay the per-lane program's.
:func:`repro.trace.replay.compile_trace` imports this module only for a
launch whose chunks can take the row form.
"""

from __future__ import annotations

from functools import partial
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple,
                    Optional, Tuple)

import numpy as np

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
_ANDS = (np.bitwise_and, np.logical_and)
_NO_GUARDS: frozenset = frozenset()


class _RowForm(NamedTuple):
    """How one global index or mask varies along a warp row.

    An int64 value is ``base[b, w] + stride * lane`` (``stride`` 0 or 1);
    a bool value is ``base[b, w] & lanes[w, lane]`` (``stride`` None,
    ``lanes`` a compile-time ``(W, ws)`` mask, None for every lane).
    The form holds on every row where none of ``guards`` binds; where only
    ``remaps`` bind, an int adds its clamp's lane offsets to its base and
    a bool ands in each ordering's lanes.
    """

    stride: Optional[int]
    lanes: Optional[np.ndarray]
    guards: frozenset
    remaps: frozenset = _NO_GUARDS

    @property
    def uniform(self) -> bool:
        """One value on every lane of a row."""
        return self.stride == 0 or (self.stride is None and self.lanes is None)


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


class _Guard(NamedTuple):
    """A clamp or an ordering of the stride-1 row ``x``.  ``key(base of
    x)`` is 0 on a row where it does not bind and otherwise picks the row's
    lane remap ``table[key]``: the offsets of the clamp's lanes from its
    row base, or the lanes where the ordering holds.  An ordering's row
    base is ``base(x)``: whether any lane holds (None for a clamp)."""

    x: int
    key: Callable
    table: np.ndarray
    base: Optional[Callable]


def _clamp_guard(x: int, lo: Optional[int], hi: Optional[int], ws: int):
    """A clip, minimum or maximum of ``x`` to ``[lo, hi]`` (None: open).
    Its lane offsets depend only on how far the first lane lies below
    ``lo`` (``a``) or the last above ``hi`` (``h``), each clipped to
    ``[0, ws - 1]``; ``a`` fixes ``h`` when both bind (a domain narrower
    than a row), so keys ``1..k`` are ``a`` and ``k + 1..2k`` are ``h``."""
    k = ws - 1
    if (None not in (lo, hi) and lo > hi) or \
            min(b for b in (lo, hi) if b is not None) - k < _INT64_MIN:
        return None
    span = k if None in (lo, hi) else hi - lo
    pairs = [(0, k)] + [(a, min(a + span, k)) for a in range(1, ws)] + [
        (0, k - h) for h in range(1, ws)]
    lane = np.arange(ws)
    table = np.array([np.clip(lane, a, b) - a for a, b in pairs], np.int8)

    def key(x):
        a = 0 if lo is None else lo - _clip_ints(x, lo - k, lo)
        h = 0 if hi is None else _clip_ints(x, hi - k, hi) - (hi - k)
        return np.where(a > 0, a, h + k * (h > 0))
    return _Guard(x, key, table, None)


def _ordering_guard(x: int, fn, c: int, x_first: bool, ws: int):
    """An ordering of ``x`` against ``c``: with ``c`` normalised, ``x +
    lane < c`` (true on the low lanes) or ``x + lane >= c``, so it holds on
    the lanes below or from ``t = clip(c - x, 0, ws)``, and binds where
    ``0 < t < ws``."""
    low = (fn in (np.less, np.less_equal)) == x_first
    c += (fn in (np.less_equal, np.greater)) == x_first
    if not _INT64_MIN + ws <= c <= _INT64_MAX:
        return None
    lane = np.arange(ws)
    table = lane < lane[:, None] if low else lane >= lane[:, None]
    table[0] = True
    return _Guard(x, lambda x: (c - _clip_ints(x, c - ws, c)) % ws, table,
                  lambda x: x < c if low else x > c - ws)


def _pure_form(node, ins: List[_RowForm], const_of: Callable, ws: int):
    """``(form, guard or None)`` of a chunk-tier int64/bool ``pure`` node
    over row-form operands, or None when it has none.

    Its row base is ``node.fn`` of the operands' bases.  Any op of
    lane-uniform operands is uniform, an ``and`` keeping their remaps.  A
    stride-1 operand passes through an add or subtract of a uniform one,
    and through a clip, minimum or maximum against constants (a *guard*,
    remapped where it binds unless the operand has guards of its own); an
    ordering against a constant is uniform where it does not bind (a guard
    too).  An ``and`` of masks ands their lane masks.
    """
    fn = node.fn
    guards = _NO_GUARDS.union(*(f.guards for f in ins))
    ands = _NO_GUARDS.union(*(f.remaps for f in ins) if fn in _ANDS else ())
    is_int = node.dtype == _INT64
    if all(f.uniform for f in ins):
        return _RowForm(0 if is_int else None, None, guards, ands), None
    if node.kwargs:
        return None
    strides = [f.stride for f in ins]
    consts = [const_of(i) for i in node.inputs]
    one = strides.index(1) if 1 in strides else None
    if is_int and strides.count(1) == 1 and strides.count(0) == len(ins) - 1:
        if fn is np.add or (fn is np.subtract and one == 0) \
                or fn is np.positive:
            return _RowForm(1, None, guards, ins[one].remaps), None
        other = consts[1 - one] if len(ins) == 2 else None
        if fn is np.clip and None not in consts[1:]:
            guard = _clamp_guard(node.inputs[0], consts[1], consts[2], ws)
        elif other is not None and fn in (np.minimum, np.maximum):
            bounds = (None, other) if fn is np.minimum else (other, None)
            guard = _clamp_guard(node.inputs[one], *bounds, ws)
        else:
            return None
    elif fn in _ORDERINGS and strides in ([1, 0], [0, 1]) \
            and consts[1 - one] is not None:
        guard = _ordering_guard(node.inputs[one], fn, consts[1 - one],
                                one == 0, ws)
    elif fn in _ANDS and strides == [None, None]:
        lanes = [f.lanes for f in ins if f.lanes is not None]
        mask = lanes[0] if len(lanes) == 1 else lanes[0] & lanes[1]
        return _RowForm(None, mask, guards, ands), None
    else:
        return None
    if guard is None:
        return None
    remaps = _NO_GUARDS if ins[one].guards else frozenset((node.id,))
    return _RowForm(1 if is_int else None, None, guards | {node.id},
                    remaps), guard


class _RowAccess(NamedTuple):
    """A chunk-tier global access whose index (and mask) took the row form:
    the mask's compile-time lanes (None: all), the guards whose binding
    rows run per lane, the guard whose remap offsets the index's lanes and
    those whose remaps cut the mask's, the lanes ``[start, stop)`` a row in
    form touches (a store's the same in every warp, one at stride 0) and
    the buffer's size."""

    index: int
    mask: Optional[int]
    stride: int
    lanes: Optional[np.ndarray]
    guards: frozenset
    clamp: Optional[int]
    cuts: Tuple[int, ...]
    run: Tuple[int, int]
    size: int
    store: bool


def _row_access(node, index: Optional[_RowForm], mask: Optional[_RowForm],
                size: int, threads: int, ws: int) -> Optional[_RowAccess]:
    """The row form of one chunk-tier global access, or None: its index is
    a stride-0/1 int and its mask (if any) a bool with a row form; a
    stride-1 store stores one run of lanes in every warp."""
    i_idx, _, i_mask = memory_operands(node)
    store = node.op == "store_global"
    if index is None or index.stride is None or (
            i_mask is not None and (mask is None or mask.stride is not None)):
        return None
    if not store and tuple(node.shape) != (B_AXIS, threads):
        return None
    mask = mask or _RowForm(None, None, _NO_GUARDS)
    run = (0, 1) if not index.stride else (0, ws)
    if index.stride and store and mask.lanes is not None:
        on = np.flatnonzero(mask.lanes[0])
        if (not on.size or on[-1] - on[0] + 1 != on.size
                or not (mask.lanes == mask.lanes[0]).all()):
            return None
        run = int(on[0]), int(on[-1]) + 1
    if run[1] - run[0] > size:
        return None
    plain = (index.guards - index.remaps) | (mask.guards - mask.remaps)
    return _RowAccess(i_idx, i_mask, index.stride, mask.lanes, plain,
                      next(iter(index.remaps - plain), None),
                      tuple(sorted(mask.remaps - plain)), run, size, store)


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
    guards: Dict[int, _Guard] = {}

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
                forms[node.id], guard = found
                if guard is not None:
                    guards[node.id] = guard
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
        W, ws, {i: bases[i] for i in leaves},
        {i: np.reshape(nodes[i].value, (W, ws) if np.ndim(nodes[i].value)
                       else ()) for i in leaves},
        [(i, nodes[i].fn, nodes[i].inputs, nodes[i].kwargs)
         for i in sorted(ops) if nodes[i].op == "pure"],
        {g: guards[g] for g in ops if g in guards},
        accesses, frozenset(removable),
        [i for i in sorted(ops) if nodes[i].op == "input"])


class _Edge(NamedTuple):
    """One access's remapped rows in a chunk: flat positions on the ``(B,
    W)`` grid, index bases, lane offsets (``(n, ws)`` or one row for all),
    the lanes that read or write (None: all) and, for a store whose rows
    never overlap, the rows written whole (None: all go lane by lane)."""

    pos: np.ndarray
    base: np.ndarray
    offsets: np.ndarray
    lanes: Optional[np.ndarray]
    keep: Optional[np.ndarray]


class _ChunkRows(NamedTuple):
    """What the row prologue finds for a chunk: per access ``(row bases, 0
    off the form; active rows or None; rows not per lane, None for all)``
    and remapped rows, and the blocks that run per lane (None: none).  It
    is data-free, so a later launch's chunk of the same blocks (the same
    grid, sampling and place in the schedule) reuses it."""

    addresses: Dict[int, tuple]
    edges: Dict[int, _Edge]
    exact_blocks: Optional[np.ndarray]


def _clip_ints(a, lo, hi):
    """``np.clip`` of integers, through the two ufuncs that define it: on
    a ``(B, W)`` grid np.clip's own wrapper costs more than the clip."""
    return np.minimum(np.maximum(a, lo), hi)


class _RowProgram:
    """The chunk prologue of the row-form accesses, the first chunk step.

    On a ``(B, W)`` grid of warp rows it evaluates the base of every
    row-form index and mask (the node's own op on its operands' bases) and
    each guard's key; then, per access, the rows in form inside the
    buffer, the remapped rows (:class:`_Edge`) and those run per lane.
    """

    def __init__(self, num_warps: int, ws: int, leaves: Dict[int, object],
                 lane_leaves: Dict[int, object], ops: List[tuple],
                 guards: Dict[int, _Guard], accesses: Dict[int, _RowAccess],
                 removable: frozenset, inputs: List[int]) -> None:
        self.num_warps = num_warps
        #: compile-time leaf -> its row base, and its value on the lane grid
        self.leaves, self.lane_leaves = leaves, lane_leaves
        ops = [(nid, partial(fn, **kwargs) if kwargs else
                _clip_ints if fn is np.clip else fn, ids)
               for nid, fn, ids, kwargs in ops]
        #: per-lane rule of each row node: its op and operands
        self.rules = {nid: (fn, ids) for nid, fn, ids in ops}
        #: (node id, fn, operand ids) of the row nodes, trace order, their
        #: keyword arguments bound and an ordering guard's its row base
        self.ops = [(nid, guards[nid].base, (guards[nid].x,))
                    if nid in guards and guards[nid].base else (nid, fn, ids)
                    for nid, fn, ids in ops]
        self.guards, self.accesses = guards, accesses
        #: row nodes with no per-lane step, and the block inputs rows read
        self.removable, self.inputs = removable, inputs
        self.lane = np.arange(ws, dtype=np.int64)
        #: chunk key -> its :class:`_ChunkRows` (a function of its blocks),
        #: and the blocks they cover
        self.memo: Dict[tuple, _ChunkRows] = {}
        self.memo_blocks = 0

    def __call__(self, session: "ReplaySession") -> None:
        key = session.chunk_key
        chunk = None if key is None else self.memo.get(key)
        if chunk is None:
            chunk = self._find(session)
            if key is not None:
                self.memo_blocks += session.B
                if self.memo_blocks > _CHUNK_MEMO_BLOCKS:
                    self.memo.clear()
                    self.memo_blocks = session.B
                self.memo[key] = chunk
        session.chunk_rows = chunk
        session.exact_blocks = chunk.exact_blocks
        session.exact = {}

    def _find(self, session: "ReplaySession") -> "_ChunkRows":
        """Each access's row bases, remapped rows and rows per lane."""
        shape = (session.B, self.num_warps)
        rows = dict(self.leaves)
        rows.update((nid, session.env[nid]) for nid in self.inputs)
        for nid, fn, ids in self.ops:
            rows[nid] = fn(*[rows[i] for i in ids])
        # a row whose lanes would wrap past int64 keys -1: no remap
        wrap = _INT64_MAX - self.lane[-1]
        keys = {g: np.broadcast_to(np.where(rows[guard.x] > wrap, -1,
                                            guard.key(rows[guard.x])), shape)
                for g, guard in self.guards.items()}
        addresses, edges, exact = {}, {}, np.zeros(shape, bool)
        for nid, access in self.accesses.items():
            base = np.broadcast_to(rows[access.index], shape)
            active = rows.get(access.mask, True)
            live = np.broadcast_to(active, shape)
            active = None if np.ndim(active) == 0 and active else active
            bind, remap = np.zeros(shape, bool), np.zeros(shape, bool)
            for g in access.guards:
                bind |= keys[g] != 0
            for g in access.cuts + (() if access.clamp is None
                                    else (access.clamp,)):
                bind |= keys[g] < 0
                remap |= keys[g] > 0
            remap &= live & ~bind
            # a base far outside wraps to a large unsigned value, so this is
            # the whole range check of the lanes a row in form touches
            start, stop = access.run
            form = live & ~bind & ~remap & (np.add(base, start).view(
                np.uint64) <= access.size - stop + start)
            off = bind | (live & ~form & ~remap)
            if remap.any():
                edges[nid], outside = self._edge(access, base, remap, form,
                                                 keys)
                off |= outside
            exact |= off
            addresses[nid] = (base if form.all() else np.where(form, base, 0),
                              active, ~off if off.any() else None)
        blocks = np.flatnonzero(exact.any(axis=1))
        return _ChunkRows(addresses, edges, blocks if blocks.size else None)

    def _edge(self, access: _RowAccess, base, remap, form, keys):
        """``(edge, rows it leaves)``: the remapped rows of one access, and
        those whose reading or writing lanes leave the buffer, which run
        per lane too.  A row's indices never fall along it, so its first
        and last such lane bound them."""
        W, ws = self.num_warps, self.lane.shape[0]
        pos, bases = np.flatnonzero(remap), base[remap]
        offsets = self.lane * access.stride if access.clamp is None else \
            self.guards[access.clamp].table[keys[access.clamp][remap]]
        lanes = None
        if access.mask is not None:
            lanes = np.ones((pos.size, ws), bool) if access.lanes is None \
                else access.lanes[pos % W]
            for g in access.cuts:
                lanes = lanes & self.guards[g].table[keys[g][remap]]
        index = bases[:, None] + offsets
        on = np.ones(index.shape, bool) if lanes is None else lanes
        used, at = on.any(axis=1), np.arange(pos.size)
        first = index[at, on.argmax(axis=1)]
        last = index[at, ws - 1 - on[:, ::-1].argmax(axis=1)]
        outside = np.zeros(remap.shape, bool)
        outside.reshape(-1)[pos[used & ((first < 0) | (last >= access.size))]
                            ] = True
        keep = None
        if access.store:
            keep = form if access.lanes is None else \
                form & access.lanes.any(axis=1)
            start, stop = access.run
            firsts = np.concatenate((base[keep] + start, first[used]))
            lasts = np.concatenate((base[keep] + stop - 1, last[used]))
            order = np.argsort(firsts, kind="stable")
            if not (firsts[order[1:]] > lasts[order[:-1]]).all():
                keep = None
        return _Edge(pos, bases, offsets, lanes, keep), outside

    def exact(self, session: "ReplaySession", nid: int):
        """A row node's per-lane value on the chunk's per-lane blocks."""
        exact = session.exact
        if nid not in exact:
            if nid in self.rules:
                fn, ids = self.rules[nid]
                exact[nid] = fn(*[self.exact(session, i) for i in ids])
            elif nid in self.lane_leaves:
                exact[nid] = self.lane_leaves[nid]
            else:  # a block index, one value per block
                exact[nid] = session.env[nid][session.exact_blocks][..., None]
        return exact[nid]

    def exact_values(self, session: "ReplaySession", *ids):
        """:meth:`exact` of each id (None for None), broadcast."""
        shape = (session.exact_blocks.shape[0], self.num_warps,
                 self.lane.shape[0])
        return [None if i is None else
                np.broadcast_to(self.exact(session, i), shape) for i in ids]


def _row_load(state: _CompileState, node, access: _RowAccess) -> None:
    """A row-form load into the pooled register: one strided-view row per
    warp row (stride 1) or one element broadcast along it (stride 0),
    masked rows and lanes zeroed; the remapped rows then gather their
    lanes, and the blocks that run per lane their per-lane values."""
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
        base, active, fits = session.chunk_rows.addresses[nid]
        if stride:
            rows[...] = session.window(slot, ws)[base]
        else:
            rows[...] = buffer.flat[base][..., None]
        if active is not None and not active.all():
            np.copyto(rows, 0, where=~active[..., None])
        if idle is not None:
            np.copyto(rows, 0, where=idle)
        edge = session.chunk_rows.edges.get(nid)
        if edge is not None:
            # a masked lane may index outside the buffer: clip, then zero it
            values = np.take(buffer.flat, edge.base[:, None] + edge.offsets,
                             mode="clip")
            if edge.lanes is not None:
                values = np.where(edge.lanes, values, 0)
            rows.reshape(B * W, ws)[edge.pos] = values
        if fits is not None:
            idx, lanes = rows_program.exact_values(session, index, mask)
            if lanes is None:
                values = buffer.flat[idx]
            else:
                values = np.zeros(idx.shape, dtype=buffer.dtype)
                values[lanes] = buffer.flat[idx[lanes]]
            rows[session.exact_blocks] = values
        session.env[nid] = out
    state.program.chunk_steps.append(step)


def _row_store(state: _CompileState, node, access: _RowAccess) -> Callable:
    """``place(session)``: the arguments of each
    :func:`~repro.gpu.memory.scatter_global` call of a row-form store.

    A stride-1 store writes its warps' lane run as rows, and a stride-0
    one each warp's last storing lane (the lane the per-lane scatter lets
    win); then, when no two rows' destinations overlap, the remapped rows
    scatter their lanes.  Otherwise the chunk's whole per-lane index and
    mask are scattered in lane order: the rows rebuilt from their bases,
    the remapped rows' lanes, the per-lane blocks' exact values.
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
        base, active, fits = session.chunk_rows.addresses[nid]
        edge = session.chunk_rows.edges.get(nid)
        if active is not None and active.shape != (B, W):
            active = np.broadcast_to(active, (B, W))
        if np.shape(values) != (B, T):
            values = np.broadcast_to(values, (B, T))
        rows = values.reshape(B, W, ws)
        if fits is None and (edge is None or edge.keep is not None):
            keep = active if edge is None else edge.keep
            edges = [] if edge is None else [
                (edge.base[:, None] + edge.offsets,
                 rows.reshape(B * W, ws)[edge.pos], edge.lanes, None)]
            if stride:
                return [(base + start if start else base,
                         rows[:, :, start:stop], keep, stop - start)] + edges
            return [(base[:, warps], rows[:, warps, last],
                     None if keep is None else keep[:, warps], None)] + edges
        full = session.s(idx_slot).reshape(B, W, ws)
        np.add(base[..., None], offsets * stride, out=full)
        full_mask = None
        if mask is not None:
            full_mask = session.s(mask_slot).reshape(B, W, ws)
            full_mask[...] = lanes
            if active is not None:
                full_mask &= active[..., None]
        if edge is not None:
            full.reshape(B * W, ws)[edge.pos] = edge.base[:, None] + \
                edge.offsets
            if mask is not None:
                full_mask.reshape(B * W, ws)[edge.pos] = edge.lanes
        if fits is not None:
            exact = session.exact_blocks
            full[exact], lane_mask = rows_program.exact_values(session, index,
                                                               mask)
            if mask is not None:
                full_mask[exact] = lane_mask
        return [(full, rows, full_mask, None)]
    return place

"""Interval abstract interpretation over trace-IR index expressions.

The verifier reasons about the *data-free* slice of a recorded
:class:`~repro.trace.ir.Trace`: every node whose value is a pure function of
``thread_idx``/``lane``/``warp``/``block_idx`` and host constants.  For those
nodes :class:`RangeAnalysis` computes a sound closed interval ``[lo, hi]``
over the **whole grid** (block indices range over ``[0, grid_dim[axis) - 1]``
symbolically, not just the recorded chunk), which is what the race detector
and bounds checker consume.  Loads from global/shared memory are
data-*dependent*; their intervals collapse to the dtype range, so any bound
proved through them is still sound, just imprecise.

Soundness convention: an interval must always contain every value the node
can take on any launch of the recorded grid.  Unknown operations therefore
widen to TOP (clamped to the node dtype's representable range) rather than
guessing.  An *empty* interval (``lo > hi``) means "no value" — it arises
only from contradictory mask refinements and makes guarded checks vacuously
safe.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..trace.ir import BLOCK_AXES, KIND_THREAD, Trace, compute_data_free
from ..trace.tracer import _astype_fn

_INF = math.inf


class Interval:
    """A closed interval ``[lo, hi]`` over the extended reals."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = float(lo)
        self.hi = float(hi)

    # ------------------------------------------------------------ predicates

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    @property
    def bounded(self) -> bool:
        return not self.empty and math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi and not self.empty

    def contains(self, value: float) -> bool:
        return not self.empty and self.lo <= value <= self.hi

    def __contains__(self, value: float) -> bool:
        return self.contains(value)

    # ---------------------------------------------------------- set algebra

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        if self.empty:
            return other
        if other.empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def overlaps(self, other: "Interval") -> bool:
        return (not self.empty and not other.empty
                and self.lo <= other.hi and other.lo <= self.hi)

    # -------------------------------------------------------------- display

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        if self.empty and other.empty:
            return True
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash(("empty",) if self.empty else (self.lo, self.hi))

    def __repr__(self) -> str:
        if self.empty:
            return "Interval(empty)"
        return f"Interval({self.lo:g}, {self.hi:g})"

    def to_tuple(self) -> Tuple[Optional[float], Optional[float]]:
        def enc(x):
            return None if not math.isfinite(x) else x
        return (enc(self.lo), enc(self.hi))


TOP = Interval(-_INF, _INF)
EMPTY = Interval(_INF, -_INF)
BOOL = Interval(0.0, 1.0)
TRUE = Interval(1.0, 1.0)
FALSE = Interval(0.0, 0.0)


def _smul(x: float, y: float) -> float:
    """Multiplication where 0 * inf = 0 (an exact-zero factor wins)."""
    if x == 0.0 or y == 0.0:
        return 0.0
    return x * y


def _corners(a: Interval, b: Interval, op) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    values = [op(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval(min(values), max(values))


def _add(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    return Interval(a.lo + b.lo, a.hi + b.hi)


def _sub(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    return Interval(a.lo - b.hi, a.hi - b.lo)


def _mul(a: Interval, b: Interval) -> Interval:
    return _corners(a, b, _smul)


def _neg(a: Interval) -> Interval:
    if a.empty:
        return EMPTY
    return Interval(-a.hi, -a.lo)


def _truediv(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    if b.lo <= 0.0 <= b.hi:
        return TOP
    def div(x, y):
        if math.isinf(x) and math.isinf(y):
            return 0.0  # unreachable sign combos collapse; stay sound via hull
        if math.isinf(y):
            return 0.0
        return x / y
    return _corners(a, b, div)


def _floordiv(a: Interval, b: Interval) -> Interval:
    quotient = _truediv(a, b)
    if quotient.empty:
        return EMPTY
    lo = quotient.lo if math.isinf(quotient.lo) else math.floor(quotient.lo)
    hi = quotient.hi if math.isinf(quotient.hi) else math.floor(quotient.hi)
    return Interval(lo, hi)


def _remainder(a: Interval, b: Interval) -> Interval:
    """``np.remainder`` — result sign follows the divisor."""
    if a.empty or b.empty:
        return EMPTY
    if b.lo > 0.0:
        if math.isinf(b.hi):
            return Interval(0.0, _INF)
        # already reduced: 0 <= a < lo(b) for every divisor value
        if a.lo >= 0.0 and a.hi < b.lo:
            return a
        return Interval(0.0, b.hi)
    if b.hi < 0.0:
        if math.isinf(b.lo):
            return Interval(-_INF, 0.0)
        if a.hi <= 0.0 and a.lo > b.hi:
            return a
        return Interval(b.lo, 0.0)
    return TOP


def _power(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    if b.degenerate and float(b.lo).is_integer() and b.lo >= 0.0:
        n = int(b.lo)
        if not a.bounded:
            if n == 0:
                return Interval(1.0, 1.0)
            return TOP
        values = [a.lo ** n, a.hi ** n]
        if n % 2 == 0 and a.lo < 0.0 < a.hi:
            values.append(0.0)
        return Interval(min(values), max(values))
    if a.lo > 0.0 and a.bounded and b.bounded:
        try:
            values = [x ** y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
        except OverflowError:
            return Interval(0.0, _INF)
        return Interval(min(values), max(values))
    return TOP


def _shift(a: Interval, b: Interval, left: bool) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    if not b.bounded or b.lo < 0.0 or not a.bounded:
        return TOP
    def op(x, s):
        factor = 2.0 ** int(s)
        return x * factor if left else math.floor(x / factor)
    return _corners(a, b, op)


def _bitwise_and(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    if a.lo >= 0.0 and b.lo >= 0.0:
        return Interval(0.0, min(a.hi, b.hi))
    return TOP


def _bitwise_or_xor(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    if a.lo >= 0.0 and b.lo >= 0.0 and a.bounded and b.bounded:
        bits = max(int(a.hi), int(b.hi)).bit_length()
        return Interval(0.0, float((1 << bits) - 1))
    return TOP


def _minimum(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def _maximum(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def _abs(a: Interval) -> Interval:
    if a.empty:
        return EMPTY
    if a.lo >= 0.0:
        return a
    if a.hi <= 0.0:
        return Interval(-a.hi, -a.lo)
    return Interval(0.0, max(-a.lo, a.hi))


def _monotone(fn):
    def transfer(a: Interval) -> Interval:
        if a.empty:
            return EMPTY
        lo = a.lo if math.isinf(a.lo) else float(fn(a.lo))
        hi = a.hi if math.isinf(a.hi) else float(fn(a.hi))
        return Interval(lo, hi)
    return transfer


def _sqrt(a: Interval) -> Interval:
    if a.empty:
        return EMPTY
    if a.lo < 0.0:
        return TOP  # NaN territory; refuse to reason
    hi = a.hi if math.isinf(a.hi) else math.sqrt(a.hi)
    return Interval(math.sqrt(a.lo), hi)


def _compare(kind: str, a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    if kind == "lt":
        if a.hi < b.lo:
            return TRUE
        if a.lo >= b.hi:
            return FALSE
    elif kind == "le":
        if a.hi <= b.lo:
            return TRUE
        if a.lo > b.hi:
            return FALSE
    elif kind == "gt":
        return _compare("lt", b, a)
    elif kind == "ge":
        return _compare("le", b, a)
    elif kind == "eq":
        if a.degenerate and b.degenerate and a.lo == b.lo:
            return TRUE
        if not a.overlaps(b):
            return FALSE
    elif kind == "ne":
        if a.degenerate and b.degenerate and a.lo == b.lo:
            return FALSE
        if not a.overlaps(b):
            return TRUE
    return BOOL


def _logical_not(a: Interval) -> Interval:
    if a.empty:
        return EMPTY
    if a == FALSE:
        return TRUE
    if not a.contains(0.0):
        return FALSE
    return BOOL


def _where(c: Interval, x: Interval, y: Interval) -> Interval:
    if c.empty:
        return EMPTY
    if c == FALSE:
        return y
    if not c.contains(0.0):
        return x
    return x.hull(y)


def _clip(x: Interval, lo: Interval, hi: Interval) -> Interval:
    return _minimum(_maximum(x, lo), hi)


#: ufunc/function object -> interval transfer (positional Interval args)
_TRANSFERS = {
    np.add: _add,
    np.subtract: _sub,
    np.multiply: _mul,
    np.true_divide: _truediv,
    np.floor_divide: _floordiv,
    np.remainder: _remainder,
    np.power: _power,
    np.left_shift: lambda a, b: _shift(a, b, True),
    np.right_shift: lambda a, b: _shift(a, b, False),
    np.bitwise_and: _bitwise_and,
    np.bitwise_or: _bitwise_or_xor,
    np.bitwise_xor: _bitwise_or_xor,
    np.minimum: _minimum,
    np.maximum: _maximum,
    np.fmin: _minimum,
    np.fmax: _maximum,
    np.negative: _neg,
    np.positive: lambda a: a,
    np.absolute: _abs,
    np.fabs: _abs,
    np.floor: _monotone(math.floor),
    np.ceil: _monotone(math.ceil),
    np.trunc: _monotone(math.trunc),
    np.rint: _monotone(round),
    np.sqrt: _sqrt,
    np.exp: _monotone(math.exp),
    np.less: lambda a, b: _compare("lt", a, b),
    np.less_equal: lambda a, b: _compare("le", a, b),
    np.greater: lambda a, b: _compare("gt", a, b),
    np.greater_equal: lambda a, b: _compare("ge", a, b),
    np.equal: lambda a, b: _compare("eq", a, b),
    np.not_equal: lambda a, b: _compare("ne", a, b),
    np.logical_and: lambda a, b: (
        EMPTY if (a.empty or b.empty)
        else FALSE if (a == FALSE or b == FALSE)
        else TRUE if (not a.contains(0.0) and not b.contains(0.0))
        else BOOL),
    np.logical_or: lambda a, b: (
        EMPTY if (a.empty or b.empty)
        else TRUE if (not a.contains(0.0) or not b.contains(0.0))
        else FALSE if (a == FALSE and b == FALSE)
        else BOOL),
    np.logical_not: _logical_not,
    np.logical_xor: lambda a, b: BOOL if not (a.empty or b.empty) else EMPTY,
    np.where: _where,
    np.clip: _clip,
}

#: comparison ufuncs usable as mask-refinement conjuncts
_COMPARE_FNS = {np.less: "lt", np.less_equal: "le", np.greater: "gt",
                np.greater_equal: "ge", np.equal: "eq"}


def _dtype_interval(dtype) -> Interval:
    if dtype is None:
        return TOP
    dt = np.dtype(dtype)
    if dt == np.bool_:
        return BOOL
    if dt.kind in "iu":
        info = np.iinfo(dt)
        return Interval(float(info.min), float(info.max))
    return TOP


def _invert_transfer(a: Interval, dtype) -> Interval:
    if a.empty:
        return EMPTY
    if dtype is not None and np.dtype(dtype) == np.bool_:
        return _logical_not(a)
    return Interval(-a.hi - 1.0, -a.lo - 1.0)


def _value_interval(value) -> Interval:
    arr = np.asarray(value)
    if arr.size == 0:
        return EMPTY
    if arr.dtype == np.bool_:
        arr = arr.astype(np.int64)
    return Interval(float(arr.min()), float(arr.max()))


class RangeAnalysis:
    """Sound whole-grid intervals for every value-producing trace node."""

    def __init__(self, trace: Trace, grid_dim: Tuple[int, int, int]):
        self.trace = trace
        self.grid_dim = tuple(int(g) for g in grid_dim)
        self.data_free = compute_data_free(trace)
        self._memo: Optional[Dict[int, Optional[Interval]]] = None

    # ------------------------------------------------------------ transfer

    def _transfer(self, node, memo: Dict[int, Optional[Interval]]
                  ) -> Optional[Interval]:
        iv: Optional[Interval]
        if node.op == "const":
            iv = _value_interval(node.value)
        elif node.op == "input":
            name = node.params["name"]
            if name in BLOCK_AXES:
                extent = self.grid_dim[BLOCK_AXES[name]]
                iv = Interval(0.0, float(max(extent - 1, 0)))
            elif node.kind <= KIND_THREAD and node.value is not None:
                iv = _value_interval(node.value)
            else:  # pragma: no cover - no other inputs are recorded
                iv = TOP
        elif node.op == "pure":
            operands = [memo.get(i) or TOP for i in node.inputs]
            if node.fn is np.invert:
                iv = _invert_transfer(operands[0], node.dtype)
            elif node.fn is _astype_fn:
                target = np.dtype(node.kwargs.get("dtype", node.dtype))
                iv = self._astype(operands[0], target)
            else:
                transfer = _TRANSFERS.get(node.fn)
                iv = transfer(*operands) if transfer is not None else TOP
        elif node.op == "arith":
            operands = [memo.get(i) or TOP for i in node.inputs]
            kind = node.params["kind"]
            if kind == "mad":
                iv = _add(_mul(operands[0], operands[1]), operands[2])
            elif kind == "add":
                iv = _add(operands[0], operands[1])
            else:
                iv = _mul(operands[0], operands[1])
        elif node.op == "shfl":
            # every shuffle result is some lane's input value, so the input
            # interval is a sound (and tight enough) abstraction
            iv = memo.get(node.inputs[0]) or TOP
        elif node.op in ("load_global", "load_shared"):
            iv = TOP
        else:
            return None  # stores / sync / misc / alloc produce no value
        return iv.intersect(_dtype_interval(node.dtype))

    @staticmethod
    def _astype(a: Interval, target: np.dtype) -> Interval:
        if a.empty:
            return EMPTY
        if target == np.bool_:
            if a == FALSE:
                return FALSE
            if not a.contains(0.0):
                return TRUE
            return BOOL
        if target.kind in "iu":
            # numpy casts truncate toward zero, which is monotone
            lo = a.lo if math.isinf(a.lo) else float(math.trunc(a.lo))
            hi = a.hi if math.isinf(a.hi) else float(math.trunc(a.hi))
            return Interval(lo, hi).intersect(_dtype_interval(target))
        return a

    # -------------------------------------------------------------- queries

    def _evaluate(self, overrides: Optional[Dict[int, Interval]] = None
                  ) -> Dict[int, Optional[Interval]]:
        memo: Dict[int, Optional[Interval]] = {}
        for node in self.trace.nodes:  # straight-line: inputs precede uses
            iv = self._transfer(node, memo)
            if iv is not None and overrides and node.id in overrides:
                iv = iv.intersect(overrides[node.id])
            memo[node.id] = iv
        return memo

    def interval(self, node_id: int) -> Interval:
        """Whole-grid interval of one value-producing node (memoised)."""
        if self._memo is None:
            self._memo = self._evaluate()
        iv = self._memo.get(node_id)
        return iv if iv is not None else TOP

    def interval_with(self, node_id: int,
                      overrides: Dict[int, Interval]) -> Interval:
        """Interval of ``node_id`` with extra constraints intersected in.

        Overridden nodes propagate their refinement downstream — used to
        re-evaluate an index under the constraints implied by its guard mask.
        """
        if not overrides:
            return self.interval(node_id)
        memo = self._evaluate(overrides)
        iv = memo.get(node_id)
        return iv if iv is not None else TOP

    # ------------------------------------------------------ mask refinement

    def mask_constraints(self, mask_id: int) -> Dict[int, Interval]:
        """Constraints on operand nodes implied by ``mask`` being True.

        Walks the conjunction structure (``&`` / ``np.logical_and`` over
        booleans) and converts each comparison leaf into interval bounds on
        its non-constant side.  Sound: only *necessary* conditions of the
        mask are emitted, so intersecting them never drops a live thread.
        """
        trace = self.trace
        conjuncts: List[int] = []
        stack = [mask_id]
        while stack:
            nid = stack.pop()
            node = trace.nodes[nid]
            if (node.op == "pure"
                    and node.fn in (np.logical_and, np.bitwise_and)
                    and node.dtype is not None
                    and np.dtype(node.dtype) == np.bool_):
                stack.extend(node.inputs)
            else:
                conjuncts.append(nid)
        constraints: Dict[int, Interval] = {}

        def constrain(nid: int, bound: Interval) -> None:
            if not self.data_free[nid]:
                return
            current = constraints.get(nid, self.interval(nid))
            constraints[nid] = current.intersect(bound)

        for nid in conjuncts:
            node = trace.nodes[nid]
            if node.op != "pure" or node.fn not in _COMPARE_FNS:
                continue
            kind = _COMPARE_FNS[node.fn]
            a, b = node.inputs
            ia, ib = self.interval(a), self.interval(b)
            a_int = self._is_integral(a)
            b_int = self._is_integral(b)
            if kind == "eq":
                constrain(a, ib)
                constrain(b, ia)
                continue
            if kind in ("gt", "ge"):  # a > b  <=>  b < a
                a, b, ia, ib = b, a, ib, ia
                a_int, b_int = b_int, a_int
                kind = "lt" if kind == "gt" else "le"
            strict_adj_a = 1.0 if (kind == "lt" and a_int) else 0.0
            strict_adj_b = 1.0 if (kind == "lt" and b_int) else 0.0
            # a < b (or <=): a is bounded above by hi(b), b below by lo(a)
            if not ib.empty:
                constrain(a, Interval(-_INF, ib.hi - strict_adj_a))
            if not ia.empty:
                constrain(b, Interval(ia.lo + strict_adj_b, _INF))
        return constraints

    def _is_integral(self, node_id: int) -> bool:
        dtype = self.trace.nodes[node_id].dtype
        return dtype is not None and np.dtype(dtype).kind in "iub"

    def guarded_interval(self, index_id: int,
                         mask_id: Optional[int]) -> Interval:
        """Interval of an index node under its (optional) guard mask."""
        if mask_id is None:
            return self.interval(index_id)
        return self.interval_with(index_id, self.mask_constraints(mask_id))

"""Search strategies over the launch-parameter design space.

The tuner used to hard-code one search shape: enumerate every valid point
of every cell, evaluate all of them on the model engine, rank.  That stays
— exhaustive search is cheap on small spaces and is the correctness oracle
for everything else — but it is now one of two :class:`SearchStrategy`
implementations behind a common round-based protocol:

* :class:`ExhaustiveSearch` proposes every point in a single round, in the
  exact (sorted) order the old code enumerated, so job construction, cache
  keys and ``--jobs`` sharding are byte-identical to the pre-strategy tuner.
* :class:`GuidedSearch` is a budgeted local search seeded at the clamped
  paper default: it sweeps one axis at a time (coordinate descent — the
  model's response to P and B is close to separable), keeps the best point
  seen, and repeats until a full cycle brings no improvement or the
  per-cell budget (``budget_fraction`` of the space) is exhausted.  Small
  spaces (``exhaust_threshold`` points or fewer) fall back to exhaustive
  enumeration — a guided pass over four points saves nothing.

A strategy hands out one *session* per tuning cell.  Sessions speak a
two-call protocol — :meth:`~SearchSession.propose` returns the next batch
of unevaluated points, :meth:`~SearchSession.observe` feeds the modelled
times back — so the tuner can gather one round's proposals across *all*
cells into a single executor batch (sharded, cached, deterministic) instead
of searching cell by cell.

Determinism: proposals depend only on the candidate list and the observed
model times (themselves pure functions of the cell), rounds are batched in
cell order, and ties break on the sorted parameter values — the same best
point falls out for any worker count and any cache state.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError

#: fixed axis order of the coordinate-descent sweeps
AXIS_ORDER: Tuple[str, ...] = ("outputs_per_thread", "block_threads",
                               "block_rows")

#: canonical hashable identity of one candidate point
PointKey = Tuple[Tuple[str, int], ...]


def point_key(plan_kwargs: Mapping[str, int]) -> PointKey:
    """Canonical hashable identity of an override point."""
    return tuple(sorted((str(k), int(v)) for k, v in dict(plan_kwargs).items()))


def _coordinate(point: Mapping[str, int], axis: str) -> Optional[int]:
    """A point's coordinate on one axis; absent axes read as constants.

    Candidate points are canonical — ``block_rows=1`` is never spelled out
    — so two points differing only in an elided R=1 still compare equal on
    every other axis.  An axis a scenario does not tune at all (a B-only
    kernel has no P coordinate) reads as ``None`` on every point: one
    value, so it is never treated as a searchable axis.
    """
    if axis in point:
        return int(point[axis])
    if axis == "block_rows":
        return 1
    return None


class SearchSession:
    """Per-cell search state behind the propose/observe protocol.

    The base class implements the bookkeeping every strategy needs — the
    candidate list, the observed times, the best-so-far point with
    deterministic tie-breaking — and leaves :meth:`_next_batch` to the
    strategy.
    """

    def __init__(self, points: Sequence[Mapping[str, int]],
                 seed: Optional[Mapping[str, int]] = None) -> None:
        self.points: List[Dict[str, int]] = [dict(p) for p in points]
        # one copy of each point: callers only ever receive copies of it
        self._by_key: Dict[PointKey, Dict[str, int]] = {
            point_key(p): p for p in self.points}
        self.seed: Optional[Dict[str, int]] = (
            dict(seed) if seed is not None and point_key(seed) in self._by_key
            else (dict(self.points[0]) if self.points else None))
        self.observed: Dict[PointKey, float] = {}
        self.order: List[PointKey] = []   # evaluation order
        self._pending: List[PointKey] = []

    # -- protocol ------------------------------------------------------------
    def propose(self) -> List[Dict[str, int]]:
        """The next batch of points to evaluate (empty when converged)."""
        if self._pending:
            raise ConfigurationError(
                "propose() called with observations outstanding")
        batch = [key for key in self._next_batch()
                 if key in self._by_key and key not in self.observed]
        # preserve first-proposal order while deduplicating within the batch
        seen = set()
        self._pending = [k for k in batch
                         if not (k in seen or seen.add(k))]
        return [dict(self._by_key[k]) for k in self._pending]

    def observe(self, times: Mapping[PointKey, float]) -> None:
        """Feed back the modelled time of every point of the last batch."""
        for key in self._pending:
            if key not in times:
                raise ConfigurationError(
                    f"no observation for proposed point {dict(key)!r}")
            self.observed[key] = float(times[key])
            self.order.append(key)
        self._pending = []

    # -- state ---------------------------------------------------------------
    @property
    def evaluations(self) -> int:
        return len(self.observed)

    def best(self) -> Optional[Tuple[Dict[str, int], float]]:
        """Best observed (point, model_ms); ties break on parameter values."""
        if not self.observed:
            return None
        key = min(self.observed, key=lambda k: (self.observed[k], k))
        return dict(self._by_key[key]), self.observed[key]

    def evaluated_points(self) -> List[Dict[str, int]]:
        """Every evaluated point, in deterministic (sorted-key) order."""
        return [dict(self._by_key[k]) for k in sorted(self.observed)]

    # -- strategy hook -------------------------------------------------------
    def _next_batch(self) -> List[PointKey]:
        raise NotImplementedError


class _ExhaustiveSession(SearchSession):
    """Every candidate point, one round, enumeration order."""

    def _next_batch(self) -> List[PointKey]:
        if self.observed:
            return []
        return [point_key(p) for p in self.points]


class _GuidedSession(SearchSession):
    """Budgeted coordinate descent seeded at the clamped paper default."""

    def __init__(self, points: Sequence[Mapping[str, int]],
                 seed: Optional[Mapping[str, int]] = None,
                 budget_fraction: float = 0.4,
                 exhaust_threshold: int = 8) -> None:
        super().__init__(points, seed)
        n = len(self.points)
        self.exhaust = n <= exhaust_threshold
        self.budget = n if self.exhaust else max(1, int(budget_fraction * n))
        self._axes = [axis for axis in AXIS_ORDER
                      if len({_coordinate(p, axis) for p in self.points}) > 1]
        self._axis_index = 0
        self._anchor: Optional[PointKey] = None   # best when the cycle began
        self._improved_this_cycle = True

    def _axis_sweep(self, axis: str, centre: Dict[str, int]) -> List[PointKey]:
        """All candidates differing from ``centre`` only on ``axis``."""
        keys = []
        for p in sorted(self.points,
                        key=lambda q: _coordinate(q, axis)):
            if all(_coordinate(p, other) == _coordinate(centre, other)
                   for other in AXIS_ORDER if other != axis):
                keys.append(point_key(p))
        return keys

    def _next_batch(self) -> List[PointKey]:
        if self.exhaust:
            return [] if self.observed else [point_key(p) for p in self.points]
        if not self.points or self.seed is None:
            return []
        remaining = self.budget - self.evaluations
        if remaining <= 0:
            return []
        if not self.observed:
            # first round: sweep the first axis through the seed; the seed
            # leads the batch so the budget truncation can never cut it off
            batch = self._axis_sweep(self._axes[0] if self._axes else
                                     AXIS_ORDER[0], self.seed)
            seed_key = point_key(self.seed)
            batch = [seed_key] + [k for k in batch if k != seed_key]
            self._axis_index = 1
            return batch[:remaining]
        best = self.best()
        assert best is not None
        centre, _ = best
        while True:
            if self._axis_index >= len(self._axes):
                # cycle complete: stop at a fixed point, else go around again
                if not self._improved_this_cycle:
                    return []
                self._axis_index = 0
                self._improved_this_cycle = False
                self._anchor = point_key(centre)
            if not self._axes:
                return []
            axis = self._axes[self._axis_index]
            self._axis_index += 1
            if self._anchor is not None and point_key(centre) != self._anchor:
                self._improved_this_cycle = True
            batch = [k for k in self._axis_sweep(axis, centre)
                     if k not in self.observed]
            if batch:
                return batch[:remaining]
            if self._axis_index >= len(self._axes) and not self._improved_this_cycle:
                return []


class SearchStrategy:
    """A named search shape; hands out one session per tuning cell."""

    name = "base"

    def session(self, points: Sequence[Mapping[str, int]],
                seed: Optional[Mapping[str, int]] = None) -> SearchSession:
        raise NotImplementedError


class ExhaustiveSearch(SearchStrategy):
    """Evaluate every valid point — small spaces, and the search oracle."""

    name = "exhaustive"

    def session(self, points: Sequence[Mapping[str, int]],
                seed: Optional[Mapping[str, int]] = None) -> SearchSession:
        return _ExhaustiveSession(points, seed)


class GuidedSearch(SearchStrategy):
    """Budgeted coordinate descent from the clamped paper default.

    ``budget_fraction`` caps each cell's model evaluations at that fraction
    of its candidate-space size; spaces of ``exhaust_threshold`` points or
    fewer are enumerated outright (the budget arithmetic would only add
    noise there).
    """

    name = "guided"

    def __init__(self, budget_fraction: float = 0.4,
                 exhaust_threshold: int = 8) -> None:
        if not 0 < budget_fraction <= 1:
            raise ConfigurationError(
                f"budget_fraction must lie in (0, 1], got {budget_fraction}")
        self.budget_fraction = float(budget_fraction)
        self.exhaust_threshold = int(exhaust_threshold)

    def session(self, points: Sequence[Mapping[str, int]],
                seed: Optional[Mapping[str, int]] = None) -> SearchSession:
        return _GuidedSession(points, seed,
                              budget_fraction=self.budget_fraction,
                              exhaust_threshold=self.exhaust_threshold)


#: the registered strategies, by CLI/service name
STRATEGIES: Dict[str, type] = {
    ExhaustiveSearch.name: ExhaustiveSearch,
    GuidedSearch.name: GuidedSearch,
}


def get_strategy(name: "str | SearchStrategy") -> SearchStrategy:
    """Resolve a strategy by name (an instance passes through unchanged)."""
    if isinstance(name, SearchStrategy):
        return name
    try:
        return STRATEGIES[name]()
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown search strategy {name!r}; "
            f"available: {sorted(STRATEGIES)}") from exc


def budget_for(n_points: int, budget_fraction: float = 0.4,
               exhaust_threshold: int = 8) -> int:
    """The evaluation cap a guided session applies to a space of ``n`` points."""
    if n_points <= exhaust_threshold:
        return n_points
    return max(1, int(math.floor(budget_fraction * n_points)))

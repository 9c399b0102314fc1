"""Dependency graphs D of the SSAM formulation (Sections 3.4 and 5.4).

The partial-sum transfer path of an SSAM kernel is a directed acyclic graph
whose nodes are ``(lane, stage)`` pairs inside one warp and whose edges say
where a partial result travels between computation stages.  Edges within a
lane are free register reads (the "vertical" direction of Figure 1d); edges
between lanes must be realised with warp shuffles (the "horizontal"
direction) and therefore carry a latency cost — Section 5.4's point is that
choosing D to minimise horizontal transfers is what makes an SSAM mapping
fast.

Graphs are :class:`DependencyGraph` instances: a small directed graph
holding graph, node and edge attributes plus the one traversal the analysis
needs, a topological order (for the cycle check and the critical path).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import DependencyError
from ..gpu.architecture import get_architecture

#: node key inside a dependency graph
Node = Tuple[int, int]  # (lane, stage)


class DependencyGraph:
    """A directed graph D with attribute dicts on the graph, nodes and edges.

    ``graph`` holds the graph attributes (``kind``, ``warp_size``, ...);
    ``nodes`` maps each node, in insertion order, to its attribute dict;
    :meth:`edge` returns the attribute dict of one edge.  Adding an existing
    node or edge updates its attributes, and :meth:`add_edge` adds missing
    endpoints without attributes.
    """

    def __init__(self, **attrs: object) -> None:
        self.graph: Dict[str, object] = dict(attrs)
        self.nodes: Dict[Node, Dict[str, object]] = {}
        self._succ: Dict[Node, Dict[Node, Dict[str, object]]] = {}
        self._pred: Dict[Node, Dict[Node, Dict[str, object]]] = {}

    def add_node(self, node: Node, **attrs: object) -> None:
        if node not in self.nodes:
            self.nodes[node] = {}
            self._succ[node] = {}
            self._pred[node] = {}
        self.nodes[node].update(attrs)

    def add_edge(self, source: Node, target: Node, **attrs: object) -> None:
        self.add_node(source)
        self.add_node(target)
        data = self._succ[source].setdefault(target, {})
        data.update(attrs)
        self._pred[target][source] = data

    def edge(self, source: Node, target: Node) -> Dict[str, object]:
        return self._succ[source][target]

    def edges(self) -> Iterator[Tuple[Node, Node, Dict[str, object]]]:
        """``(source, target, attrs)`` triples in source-insertion order."""
        for source, targets in self._succ.items():
            for target, attrs in targets.items():
                yield source, target, attrs

    def predecessors(self, node: Node) -> Iterator[Node]:
        return iter(self._pred[node])

    def number_of_nodes(self) -> int:
        return len(self.nodes)

    def number_of_edges(self) -> int:
        return sum(len(targets) for targets in self._succ.values())

    def topological_order(self) -> List[Node]:
        """Kahn's algorithm; raises :class:`DependencyError` on a cycle."""
        indegree = {node: len(preds) for node, preds in self._pred.items()}
        ready = [node for node, degree in indegree.items() if degree == 0]
        order: List[Node] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for target in self._succ[node]:
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
        if len(order) != len(self.nodes):
            raise DependencyError("dependency graph has a cycle")
        return order


def _add_stage_nodes(graph: DependencyGraph, stage: int, warp_size: int,
                     mads: int = 1) -> None:
    for lane in range(warp_size):
        graph.add_node((lane, stage), lane=lane, stage=stage, mads=mads)


def convolution_dependency(filter_width: int, warp_size: int = 32,
                           mads_per_stage: int = 1) -> DependencyGraph:
    """Dependency graph of the SSAM convolution (Figure 2c).

    Stage ``m`` computes the inner product with filter column ``w_m``; the
    partial sum then moves one lane up (``shfl_up`` by 1) before stage
    ``m+1`` accumulates onto it.
    """
    if filter_width < 1:
        raise DependencyError("filter width must be >= 1")
    if filter_width > warp_size:
        raise DependencyError("filter width cannot exceed the warp size")
    graph = DependencyGraph(kind="convolution", warp_size=warp_size)
    for stage in range(filter_width):
        _add_stage_nodes(graph, stage, warp_size, mads=mads_per_stage)
    for stage in range(1, filter_width):
        for lane in range(warp_size):
            source = lane - 1
            if source >= 0:
                graph.add_edge((source, stage - 1), (lane, stage),
                               kind="shuffle", delta=1)
    return graph


def stencil_dependency(column_offsets: Sequence[int], warp_size: int = 32,
                       taps_per_column: Optional[Sequence[int]] = None) -> DependencyGraph:
    """Dependency graph of a 2-D stencil grouped by x-offset columns.

    ``column_offsets`` are the distinct x offsets of the stencil in
    ascending order (Listing 2 groups the 5-point stencil into the columns
    ``[-1, 0, +1]``); consecutive columns are ``delta = dx_{j+1} - dx_j``
    lanes apart, each realised by a ``shfl_up`` of that delta.
    """
    offsets = list(column_offsets)
    if not offsets:
        raise DependencyError("a stencil needs at least one column")
    if offsets != sorted(offsets):
        raise DependencyError("column offsets must be sorted ascending")
    if len(set(offsets)) != len(offsets):
        raise DependencyError("column offsets must be distinct")
    if taps_per_column is not None and len(taps_per_column) != len(offsets):
        raise DependencyError("taps_per_column must match column_offsets")
    graph = DependencyGraph(kind="stencil", warp_size=warp_size,
                            column_offsets=tuple(offsets))
    for stage, _offset in enumerate(offsets):
        mads = 1 if taps_per_column is None else int(taps_per_column[stage])
        _add_stage_nodes(graph, stage, warp_size, mads=mads)
    for stage in range(1, len(offsets)):
        delta = offsets[stage] - offsets[stage - 1]
        for lane in range(warp_size):
            source = lane - delta
            if 0 <= source < warp_size:
                graph.add_edge((source, stage - 1), (lane, stage),
                               kind="shuffle", delta=delta)
    return graph


def scan_dependency(warp_size: int = 32) -> DependencyGraph:
    """Kogge–Stone inclusive-scan dependency graph (Figure 1e)."""
    if warp_size <= 0 or warp_size & (warp_size - 1):
        raise DependencyError("warp size must be a power of two")
    stages = warp_size.bit_length() - 1
    graph = DependencyGraph(kind="scan", warp_size=warp_size)
    for stage in range(stages + 1):
        _add_stage_nodes(graph, stage, warp_size, mads=1)
    for stage in range(1, stages + 1):
        delta = 1 << (stage - 1)
        for lane in range(warp_size):
            graph.add_edge((lane, stage - 1), (lane, stage), kind="local", delta=0)
            source = lane - delta
            if source >= 0:
                graph.add_edge((source, stage - 1), (lane, stage),
                               kind="shuffle", delta=delta)
    return graph


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def validate_dependency(graph: DependencyGraph, warp_size: Optional[int] = None) -> None:
    """Check that D is executable by a single warp.

    Raises :class:`DependencyError` when the graph is cyclic, references
    lanes outside the warp, moves data backwards in stage order, or requires
    different shuffle deltas within one stage (which a single warp-uniform
    shuffle instruction cannot realise).
    """
    if graph.number_of_nodes() == 0:
        raise DependencyError("dependency graph is empty")
    if warp_size is None:
        warp_size = int(graph.graph.get("warp_size", 32))
    graph.topological_order()  # raises on a cycle
    for (lane, stage) in graph.nodes:
        if not 0 <= lane < warp_size:
            raise DependencyError(f"node lane {lane} outside the warp of {warp_size}")
        if stage < 0:
            raise DependencyError("negative stage index")
    deltas_by_stage: Dict[int, set] = {}
    for (src_lane, src_stage), (dst_lane, dst_stage), data in graph.edges():
        if dst_stage != src_stage + 1:
            raise DependencyError("edges must connect consecutive stages")
        delta = dst_lane - src_lane
        if data.get("kind") == "shuffle":
            if delta == 0:
                raise DependencyError("shuffle edge with zero lane delta")
            deltas_by_stage.setdefault(dst_stage, set()).add(delta)
        elif delta != 0:
            raise DependencyError("local edge changes lanes without a shuffle")
    for stage, deltas in deltas_by_stage.items():
        if len(deltas) > 1:
            raise DependencyError(
                f"stage {stage} needs shuffle deltas {sorted(deltas)}; a warp can "
                "only apply one delta per shuffle instruction"
            )


def shuffle_schedule(graph: DependencyGraph) -> List[int]:
    """Per-stage shuffle deltas (0 when a stage needs no lane exchange)."""
    validate_dependency(graph)
    stages = max(stage for _, stage in graph.nodes)
    schedule: List[int] = []
    for stage in range(1, stages + 1):
        deltas = {
            data["delta"]
            for _, (_, dst_stage), data in graph.edges()
            if dst_stage == stage and data.get("kind") == "shuffle"
        }
        schedule.append(int(deltas.pop()) if deltas else 0)
    return schedule


def shuffle_count(graph: DependencyGraph) -> int:
    """Number of warp shuffle instructions required per output row."""
    return sum(1 for delta in shuffle_schedule(graph) if delta != 0)


def critical_path_cycles(graph: DependencyGraph, architecture: object = "p100") -> float:
    """Latency of D's critical path using the architecture's Table 2 values.

    Node cost = (MADs at that stage) x T_mad; shuffle edges add T_shfl.
    This is the quantity Section 5.4 proposes for comparing candidate
    dependency graphs of the same algorithm.
    """
    validate_dependency(graph)
    arch = get_architecture(architecture)
    lat = arch.latencies
    longest: Dict[Node, float] = {}
    for node in graph.topological_order():
        mads = graph.nodes[node].get("mads", 1)
        own_cost = mads * lat.fma
        best_in = 0.0
        for pred in graph.predecessors(node):
            edge = graph.edge(pred, node)
            edge_cost = lat.shfl if edge.get("kind") == "shuffle" else lat.register
            best_in = max(best_in, longest[pred] + edge_cost)
        longest[node] = best_in + own_cost
    return max(longest.values())


def horizontal_transfer_fraction(graph: DependencyGraph) -> float:
    """Fraction of edges that are (expensive) lane-crossing shuffles."""
    total = graph.number_of_edges()
    if total == 0:
        return 0.0
    shuffles = sum(1 for _, _, d in graph.edges() if d.get("kind") == "shuffle")
    return shuffles / total


def compare_dependencies(graphs: Dict[str, DependencyGraph],
                         architecture: object = "p100") -> List[Tuple[str, float]]:
    """Rank candidate dependency graphs by critical-path latency (Section 5.4)."""
    ranked = [(name, critical_path_cycles(graph, architecture)) for name, graph in graphs.items()]
    return sorted(ranked, key=lambda item: item[1])

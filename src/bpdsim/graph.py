"""Directed weighted graphs with exact rational edge weights.

Weights are exact rationals so path costs compare exactly; protocol distance
tables and the Dijkstra reference below must agree to the bit, not to a float
tolerance. Graph edges hold `fractions.Fraction`; the protocol counts path
costs as ints in one unit (see `groups`).
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction

NodeId = str
Edge = tuple[NodeId, NodeId]


@dataclass
class DirectedGraph:
    """Simple digraph: no self-loops, at most one edge per ordered pair."""

    nodes: tuple[NodeId, ...]
    edges: dict[Edge, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.nodes = tuple(sorted(set(self.nodes)))
        known = set(self.nodes)
        for (u, v), w in self.edges.items():
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if u not in known or v not in known:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
            if w.numerator <= 0:  # the sign of a Fraction; an int compare is far cheaper
                raise ValueError(f"edge ({u!r}, {v!r}) has non-positive weight {w}")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def max_weight(self) -> Fraction:
        if not self.edges:
            return Fraction(0)
        return max(self.edges.values())


def dijkstra(graph: DirectedGraph, src: NodeId) -> dict[NodeId, Fraction]:
    """Exact single-source shortest path costs; unreachable nodes are absent.

    The result includes ``src`` itself with cost 0.
    """
    if src not in graph.nodes:
        raise KeyError(src)
    adj: dict[NodeId, list[tuple[NodeId, Fraction]]] = {n: [] for n in graph.nodes}
    for (u, v), w in graph.edges.items():
        adj[u].append((v, w))
    for lst in adj.values():
        lst.sort()
    dist: dict[NodeId, Fraction] = {src: Fraction(0)}
    done: set[NodeId] = set()
    heap: list[tuple[Fraction, NodeId]] = [(Fraction(0), src)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u]:
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def all_pairs_costs(graph: DirectedGraph) -> dict[NodeId, dict[NodeId, Fraction]]:
    return {n: dijkstra(graph, n) for n in graph.nodes}


def random_sc_digraph(
    n: int, seed: int, weights: tuple = (1, 2), extra_p: float = 0.25
) -> DirectedGraph:
    """Strongly connected by construction: hidden Hamiltonian cycle plus
    random extra edges."""
    rng = random.Random(f"corpus:{n}:{seed}")
    nodes = [f"n{i}" for i in range(n)]
    order = nodes[:]
    rng.shuffle(order)
    edges = {}
    for i, u in enumerate(order):
        edges[(u, order[(i + 1) % n])] = Fraction(rng.choice(weights))
    for u in nodes:
        for v in nodes:
            if u != v and (u, v) not in edges and rng.random() < extra_p:
                edges[(u, v)] = Fraction(rng.choice(weights))
    return DirectedGraph(nodes=tuple(nodes), edges=edges)


def is_strongly_connected(graph: DirectedGraph) -> bool:
    """True iff every node reaches every other (single node counts).

    A node with no in-link or no out-link fails at once; otherwise one pass
    over the edges builds successor and predecessor lists, and a search from
    the first node along each must reach every node.
    """
    nodes, edges = graph.nodes, graph.edges
    n = len(nodes)
    if n <= 1:
        return True
    if len({u for u, _ in edges}) < n or len({v for _, v in edges}) < n:
        return False
    succ: dict[NodeId, list[NodeId]] = {v: [] for v in nodes}
    pred: dict[NodeId, list[NodeId]] = {v: [] for v in nodes}
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)
    for adj in (succ, pred):
        seen, stack = {nodes[0]}, [nodes[0]]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) < n:
            return False
    return True

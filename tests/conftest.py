"""Shared fixtures: oracle implementations and frozen random corpora.

The brute-force oracle enumerates simple paths, so it is exponential and
only used on small graphs; it exists to validate the Dijkstra oracle,
which in turn checks the protocol. `DeOracle` is the dict-per-node
dissemination bookkeeping that the simulator's receipt vectors replace.
Corpus generators (`bpdsim.graph.random_sc_digraph` and those built on it)
are seeded with stable strings so every test run sees identical graphs.
"""
from collections import deque
from fractions import Fraction

import pytest

from bpdsim.bpd import DiscoverMsg, GrpAns, GrpQry, JoinRep, JoinReq, UpdateMsg
from bpdsim.graph import DirectedGraph, random_sc_digraph
from bpdsim.simnet import FaultEvent, MembershipEvent

# the six wire message types, each naming its `BpdNode` handler in `handler`
WIRE_MESSAGES = (DiscoverMsg, UpdateMsg, JoinReq, JoinRep, GrpQry, GrpAns)

# the ten-link base used across measurement tests: two-cycle {a,b} and
# cycle {d,e,f} joined only through c; worst directed distance d->b = 5
BASE10_EDGES = (
    ("a", "b"),
    ("a", "c"),
    ("b", "a"),
    ("c", "a"),
    ("c", "f"),
    ("d", "e"),
    ("e", "f"),
    ("f", "c"),
    ("f", "d"),
    ("f", "e"),
)


def make_graph(edges, weights=None):
    nodes = tuple(sorted({n for e in edges for n in e}))
    wmap = {}
    for i, e in enumerate(edges):
        w = 1 if weights is None else weights[i]
        wmap[e] = Fraction(w)
    return DirectedGraph(nodes=nodes, edges=wmap)


@pytest.fixture
def base10():
    return make_graph(BASE10_EDGES)


def brute_force_costs(graph, src):
    """Exact shortest directed path costs by simple-path enumeration."""
    best = {src: Fraction(0)}
    succ = {n: [] for n in graph.nodes}
    for (u, v), w in sorted(graph.edges.items()):
        succ[u].append((v, w))

    def walk(u, cost, seen):
        for v, w in succ[u]:
            if v in seen:
                continue
            nxt = cost + w
            if v not in best or nxt < best[v]:
                best[v] = nxt
            walk(v, nxt, seen | {v})

    walk(src, Fraction(0), {src})
    return best


def bfs_hops(graph, src):
    """Unweighted hop distances from src (src -> 0); unreachable nodes are absent."""
    succ = {n: [] for n in graph.nodes}
    for u, v in graph.edges:
        succ[u].append(v)
    hops = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


class DeOracle:
    """Dissemination efficiency kept the plain way: one dict per node from
    origin to the round of its last fresh receipt, fed one receipt at a
    time, rescanned for the window and the alive set every round."""

    def __init__(self, roster):
        self.roster = list(roster)
        self.hist = {n: {} for n in self.roster}

    def record(self, node, origin, round):
        if origin != node:
            self.hist[node][origin] = round

    def purge(self, node, round, window):
        hist = self.hist[node]
        for src in [s for s, r in hist.items() if r < round - window]:
            del hist[src]

    def de(self, node, alive):
        if len(self.roster) <= 1:
            return 1.0
        fresh = {s for s in self.hist[node] if s in alive and s != node}
        return (1 + len(fresh)) / len(self.roster)


def memberships(w, kind=None):
    """The world's logged joins and departures in log order, only those of
    `kind` ("MemberJoined" or "MemberLeft") if given."""
    return [r for r in w.log if isinstance(r, MembershipEvent) and kind in (None, r.kind)]


def repair_delays(log):
    """Per repair join (reason "repair:..."), its round minus the round of
    the latest crash logged before it, 0 if none was."""
    delays, last_crash = [], 0
    for r in log:
        if isinstance(r, FaultEvent) and r.action == "crash":
            last_crash = r.round
        elif isinstance(r, MembershipEvent) and r.reason.startswith("repair:"):
            delays.append(r.round - last_crash)
    return delays


def corpus_graph(i):
    """Graph i of the frozen 100-graph mixed-weight corpus (N in 4..12)."""
    return random_sc_digraph(4 + i % 9, 1000 + i)


# designated error class, line and column for every invalid topology file
# (column 0: an error about a whole statement or file, not one token)
INVALID_TL = {
    "bad_rational.tl": ("TopLinkSyntaxError", 4, 17),
    "custom_nolinks.tl": ("PresetMismatchError", 1, 0),
    "duplicate_link.tl": ("DuplicateLinkError", 6, 3),
    "duplicate_peer.tl": ("DuplicatePeerError", 2, 15),
    "fanout_too_big.tl": ("InvalidFanoutError", 1, 0),
    "fanout_zero.tl": ("InvalidFanoutError", 1, 17),
    "missing_nodes.tl": ("TopLinkSyntaxError", 3, 0),
    "missing_semicolon.tl": ("TopLinkSyntaxError", 2, 1),
    "preset_links.tl": ("PresetMismatchError", 3, 0),
    "self_link.tl": ("SelfLinkError", 5, 3),
    "unknown_keyword.tl": ("UnknownKeywordError", 2, 1),
    "unknown_peer.tl": ("UnknownPeerError", 5, 8),
    "zero_rational_weight.tl": ("NonPositiveWeightError", 5, 17),
    "zero_weight.tl": ("NonPositiveWeightError", 4, 17),
}

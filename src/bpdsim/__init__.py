"""Bounded-path overlay dissemination: model, protocol, and simulator."""

from .bpd import BpdNode, default_threshold
from .graph import DirectedGraph, all_pairs_costs, dijkstra, is_strongly_connected
from .groups import Group, GroupAssignment, effective_graph, form_groups
from .simnet import FaultEvent, SimConfig, World
from .toplink import TopologySpec, build_graph, parse_toplink, parse_toplink_file, pretty_print
from .workloads import AllToAll, Bpd, Gossip, Unmodified

__all__ = [
    "AllToAll",
    "Bpd",
    "BpdNode",
    "DirectedGraph",
    "FaultEvent",
    "Gossip",
    "Group",
    "GroupAssignment",
    "SimConfig",
    "TopologySpec",
    "Unmodified",
    "World",
    "all_pairs_costs",
    "build_graph",
    "default_threshold",
    "dijkstra",
    "effective_graph",
    "form_groups",
    "is_strongly_connected",
    "parse_toplink",
    "parse_toplink_file",
    "pretty_print",
]

__version__ = "0.1.0"

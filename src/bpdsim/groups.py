"""Send/receive group overlay derived from a communication digraph.

Every source peer's out-links are partitioned by weight; each weight class
becomes one group with the source as sender and the link targets as
receivers. A source with one class owns group ``g.<src>``; one with several
owns ``g.<src>.<i>``, i = 0, 1, ... in ascending weight order. Peer names may
hold dots, so two peers' ids can meet; `form_groups` rejects such a
collision (`GroupIdError`) rather than let one group replace another. A
peer may later join further groups in either role (repair and
path-shortening both work by adding memberships, never removing them), so a
group can end up with several senders. The projection back to a digraph is
`effective_graph`: one edge per (alive sender, alive receiver) pair.

A group broadcast goes to every member but the emitter, in sorted order.
`Group.fanout` computes that tuple once per emitter, and
`Group.sorted_receivers` the group's receivers in sorted order, which is who
application data sent on the group reaches; each is kept until the group's
membership next changes: `form_groups`, `join_group` and `leave_all` are the
only code that changes memberships, and the last two clear the caches of each
group they change. A tuple handed out is never altered, so a message that
holds one keeps the destinations it was emitted to.

Path costs are ints: a group's weight is its link weight times the
assignment's `unit`, the LCM of the link weights' denominators, and a
threshold t is floor(t * unit) (`bound`). Scaling keeps every sum and
comparison, and an int cost is <= floor(t * unit) exactly when its value,
cost / unit (`exact`), is <= t; so the protocol decides as on exact weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter

from .graph import DirectedGraph, Edge, NodeId

GroupId = str

SENDER = "sender"
RECEIVER = "receiver"


class UnknownGroupError(KeyError):
    pass


class GroupIdError(ValueError):
    """Two peers' groups would get the same id."""


@dataclass
class Group:
    gid: GroupId
    weight: int  # in the assignment's unit
    senders: set[NodeId] = field(default_factory=set)
    receivers: set[NodeId] = field(default_factory=set)
    # emitter -> sorted members other than it; valid until membership changes
    _fanout: dict[NodeId, tuple[NodeId, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # the receivers, sorted; valid until membership changes
    _receivers: tuple[NodeId, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def members(self) -> set[NodeId]:
        return self.senders | self.receivers

    def fanout(self, emitter: NodeId) -> tuple[NodeId, ...]:
        """The members other than `emitter`, sorted: who a broadcast reaches."""
        dsts = self._fanout.get(emitter)
        if dsts is None:
            dsts = self._fanout[emitter] = tuple(sorted(self.members - {emitter}))
        return dsts

    def sorted_receivers(self) -> tuple[NodeId, ...]:
        """The receivers, sorted: who data sent on the group reaches."""
        if self._receivers is None:
            self._receivers = tuple(sorted(self.receivers))
        return self._receivers

    def _membership_changed(self) -> None:
        """Drop every cached tuple; called by each change to the member sets."""
        self._fanout.clear()
        self._receivers = None

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class GroupAssignment:
    """All groups by id, plus a per-node index of the groups each node sends
    and receives on, in gid order.

    `form_groups`, `join_group` and `leave_all` are the only code that
    changes memberships; each keeps the index in step with the member sets,
    and the last two clear the cached tuples of every group they change.
    """

    groups: dict[GroupId, Group] = field(default_factory=dict)
    unit: int = 1  # a weight or path cost of c stands for c / unit
    _sends: dict[NodeId, tuple[Group, ...]] = field(default_factory=dict, init=False, repr=False)
    _recvs: dict[NodeId, tuple[Group, ...]] = field(default_factory=dict, init=False, repr=False)

    def send_groups(self, node: NodeId) -> tuple[Group, ...]:
        return self._sends.get(node, ())

    def recv_groups(self, node: NodeId) -> tuple[Group, ...]:
        return self._recvs.get(node, ())

    def exact(self, cost: int) -> Fraction:
        """The exact value of a weight or path cost."""
        return Fraction(cost, self.unit)

    def bound(self, thresh: Fraction) -> int:
        """floor(thresh * unit): the largest cost whose exact value is <= thresh."""
        return thresh.numerator * self.unit // thresh.denominator


def form_groups(graph: DirectedGraph) -> GroupAssignment:
    """One group per (source, out-link weight class), and the per-node index.

    Ids follow the module's rule; a collision, such as ``a``'s class 0 and
    the one group of ``a.0`` (both ``g.a.0``), raises `GroupIdError`. This
    is the one place group weights are made, so it is where the unit is
    chosen (1 for no edges).
    """
    unit = math.lcm(*(w.denominator for w in graph.edges.values()))
    # keyed by int cost, which keeps the order and hashes in C, not in Python
    by_src: dict[NodeId, dict[int, set[NodeId]]] = {}
    for (src, dst), w in graph.edges.items():
        cost = w.numerator * (unit // w.denominator)
        by_src.setdefault(src, {}).setdefault(cost, set()).add(dst)
    assignment = GroupAssignment(unit=unit)
    groups = assignment.groups
    for src in graph.nodes:
        classes = sorted(by_src.get(src, {}).items())
        for i, (cost, dsts) in enumerate(classes):
            gid = f"g.{src}" if len(classes) == 1 else f"g.{src}.{i}"
            if gid in groups:
                (first,) = groups[gid].senders
                raise GroupIdError(f"group id {gid!r} made for both peer {first!r} and peer {src!r}")
            groups[gid] = Group(gid, cost, {src}, dsts)
    # the index lists each node's groups in gid order, which is not the order
    # of the sources (g.a-b < g.a.0) nor, from ten classes on, of the weights
    # (g.a.10 < g.a.2)
    sends: dict[NodeId, list[Group]] = {}
    recvs: dict[NodeId, list[Group]] = {}
    for gid in sorted(groups):
        g = groups[gid]
        for n in g.senders:
            sends.setdefault(n, []).append(g)
        for n in g.receivers:
            recvs.setdefault(n, []).append(g)
    assignment._sends = {n: tuple(gs) for n, gs in sends.items()}
    assignment._recvs = {n: tuple(gs) for n, gs in recvs.items()}
    return assignment


def effective_graph(assignment: GroupAssignment, alive: set[NodeId]) -> DirectedGraph:
    """Digraph implied by current memberships, restricted to alive peers.

    Its nodes are the alive peers that hold at least one membership. Parallel
    group edges for one ordered pair collapse to the lightest.
    """
    costs: dict[Edge, int] = {}
    for _, g in sorted(assignment.groups.items()):
        for u in g.senders:
            if u not in alive:
                continue
            for v in g.receivers:
                if v == u or v not in alive:
                    continue
                key = (u, v)
                if key not in costs or g.weight < costs[key]:
                    costs[key] = g.weight
    exact = {c: assignment.exact(c) for c in set(costs.values())}
    nodes = tuple(n for n in alive if n in assignment._sends or n in assignment._recvs)
    return DirectedGraph(nodes, {key: exact[c] for key, c in costs.items()})


def join_group(assignment: GroupAssignment, node: NodeId, gid: GroupId, role: str) -> Group | None:
    """Add a membership and return the group joined; idempotent (a re-join
    changes nothing and returns None)."""
    if gid not in assignment.groups:
        raise UnknownGroupError(gid)
    if role not in (SENDER, RECEIVER):
        raise ValueError(f"bad role {role!r}")
    grp = assignment.groups[gid]
    if role == SENDER:
        members, index = grp.senders, assignment._sends
    else:
        members, index = grp.receivers, assignment._recvs
    if node in members:
        return None
    members.add(node)
    grp._membership_changed()
    index[node] = tuple(sorted(index.get(node, ()) + (grp,), key=attrgetter("gid")))
    return grp


def leave_all(assignment: GroupAssignment, node: NodeId) -> list[tuple[GroupId, str]]:
    """Strip a peer from every group, returning what was removed (for rejoin).

    The list is in gid order, the sender role before the receiver role.
    """
    sends = assignment._sends.pop(node, ())
    recvs = assignment._recvs.pop(node, ())
    for g in sends:
        g.senders.discard(node)
        g._membership_changed()
    for g in recvs:
        g.receivers.discard(node)
        g._membership_changed()
    removed = [(g.gid, SENDER) for g in sends] + [(g.gid, RECEIVER) for g in recvs]
    removed.sort(key=lambda entry: (entry[0], entry[1] != SENDER))
    return removed


def leader_group(assignment: GroupAssignment, alive: set[NodeId]) -> set[NodeId]:
    """The leaders of every group that still has alive members: each one's
    smallest alive member."""
    return {min(live) for g in assignment.groups.values() if (live := g.members & alive)}

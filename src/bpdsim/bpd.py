"""Bounded path dissemination: per-node protocol state and handlers.

The protocol keeps every pairwise path in the group overlay at or below a
hop-cost threshold, and patches the overlay when members die. It runs in two
periodic stages plus two event-driven repair flows:

Stage 1 (discovery): every node announces itself on the groups it receives
from. The announcement travels against the data direction, accumulating the
weight of each group it crosses, so when it quiesces each node's path table
holds the exact cheapest forward path cost to every reachable peer.

Stage 2 (update): a node whose table shows a peer beyond the threshold floods
a request along the data direction. The accumulated cost rides in the
message; every node it leaves on some send group within the threshold stamps
that group id over the previous stamp, so the stamp names the farthest group
that still keeps the requester-to-target path bounded. The target joins the
stamped group as a receiver. A request's first send is its first relay, at
depth 0 and unstamped, so one method states the stamp rule (`_relay`).

Repair: a sender left alone in a send group asks the group leaders for the
smallest useful group to serve (JoinReq/JoinRep); receivers who lose their
last sender first confirm the loss with a group query (GrpQry/GrpAns), then
run the same join flow in the receiver role. Memberships are only ever
added. Both flows record and settle replies through one path (`_reply`);
`poll` settles what is left at its deadline, the queries first.

Each node is bound to the world that drives it and reads the shared state
from there: the group assignment, the set of peers not yet detected as down,
the current round and epoch, the threshold and the reply timeout; it keeps
its own references to the assignment and its group dict, which are only ever
updated in place, to the frozen threshold and to the roster positions (see
`BpdNode`). A node writes only its own state. Every handler takes the message
and the `Group` it arrived on (None for a point-to-point repair message),
is named by the message's type in its ``handler`` attribute, and returns a
`HandlerResult`, a named tuple ``(emissions, joins)``: membership
changes come back as intents for the world to apply, and messages as the
control-queue entries themselves, ``(plan, msg)``, which the world enqueues
unchanged (see `groups.Plan`). A discovery start or forward is one entry on
the node's receive plan (`GroupAssignment.recv_plan`), which rides every
group it receives on; an update is one entry per send group, on that group's
one-pair plan (`send_plans`), because each carries its own depth and stamp.
A pair's destinations are every member of its group but the emitter, sorted,
as the membership stands when the handler runs, so a crashed peer that is
not yet detected is addressed too and the world drops the delivery. The pair
carries the `Group` object itself, and the receiving handler reads its
senders, receivers, weight and id from it. That is the object
``groups[g.gid]`` holds at delivery too, because groups are only ever
changed in place, never replaced. A point-to-point repair message rides one
pair whose group is None, ``(((dst, ...), None),)``.

Discovery and update handlers run their drop tests before any other work,
in the order that turns the common drop away soonest. Discovery tests the
receiving node's role first (most deliveries reach a sibling receiver, which
is no sender of the group), then the epoch, the origin and whether the path
improves. A node acts on each (requester, target) pair once per epoch: one
mask per requester holds the roster-position bit of each target whose pair
the node settled, by requesting it, forwarding it, or receiving it stamped as
its target. Update tests the epoch, then whether the pair is settled (most
deliveries are repeats, the requester's own copies among them), then the
node's role, then whether it is the target. So the repeat test is one dict
lookup and one bit test, and a node holds at most one int per peer. Each
handler reads the message's fields once, by unpacking it. No drop test
writes state and every drop returns the same shared empty result, so the
order decides no outcome, only which test turns a message away.

The forwards of both handlers (the update one through `_relay`) run once
per useful delivery, hundreds of thousands of times in one cycle on a large
ring, so they build their messages, path entries and results with
``tuple.__new__(Type, fields)``: the same named-tuple object, type, fields
and repr as ``Type(*fields)``, without the Python-level ``__new__`` a named
tuple's constructor runs. That call checks no arity, so those few lines pass
every field, in order.

Wire convention: an update message's ``depth`` already includes the weight of
the group it is riding, i.e. the receiver reads its own path cost from the
requester. Depths, weights and the threshold are ints (see `groups`).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .graph import NodeId
from .groups import (
    RECEIVER,
    SENDER,
    Group,
    GroupAssignment,
    GroupId,
    Plan,
    leader_group,
)

if TYPE_CHECKING:
    from .simnet import World

SEND_KIND = "send_grp"
RECV_KIND = "recv_grp"


def default_threshold(n_nodes: int) -> int:
    """ceil((n - 1) / 2): half the worst chain, rounded up."""
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    return math.ceil((n_nodes - 1) / 2)


# --- wire messages -----------------------------------------------------------
# Messages and path entries are named tuples: they build in about half the
# time of a frozen dataclass and print the same repr. A named tuple equals a
# plain tuple of the same fields, so none of them is compared, hashed or used
# as a key; a handler reads only their fields. Each type names its `BpdNode`
# handler in `handler`, a class attribute and not a field.

class DiscoverMsg(NamedTuple):
    handler = "on_discover"
    origin: NodeId
    depth: int
    epoch: int


class UpdateMsg(NamedTuple):
    handler = "on_update"
    requester: NodeId
    target: NodeId
    depth: int  # path cost from requester to the receiving node
    grp: GroupId  # "" until stamped
    epoch: int


class JoinReq(NamedTuple):
    handler = "on_join_req"
    requester: NodeId
    grp_type: str  # SEND_KIND | RECV_KIND


class JoinRep(NamedTuple):
    handler = "on_join_rep"
    responder: NodeId
    grp_type: str
    grp: GroupId  # "" = no candidate
    size: int


class GrpQry(NamedTuple):
    handler = "on_grp_qry"
    requester: NodeId
    grp: GroupId


class GrpAns(NamedTuple):
    handler = "on_grp_ans"
    responder: NodeId
    grp: GroupId
    rep: NodeId  # responder id if it sends on the queried group, else ""


class PathEntry(NamedTuple):
    depth: int
    via_group: GroupId


@dataclass(frozen=True)
class JoinIntent:
    """The emitting node asks to join gid in role."""

    gid: GroupId
    role: str
    reason: str


@dataclass
class _Pending:
    """An open request: the peers asked, their replies so far, and the round
    at which it is settled on whatever has arrived."""

    expected: frozenset[NodeId]
    replies: dict[NodeId, JoinRep | GrpAns]
    deadline: int

    def complete(self) -> bool:
        return self.replies.keys() >= self.expected


class HandlerResult(NamedTuple):
    """What a handler or a request's settling returns: control-queue entries
    to enqueue, in order, each ``(plan, msg)`` (see the module docstring),
    and membership intents for the world to apply. Code that builds one step
    by step starts from ``HandlerResult([], [])``; a drop returns `_NOTHING`."""

    emissions: Sequence[tuple[Plan, tuple]]
    joins: Sequence[JoinIntent] = ()


# what a handler returns when it drops its message: one shared result, never
# mutated, with tuples so that an accidental append on it raises
_NOTHING = HandlerResult((), ())

# builds a named tuple from its fields without its Python-level __new__ (see
# the module docstring); every call passes all of the type's fields, in order
_new = tuple.__new__


def _direct(*dsts: NodeId) -> Plan:
    """The plan of a point-to-point message to `dsts`, in that order."""
    return ((dsts, None),)


class BpdNode:
    """Protocol state for one peer, bound to the world that delivers to it.

    The node reads the world's assignment, detected-alive set, round, epoch,
    and its `Bpd` strategy's reply timeout, and never writes them. It keeps
    three of them itself, because every discovery and update delivery reads
    them: the world's assignment and its group dict, which are updated in
    place and never rebound, and the world's roster positions, which never
    change and give each target its bit in the settled masks. Its
    threshold, `thresh`, is the frozen `Bpd` threshold as the assignment
    bounds it (`GroupAssignment.bound`): the world computes it once, checks
    it against the heaviest group, and hands the same int to every node.
    Each handler takes the `Group` a message arrived on, carried by its
    control-queue entry, and reads the group's members and weight from it
    without a lookup. Only a world whose strategy is `Bpd` builds nodes, so
    only such a world and its nodes form a reference cycle, which the cyclic
    collector frees. The cycle stays: the nodes read the live round and
    epoch, and a weak reference would cost a dereference on every handler
    call.
    """

    def __init__(self, nid: NodeId, world: World, thresh: int):
        self.nid = nid
        self.world = world
        self.assignment = world.assignment
        self.groups = world.assignment.groups
        self.thresh = thresh
        self.pos = world.pos
        self.epoch = -1
        self.path: dict[NodeId, PathEntry] = {}
        # requester -> mask of the roster positions of the targets whose pair
        # this node settled this epoch (see the module docstring)
        self._settled: dict[NodeId, int] = {}
        self.pending_join: dict[str, _Pending] = {}  # by request kind
        self.pending_query: dict[GroupId, _Pending] = {}  # by queried group
        self.retry_kinds: set[str] = set()

    # --- stage 1: discovery --------------------------------------------------

    def start_discovery(self) -> HandlerResult:
        """New epoch: drop the old table and announce on every receive group."""
        self.epoch = self.world.epoch
        self.path = {}
        self._settled = {}
        msg = DiscoverMsg(self.nid, 0, self.epoch)
        return HandlerResult([(self.assignment.recv_plan(self.nid), msg)])

    def on_discover(self, msg: DiscoverMsg, group: Group | None) -> HandlerResult:
        # a sibling receiver overhears the announcement; not an edge for it.
        # Most deliveries are such, so this test runs first: no drop test
        # writes state, so their order decides no outcome
        nid = self.nid
        if nid not in group.senders:
            return _NOTHING
        origin, depth, epoch = msg
        if epoch != self.epoch or origin == nid:
            return _NOTHING
        depth += group.weight
        cur = self.path.get(origin)
        if cur is not None and cur.depth <= depth:
            return _NOTHING
        self.path[origin] = _new(PathEntry, (depth, group.gid))
        fwd = _new(DiscoverMsg, (origin, depth, epoch))
        return _new(HandlerResult, ([(self.assignment.recv_plan(nid), fwd)], ()))

    # --- stage 2: update -----------------------------------------------------

    def update_targets(self) -> list[NodeId]:
        """Detected-alive peers beyond thresh or unknown, in sorted order
        (`World.detected_sorted`).

        They are the peers detected alive when this cycle's discovery began:
        nothing changes who is detected down between a cycle's discovery and
        update stages."""
        thresh = self.thresh
        out = []
        for peer in self.world.detected_sorted:
            if peer == self.nid:
                continue
            entry = self.path.get(peer)
            if entry is None or entry.depth > thresh:
                out.append(peer)
        return out

    def start_update(self, targets: list[NodeId]) -> HandlerResult:
        """One request per target, each sent as its first relay; the node
        settles its own pairs, so their copies that come back are repeats."""
        emissions = []
        mine = self._settled.get(self.nid, 0)
        for target in targets:
            mine |= 1 << self.pos[target]
            emissions.extend(self._relay(self.nid, target, 0, "", self.epoch))
        self._settled[self.nid] = mine
        return HandlerResult(emissions)

    def on_update(self, msg: UpdateMsg, group: Group | None) -> HandlerResult:
        requester, target, depth, grp, epoch = msg
        if epoch != self.epoch:
            return _NOTHING
        # the one repeat rule: a settled pair is dropped. No drop test
        # writes state, so testing it first, before the group lookup,
        # decides no outcome
        bit = 1 << self.pos[target]
        done = self._settled.get(requester, 0)
        if done & bit:
            return _NOTHING
        nid = self.nid
        if nid not in group.receivers:
            # co-senders hear the broadcast too, but only group receivers sit
            # at the far end of an edge; accepting here would shortcut depth
            return _NOTHING
        if nid == target:
            if grp:
                self._settled[requester] = done | bit
                if self._stamped_edge_missing(grp):
                    intent = JoinIntent(grp, RECEIVER, f"update:{requester}")
                    return HandlerResult((), (intent,))
            return _NOTHING
        self._settled[requester] = done | bit
        return _new(HandlerResult, (self._relay(requester, target, depth, grp, epoch), ()))

    def _relay(
        self, requester: NodeId, target: NodeId, depth: int, stamp: GroupId, epoch: int
    ) -> list[tuple[Plan, UpdateMsg]]:
        """One entry per send plan: the request leaves at `depth` plus the
        group's weight, stamped with the group's id while that is within the
        threshold and with `stamp` otherwise."""
        thresh = self.thresh
        out = []
        for plan in self.assignment.send_plans(self.nid):
            ((_, g),) = plan
            d = depth + g.weight
            grp = g.gid if d <= thresh else stamp
            out.append((plan, _new(UpdateMsg, (requester, target, d, grp, epoch))))
        return out

    def _stamped_edge_missing(self, gid: GroupId) -> bool:
        """False when every alive sender of gid already reaches us as cheaply."""
        assignment, alive = self.assignment, self.world.detected_alive
        grp = self.groups[gid]
        if self.nid in grp.receivers:
            return False
        mine = assignment.recv_groups(self.nid)
        for s in sorted(grp.senders):
            if s == self.nid or s not in alive:
                continue
            if not any(s in g2.senders and g2.weight <= grp.weight for g2 in mine):
                return True
        return False

    # --- repair: departures --------------------------------------------------

    def on_member_left(self, group: Group, departed: NodeId) -> HandlerResult:
        """React to a detected departure from one of our groups."""
        res = HandlerResult([], [])
        alive = self.world.detected_alive
        if self.nid in group.senders:
            others = (group.members - {self.nid}) & alive
            if not others:
                res.emissions.extend(self._emit_join_req(SEND_KIND))
        if self.nid in group.receivers:
            senders_alive = (group.senders - {self.nid}) & alive
            if not senders_alive:
                res.emissions.extend(self._emit_grp_qry(group))
        return res

    def _deadline(self) -> int:
        return self.world.round + self.world.strategy.reply_timeout_rounds

    def _emit_join_req(self, grp_type: str) -> list[tuple]:
        leaders = sorted(leader_group(self.assignment, self.world.detected_alive) - {self.nid})
        if not leaders:
            # nobody to ask; flag for retry at the next repair cycle
            self.pending_join.pop(grp_type, None)
            self.retry_kinds.add(grp_type)
            return []
        if grp_type not in self.pending_join:
            self.pending_join[grp_type] = _Pending(frozenset(leaders), {}, self._deadline())
        return [(_direct(*leaders), JoinReq(self.nid, grp_type))]

    def _emit_grp_qry(self, group: Group) -> list[tuple]:
        members = sorted((group.members - {self.nid}) & self.world.detected_alive)
        if group.gid not in self.pending_query:
            self.pending_query[group.gid] = _Pending(frozenset(members), {}, self._deadline())
        if not members:
            return []  # settled by the next poll as all-empty
        return [(_direct(*members), GrpQry(self.nid, group.gid))]

    def on_grp_qry(self, msg: GrpQry, group: None) -> HandlerResult:
        sends = self.nid in self.groups[msg.grp].senders
        ans = GrpAns(self.nid, msg.grp, self.nid if sends else "")
        return HandlerResult([(_direct(msg.requester), ans)])

    def on_grp_ans(self, msg: GrpAns, group: None) -> HandlerResult:
        return self._reply(self.pending_query, msg.grp, msg, self._finalize_query)

    def _finalize_query(self, queried: GroupId) -> HandlerResult:
        pend = self.pending_query.pop(queried)
        if any(a.rep for a in pend.replies.values()):
            return _NOTHING  # some sender still serves the group
        return HandlerResult(self._emit_join_req(RECV_KIND))

    # --- repair: join negotiation ---------------------------------------------

    def on_join_req(self, msg: JoinReq, group: None) -> HandlerResult:
        """Leader side: offer the smallest group the requester can usefully join."""
        assignment, alive = self.assignment, self.world.detected_alive
        mine = (
            assignment.recv_groups(self.nid)
            if msg.grp_type == SEND_KIND
            else assignment.send_groups(self.nid)
        )
        best: Group | None = None
        for g in mine:
            if not _useful(g, msg.requester, msg.grp_type, alive):
                continue
            if best is None or (g.size, g.gid) < (best.size, best.gid):
                best = g
        rep = (
            JoinRep(self.nid, msg.grp_type, best.gid, best.size)
            if best is not None
            else JoinRep(self.nid, msg.grp_type, "", 0)
        )
        return HandlerResult([(_direct(msg.requester), rep)])

    def on_join_rep(self, msg: JoinRep, group: None) -> HandlerResult:
        return self._reply(self.pending_join, msg.grp_type, msg, self._finalize_join)

    def _finalize_join(self, grp_type: str) -> HandlerResult:
        pend = self.pending_join.pop(grp_type)
        groups, alive = self.groups, self.world.detected_alive
        candidates = [
            r
            for r in pend.replies.values()
            if r.grp and _useful(groups[r.grp], self.nid, grp_type, alive)
        ]
        if not candidates:
            self.retry_kinds.add(grp_type)  # NoReplies: retry next repair period
            return _NOTHING
        best = min(candidates, key=lambda r: (r.size, r.grp))
        role = SENDER if grp_type == SEND_KIND else RECEIVER
        return HandlerResult((), (JoinIntent(best.grp, role, f"repair:{grp_type}"),))

    def _reply(self, pending: dict, key: str, msg: JoinRep | GrpAns, settle) -> HandlerResult:
        """Both repair flows' reply path: record `msg` on the open request
        `pending[key]`, if any, and `settle` it once every peer asked has replied."""
        pend = pending.get(key)
        if pend is None:
            return _NOTHING
        pend.replies[msg.responder] = msg
        if not pend.complete():
            return _NOTHING
        return settle(key)

    def poll(self) -> HandlerResult:
        """Settle open requests that are complete or past their deadline
        (checked once per round): the queries first, then the join requests
        as they stand after them, each in sorted order. The order decides
        joins."""
        res = HandlerResult([], [])
        rnd = self.world.round
        for pending, settle in (
            (self.pending_query, self._finalize_query),
            (self.pending_join, self._finalize_join),
        ):
            for key in sorted(pending):
                pend = pending[key]
                if rnd >= pend.deadline or pend.complete():
                    emissions, joins = settle(key)
                    res.emissions.extend(emissions)
                    res.joins.extend(joins)
        return res

    def take_retries(self) -> HandlerResult:
        """Re-issue flagged join requests if the need still exists."""
        res = HandlerResult([], [])
        assignment, alive = self.assignment, self.world.detected_alive
        kinds, self.retry_kinds = sorted(self.retry_kinds), set()
        for kind in kinds:
            if _needs_repair(self.nid, kind, assignment, alive):
                res.emissions.extend(self._emit_join_req(kind))
        return res


def _useful(group: Group, requester: NodeId, grp_type: str, alive: set[NodeId]) -> bool:
    """Would joining this group give the requester at least one new edge?"""
    if grp_type == SEND_KIND:
        if requester in group.senders:
            return False
        return any(r != requester and r in alive for r in group.receivers)
    if requester in group.receivers:
        return False
    return any(s != requester and s in alive for s in group.senders)


def _needs_repair(
    nid: NodeId, grp_type: str, assignment: GroupAssignment, alive: set[NodeId]
) -> bool:
    """Is nid left with no alive receiver (SEND_KIND) or sender (RECV_KIND)?"""
    if grp_type == SEND_KIND:
        return not any(r != nid and r in alive for g in assignment.send_groups(nid) for r in g.receivers)
    return not any(s != nid and s in alive for g in assignment.recv_groups(nid) for s in g.senders)

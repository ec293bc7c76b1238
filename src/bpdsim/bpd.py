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
stamped group as a receiver.

Repair: a sender left alone in a send group asks the group leaders for the
smallest useful group to serve (JoinReq/JoinRep); receivers who lose their
last sender first confirm the loss with a group query (GrpQry/GrpAns), then
run the same join flow in the receiver role. Memberships are only ever
added.

Each node is bound to the world that drives it and reads the shared state
from there: the group assignment, the set of peers not yet detected as down,
the current round and epoch, the threshold and the reply timeout; it keeps
its own references to the assignment and its group dict, which are only ever
updated in place, to the frozen threshold and to the roster positions (see
`BpdNode`). A node writes only its own state. Every handler takes the message
and the `Group` it arrived on (None for a point-to-point repair message) and
returns a `HandlerResult`, a named tuple ``(emissions, joins)``: membership
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
improves. Update tests the epoch, then whether the node already forwarded the
(requester, target) pair (most deliveries are repeats), then its role, target
and requester. The node remembers its forwarded pairs as one int per
requester, a mask with the roster-position bit of each target it forwarded
for that requester this epoch, so the repeat test is one dict lookup and one
bit test, and a node holds at most one int per peer however many pairs it
forwards. Each handler reads the message's fields once, by unpacking it. No
drop test writes state and every drop returns the same shared empty result,
so the order decides no outcome, only which test turns a message away.

The forwards of both handlers run once per useful delivery, hundreds of
thousands of times in one cycle on a large ring, so they build their
messages, path entries and results with ``tuple.__new__(Type, fields)``: the
same named-tuple object, type, fields and repr as ``Type(*fields)``, without
the Python-level ``__new__`` a named tuple's constructor runs. That call
checks no arity, so those few lines pass every field, in order.

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


class TooFewNodesError(ValueError):
    pass


def default_threshold(n_nodes: int) -> int:
    """ceil((n - 1) / 2): half the worst chain, rounded up."""
    if n_nodes < 2:
        raise TooFewNodesError(f"need at least 2 nodes, got {n_nodes}")
    return math.ceil((n_nodes - 1) / 2)


# --- wire messages -----------------------------------------------------------
# Messages and path entries are named tuples: they build in about half the
# time of a frozen dataclass and print the same repr. A named tuple equals a
# plain tuple of the same fields, so none of them is compared, hashed or used
# as a key; a handler reads only their fields.

class DiscoverMsg(NamedTuple):
    origin: NodeId
    depth: int
    epoch: int


class UpdateMsg(NamedTuple):
    requester: NodeId
    target: NodeId
    depth: int  # path cost from requester to the receiving node
    grp: GroupId  # "" until stamped
    epoch: int


class JoinReq(NamedTuple):
    requester: NodeId
    grp_type: str  # SEND_KIND | RECV_KIND


class JoinRep(NamedTuple):
    responder: NodeId
    grp_type: str
    grp: GroupId  # "" = no candidate
    size: int


class GrpQry(NamedTuple):
    requester: NodeId
    grp: GroupId


class GrpAns(NamedTuple):
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
    """What a handler returns: control-queue entries to enqueue, in order,
    each ``(plan, msg)`` (see the module docstring), and membership intents
    for the world to apply. Code that builds one step by step starts from
    ``HandlerResult([], [])``."""

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
    change and give each target its bit in the forwarded masks. Its
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
        self._joined_for: set[NodeId] = set()  # requesters already served this epoch
        # requester -> mask of the roster positions of the targets forwarded
        # for it this epoch
        self._forwarded: dict[NodeId, int] = {}
        self.pending_join: dict[str, _Pending] = {}  # by request kind
        self.pending_query: dict[GroupId, _Pending] = {}  # by queried group
        self.retry_kinds: set[str] = set()

    # --- stage 1: discovery --------------------------------------------------

    def start_discovery(self) -> HandlerResult:
        """New epoch: drop the old table and announce on every receive group."""
        self.epoch = self.world.epoch
        self.path = {}
        self._joined_for = set()
        self._forwarded = {}
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
        res = HandlerResult([], [])
        plans = self.assignment.send_plans(self.nid)
        thresh = self.thresh
        for target in targets:
            for plan in plans:
                ((_, g),) = plan
                depth = g.weight
                grp = g.gid if depth <= thresh else ""
                msg = UpdateMsg(self.nid, target, depth, grp, self.epoch)
                res.emissions.append((plan, msg))
        return res

    def on_update(self, msg: UpdateMsg, group: Group | None) -> HandlerResult:
        requester, target, depth, grp, epoch = msg
        if epoch != self.epoch:
            return _NOTHING
        # each node forwards a (requester, target) pair once per epoch. A pair
        # is stored only after it passed the receiver, target and requester
        # tests below, so a repeat would fail whichever of them ran first, and
        # no drop test writes state; testing it first skips the group lookup
        # for every repeat
        bit = 1 << self.pos[target]
        done = self._forwarded.get(requester, 0)
        if done & bit:
            return _NOTHING
        nid = self.nid
        if nid not in group.receivers:
            # co-senders hear the broadcast too, but only group receivers sit
            # at the far end of an edge; accepting here would shortcut depth
            return _NOTHING
        if nid == target:
            if grp and requester not in self._joined_for:
                self._joined_for.add(requester)
                if self._stamped_edge_missing(grp):
                    intent = JoinIntent(grp, RECEIVER, f"update:{requester}")
                    return HandlerResult((), (intent,))
            return _NOTHING
        # the requester already sent its own pair
        if nid == requester:
            return _NOTHING
        self._forwarded[requester] = done | bit
        thresh = self.thresh
        emissions = []
        for plan in self.assignment.send_plans(nid):
            ((_, g),) = plan
            fwd_depth = depth + g.weight
            fwd = _new(
                UpdateMsg,
                (requester, target, fwd_depth, g.gid if fwd_depth <= thresh else grp, epoch),
            )
            emissions.append((plan, fwd))
        return _new(HandlerResult, (emissions, ()))

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
        pend = self.pending_query.get(msg.grp)
        if pend is None:
            return _NOTHING
        pend.replies[msg.responder] = msg
        if not pend.complete():
            return _NOTHING
        return HandlerResult(self._finalize_query(msg.grp))

    def _finalize_query(self, queried: GroupId) -> list[tuple]:
        pend = self.pending_query.pop(queried)
        if any(a.rep for a in pend.replies.values()):
            return []  # some sender still serves the group
        return self._emit_join_req(RECV_KIND)

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
        pend = self.pending_join.get(msg.grp_type)
        if pend is None:
            return _NOTHING
        pend.replies[msg.responder] = msg
        if not pend.complete():
            return _NOTHING
        return HandlerResult((), self._finalize_join(msg.grp_type))

    def _finalize_join(self, grp_type: str) -> list[JoinIntent]:
        pend = self.pending_join.pop(grp_type)
        groups, alive = self.groups, self.world.detected_alive
        candidates = [
            r
            for r in pend.replies.values()
            if r.grp and _useful(groups[r.grp], self.nid, grp_type, alive)
        ]
        if not candidates:
            self.retry_kinds.add(grp_type)  # NoReplies: retry next repair period
            return []
        best = min(candidates, key=lambda r: (r.size, r.grp))
        role = SENDER if grp_type == SEND_KIND else RECEIVER
        return [JoinIntent(best.grp, role, f"repair:{grp_type}")]

    def poll(self) -> HandlerResult:
        """Settle open requests that are complete or past their deadline
        (checked once per round)."""
        res = HandlerResult([], [])
        rnd = self.world.round
        for queried in sorted(self.pending_query):
            pend = self.pending_query[queried]
            if rnd >= pend.deadline or pend.complete():
                res.emissions.extend(self._finalize_query(queried))
        for kind in sorted(self.pending_join):
            pend = self.pending_join[kind]
            if rnd >= pend.deadline or pend.complete():
                res.joins.extend(self._finalize_join(kind))
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

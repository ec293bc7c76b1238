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
the current round and epoch, the threshold and the reply timeout. A node
writes only its own state. Every handler takes the message and the group it
arrived on (None for a point-to-point repair message) and returns a
`HandlerResult`: membership changes come back as intents for the world to
apply, and messages as emission tuples: ``("group", gid, msg)`` broadcasts
to the other alive members of a group, ``("multi", (dst, ...), msg)``
targets an explicit peer list.

Wire convention: an update message's ``depth`` already includes the weight of
the group it is riding, i.e. the receiver reads its own exact path cost from
the requester. Depths, weights and the threshold are exact: an integral one is
an ``int``, any other a ``Fraction``, and their mixed sums and comparisons stay
exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .graph import NodeId
from .groups import (
    RECEIVER,
    SENDER,
    Group,
    GroupAssignment,
    GroupId,
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


@dataclass(frozen=True)
class BpdConfig:
    thresh: Fraction
    repair_period_rounds: int = 200
    reply_timeout_rounds: int = 5

    def __post_init__(self):
        for name, ok, rule in (
            ("thresh", self.thresh > 0, "> 0"),
            ("repair_period_rounds", self.repair_period_rounds >= 1, ">= 1"),
            ("reply_timeout_rounds", self.reply_timeout_rounds >= 1, ">= 1"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


# --- wire messages -----------------------------------------------------------

@dataclass(frozen=True)
class DiscoverMsg:
    origin: NodeId
    depth: int | Fraction
    epoch: int


@dataclass(frozen=True)
class UpdateMsg:
    requester: NodeId
    target: NodeId
    depth: int | Fraction  # exact path cost from requester to the receiving node
    grp: GroupId  # "" until stamped
    epoch: int


@dataclass(frozen=True)
class JoinReq:
    requester: NodeId
    grp_type: str  # SEND_KIND | RECV_KIND


@dataclass(frozen=True)
class JoinRep:
    responder: NodeId
    grp_type: str
    grp: GroupId  # "" = no candidate
    size: int


@dataclass(frozen=True)
class GrpQry:
    requester: NodeId
    grp: GroupId


@dataclass(frozen=True)
class GrpAns:
    responder: NodeId
    grp: GroupId
    rep: NodeId  # responder id if it sends on the queried group, else ""


@dataclass(frozen=True)
class PathEntry:
    depth: int | Fraction
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


@dataclass
class HandlerResult:
    emissions: list[tuple] = field(default_factory=list)
    joins: list[JoinIntent] = field(default_factory=list)


class BpdNode:
    """Protocol state for one peer, bound to the world that delivers to it.

    The node reads the world's assignment, detected-alive set, round, epoch,
    threshold and reply timeout, and never writes them.
    """

    def __init__(self, nid: NodeId, world: World):
        self.nid = nid
        self.world = world
        self.epoch = -1
        self.path: dict[NodeId, PathEntry] = {}
        self.roster_view: tuple[NodeId, ...] = ()
        self._joined_for: set[NodeId] = set()  # requesters already served this epoch
        self._forwarded: set[tuple[NodeId, NodeId]] = set()
        self.pending_join: dict[str, _Pending] = {}  # by request kind
        self.pending_query: dict[GroupId, _Pending] = {}  # by queried group
        self.retry_kinds: set[str] = set()

    # --- stage 1: discovery --------------------------------------------------

    def start_discovery(self) -> HandlerResult:
        """New epoch: drop the old table and announce on every receive group."""
        world = self.world
        self.epoch = world.epoch
        self.path = {}
        self._joined_for = set()
        self._forwarded = set()
        self.roster_view = tuple(sorted(world.detected_alive))
        res = HandlerResult()
        msg = DiscoverMsg(self.nid, 0, self.epoch)
        for g in world.assignment.recv_groups(self.nid):
            res.emissions.append(("group", g.gid, msg))
        return res

    def on_discover(self, msg: DiscoverMsg, gid: GroupId) -> HandlerResult:
        res = HandlerResult()
        if msg.epoch != self.epoch or msg.origin == self.nid:
            return res
        assignment = self.world.assignment
        delivered_on = assignment.groups[gid]
        if self.nid not in delivered_on.senders:
            # sibling receiver overhears the announcement; not an edge for us
            return res
        depth = msg.depth + delivered_on.weight
        cur = self.path.get(msg.origin)
        if cur is not None and cur.depth <= depth:
            return res
        self.path[msg.origin] = PathEntry(depth, gid)
        fwd = DiscoverMsg(msg.origin, depth, msg.epoch)
        for g in assignment.recv_groups(self.nid):
            res.emissions.append(("group", g.gid, fwd))
        return res

    # --- stage 2: update -----------------------------------------------------

    def update_targets(self) -> list[NodeId]:
        """Peers (from the roster seen at discovery) beyond thresh or unknown."""
        thresh = self.world.thresh
        out = []
        for peer in self.roster_view:
            if peer == self.nid:
                continue
            entry = self.path.get(peer)
            if entry is None or entry.depth > thresh:
                out.append(peer)
        return out

    def start_update(self, targets: list[NodeId]) -> HandlerResult:
        res = HandlerResult()
        send_groups = self.world.assignment.send_groups(self.nid)
        thresh = self.world.thresh
        for target in targets:
            for g in send_groups:
                depth = g.weight
                grp = g.gid if depth <= thresh else ""
                msg = UpdateMsg(self.nid, target, depth, grp, self.epoch)
                res.emissions.append(("group", g.gid, msg))
        return res

    def on_update(self, msg: UpdateMsg, gid: GroupId) -> HandlerResult:
        res = HandlerResult()
        if msg.epoch != self.epoch:
            return res
        world = self.world
        if self.nid not in world.assignment.groups[gid].receivers:
            # co-senders hear the broadcast too, but only group receivers sit
            # at the far end of an edge; accepting here would shortcut depth
            return res
        if self.nid == msg.target:
            if msg.grp and msg.requester not in self._joined_for:
                self._joined_for.add(msg.requester)
                if self._stamped_edge_missing(msg.grp):
                    res.joins.append(JoinIntent(msg.grp, RECEIVER, f"update:{msg.requester}"))
            return res
        # each node forwards a (requester, target) pair once per epoch, and the
        # requester already sent it, so a repeat is dropped
        if self.nid == msg.requester:
            return res
        key = (msg.requester, msg.target)
        if key in self._forwarded:
            return res
        self._forwarded.add(key)
        thresh = world.thresh
        for g in world.assignment.send_groups(self.nid):
            depth = msg.depth + g.weight
            grp = g.gid if depth <= thresh else msg.grp
            fwd = UpdateMsg(msg.requester, msg.target, depth, grp, msg.epoch)
            res.emissions.append(("group", g.gid, fwd))
        return res

    def _stamped_edge_missing(self, gid: GroupId) -> bool:
        """False when every alive sender of gid already reaches us as cheaply."""
        assignment, alive = self.world.assignment, self.world.detected_alive
        grp = assignment.groups[gid]
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
        res = HandlerResult()
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
        return self.world.round + self.world.bpd_cfg.reply_timeout_rounds

    def _emit_join_req(self, grp_type: str) -> list[tuple]:
        world = self.world
        leaders = sorted(leader_group(world.assignment, world.detected_alive) - {self.nid})
        if not leaders:
            # nobody to ask; flag for retry at the next repair cycle
            self.pending_join.pop(grp_type, None)
            self.retry_kinds.add(grp_type)
            return []
        if grp_type not in self.pending_join:
            self.pending_join[grp_type] = _Pending(frozenset(leaders), {}, self._deadline())
        return [("multi", tuple(leaders), JoinReq(self.nid, grp_type))]

    def _emit_grp_qry(self, group: Group) -> list[tuple]:
        members = sorted((group.members - {self.nid}) & self.world.detected_alive)
        if group.gid not in self.pending_query:
            self.pending_query[group.gid] = _Pending(frozenset(members), {}, self._deadline())
        if not members:
            return []  # settled by the next poll as all-empty
        return [("multi", tuple(members), GrpQry(self.nid, group.gid))]

    def on_grp_qry(self, msg: GrpQry, gid: None) -> HandlerResult:
        sends = self.nid in self.world.assignment.groups[msg.grp].senders
        ans = GrpAns(self.nid, msg.grp, self.nid if sends else "")
        return HandlerResult([("multi", (msg.requester,), ans)])

    def on_grp_ans(self, msg: GrpAns, gid: None) -> HandlerResult:
        res = HandlerResult()
        pend = self.pending_query.get(msg.grp)
        if pend is not None:
            pend.replies[msg.responder] = msg
            if pend.complete():
                res.emissions = self._finalize_query(msg.grp)
        return res

    def _finalize_query(self, queried: GroupId) -> list[tuple]:
        pend = self.pending_query.pop(queried)
        if any(a.rep for a in pend.replies.values()):
            return []  # some sender still serves the group
        return self._emit_join_req(RECV_KIND)

    # --- repair: join negotiation ---------------------------------------------

    def on_join_req(self, msg: JoinReq, gid: None) -> HandlerResult:
        """Leader side: offer the smallest group the requester can usefully join."""
        assignment, alive = self.world.assignment, self.world.detected_alive
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
        return HandlerResult([("multi", (msg.requester,), rep)])

    def on_join_rep(self, msg: JoinRep, gid: None) -> HandlerResult:
        res = HandlerResult()
        pend = self.pending_join.get(msg.grp_type)
        if pend is not None:
            pend.replies[msg.responder] = msg
            if pend.complete():
                res.joins = self._finalize_join(msg.grp_type)
        return res

    def _finalize_join(self, grp_type: str) -> list[JoinIntent]:
        pend = self.pending_join.pop(grp_type)
        groups, alive = self.world.assignment.groups, self.world.detected_alive
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
        res = HandlerResult()
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
        res = HandlerResult()
        assignment, alive = self.world.assignment, self.world.detected_alive
        kinds, self.retry_kinds = sorted(self.retry_kinds), set()
        for kind in kinds:
            if kind == SEND_KIND and not _needs_out_repair(self.nid, assignment, alive):
                continue
            if kind == RECV_KIND and not _needs_in_repair(self.nid, assignment, alive):
                continue
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


def _needs_out_repair(nid: NodeId, assignment: GroupAssignment, alive: set[NodeId]) -> bool:
    for g in assignment.send_groups(nid):
        if any(r != nid and r in alive for r in g.receivers):
            return False
    return True


def _needs_in_repair(nid: NodeId, assignment: GroupAssignment, alive: set[NodeId]) -> bool:
    for g in assignment.recv_groups(nid):
        if any(s != nid and s in alive for s in g.senders):
            return False
    return True

"""Deterministic round-based network simulator.

Application data is round-paced: a message sent in round k is delivered in
round k+1, with no loss or reordering among live peers. Protocol control
traffic (discovery, path updates, membership repair) instead completes
within the round that triggers it: those exchanges take a network round
trip, which at a 10 ms iteration period is far below one round, so the
simulator cascades control deliveries to quiescence inside the round.

The control queue is a FIFO with one entry per message, ``(plan, msg)``. The
plan is a tuple of ``(dsts, group)`` pairs (`groups.Plan`): a discovery
message rides every receive group of its emitter in one entry, an update one
send group, and a point-to-point message one pair whose group is None. The
emitting `BpdNode` builds the entry from the plans its assignment caches
(see `bpd`), and the world enqueues it as it is. A pair's destinations are
the group's members other than the emitter, in sorted order, frozen when the
message is emitted: a peer that joins later does not get it, because a stale
plan is replaced, never altered. Groups are only ever changed in place, so
the group a pair carries is the one the assignment holds under its id when
the entry is delivered. A popped entry is walked there and then, pair by
pair, one delivery per destination in order, and each delivery's own
emissions go to the tail. The message names its handler, a `BpdNode` method,
in its ``handler`` attribute; the drain looks that name up on the class once
per popped entry and calls it with the node, the message and the pair's
group. The messages are named tuples, and each protocol rule lives in `bpd`
once: a stage's first update send is its first relay, and replies settle
through one path. A handler that drops its message returns the shared
`bpd._NOTHING` result, which the drain skips; for every other result the
drain extends the queue with its emissions itself and hands any joins to
`World._apply_joins`. Results made outside a drain (stage starts,
departures, polls) go through `World._apply_result`, which takes the same
two steps. Every queued entry is popped by a drain within the round that
queued it, so a round's control messages are counted where its drains pop
them: one per pair, plus one heartbeat per alive peer. Every member
delivery, to a crashed peer too, counts toward a cap of `_CASCADE_CAP` per
drain, a repair cycle's discovery and update drains sharing one count; each
pair adds all of its destinations to the count at once, and one that takes
the count past the cap raises before any of its deliveries runs.

Protocol state exists only where the protocol runs: a world whose strategy is
`Bpd` holds one `BpdNode` per peer in `World.nodes`, and any other world holds
none. Each node keeps a reference to its world, which it reads live; that
cycle stays for `Bpd` worlds (see `BpdNode`), and a world of any other
strategy is freed by reference counting alone.

Everything is driven from sorted orders and seeded generators, so a run is a
pure function of its configuration.

Freshness for dissemination efficiency travels with the application data.
Each node holds a stamp vector indexed by position in the sorted roster: the
latest round whose information from that origin it has, -1 for never. Stamp
and receipt vectors are ints in the packed layout of `metrics.Packing`, sized
from `SimConfig.n_rounds`; a world stepped past that many rounds re-packs
them at double width. A sender stamps its own slot with the round, and the
round's application traffic is queued as one in-flight entry per sender, in
sender order: its value, its stamp vector as it stands (an int, so it cannot
change under the entry) and the destinations `strategy_emit` named. No peer
is ever delivered or counted a message of its own: only all-to-all's shared
`World.detected_sorted` names the sender, and the world skips it there;
gossip's list and the group strategies' `GroupAssignment.send_dsts` do not.
Each destination's consensus input is one value per distinct sender it
heard, in sender order. It merges what it received with one element-wise max
and records that round in its receipt vector at every origin whose stamp rose:
one `metrics.record_receipt` call per destination per round. The max does not
depend on arrival order, so the merged vectors, and with them the DE figures,
are the same as folding the messages in one at a time. A node's DE counts the
origins not detected as down, as the guard bits of their slots
(`World.detected_guards`).

The strategy decides where sharing lives. An all-to-all round is delivered by
destination: nothing changes `detected_alive` while a round's senders emit, so
every one of them names the same peers. The world asks `strategy_emit` for
them once per round and every sender shares that tuple. Each alive peer among
them hears every sender but itself; its input is the senders' values with its
own sliced out. Nothing writes a stamp vector between a round's send and the
next round's delivery, so a peer that sent holds exactly the vector it sent,
and its merge is the max over the vectors of all senders: folded once per
round and shared. A destination that did not send (a peer that recovered this
round) folds that max with its current vector. Any other round, group or
gossip, is delivered message by message, and each destination folds the
vectors of the senders it heard with its own: a group strategy gives nearly
every destination its own sender set, where sharing would cost without
paying.

Crashed peers neither send nor receive. Messages addressed to one are still
counted as sent and then dropped, because the senders cannot know better
until the missed-heartbeat detector fires: a crash in round r is detected in
exactly round r + detection_rounds, at which point the peer leaves its
groups (kept stashed so a later recovery can rejoin them) and the repair
handlers run.

Who is down is recorded once: `World.crashed_at` holds the round each crashed
peer went down and `World.stash` the memberships each detected-down peer
left, so an undetected crash is a key of the first that is not in the second.
`World._liveness_changed` rebuilds every view of who is up from the two.

Each round's x and DE figures are two `RoundColumn` records, in
`World.x_trace` and `World.de_trace`: 8 bytes per alive peer each, keyed by
the alive roster view that every round between two liveness changes shares.

`World.log` is the one record of what happened to the overlay, in order: a
`FaultEvent` per fault that fired, a `MembershipEvent` per join or departure
and a `CycleComplete` per repair cycle. The trace, when on, is written where
each record is logged, one line per record but a recovered peer's rejoins,
plus a `deliver app` line per application delivery, which is never logged.
"""
from __future__ import annotations

import math
import random
from array import array
from collections import deque
from collections.abc import Collection, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from . import metrics
from .bpd import _NOTHING, BpdNode, HandlerResult, JoinIntent
from .graph import DirectedGraph, NodeId, is_strongly_connected
from .groups import (
    SENDER, GroupAssignment, GroupId, effective_graph, form_groups, join_group, leave_all
)
from .workloads import (
    AllToAll, Bpd, Gossip, Strategy, consensus_step, init_values, strategy_emit, true_average
)

_CASCADE_CAP = 2_000_000


class UnknownNodeError(KeyError):
    """A peer name that is not in the roster."""

    def __str__(self) -> str:
        return f"unknown peer {self.args[0]!r}"


class FaultError(ValueError):
    pass


class CascadeError(RuntimeError):
    """A drain, or a cycle's discovery and update drains, passed `_CASCADE_CAP` deliveries."""


@dataclass(frozen=True)
class SimConfig:
    n_rounds: int
    seed: int = 0
    round_period_ms: float = 10.0
    payload_bytes: int = 64
    control_bytes: int = 32
    detection_rounds: int = 1
    de_window_rounds: int | None = None  # default: 2 * roster size
    eps: float = 0.5

    def __post_init__(self):
        for name, ok, rule in (
            ("n_rounds", self.n_rounds >= 0, ">= 0"),
            ("round_period_ms", 0 < self.round_period_ms < math.inf, "finite and > 0"),
            ("payload_bytes", self.payload_bytes >= 0, ">= 0"),
            ("control_bytes", self.control_bytes >= 0, ">= 0"),
            ("detection_rounds", self.detection_rounds >= 1, ">= 1"),
            (
                "de_window_rounds",
                self.de_window_rounds is None or self.de_window_rounds >= 1,
                ">= 1",
            ),
            # each averaging step stays a convex combination
            ("eps", 0 < self.eps <= 1, "in (0, 1]"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass(frozen=True)
class FaultEvent:
    round: int
    action: str  # "crash" | "recover"
    node: NodeId


@dataclass(frozen=True)
class MembershipEvent:
    round: int
    kind: str  # "MemberJoined" | "MemberLeft"
    group: GroupId
    node: NodeId
    role: str
    reason: str = ""  # a join's `JoinIntent.reason`; "" for a recovered peer's rejoin


@dataclass(frozen=True)
class CycleComplete:
    round: int
    epoch: int
    connected: bool  # the detected-alive overlay, after the cycle


def validate_schedule(faults: list[FaultEvent], roster: set[NodeId]) -> None:
    crashed: set[NodeId] = set()
    last = 0
    for ev in faults:
        if ev.node not in roster:
            raise UnknownNodeError(ev.node)
        if ev.round < 1:  # the first step is round 1: an earlier fault never fires
            raise FaultError(f"fault round must be >= 1, got {ev.round}")
        if ev.round < last:
            raise FaultError("fault schedule must be sorted by round")
        last = ev.round
        if ev.action == "crash":
            if ev.node in crashed:
                raise FaultError(f"{ev.node} crashed twice without recovery")
            crashed.add(ev.node)
        elif ev.action == "recover":
            if ev.node not in crashed:
                raise FaultError(f"{ev.node} recovered while alive")
            crashed.discard(ev.node)
        else:
            raise FaultError(f"unknown fault action {ev.action!r}")


class RoundStats(NamedTuple):
    """One row of `rounds.csv`, whose columns are these fields in order."""

    round: int
    messages: int
    control_messages: int
    bytes: int
    mean_de: float
    min_de: float
    max_x: float
    min_x: float


class Summary(NamedTuple):
    """The one row of `summary.csv`, made by `World.summary`; None is an empty cell."""

    deviation_pct: float | None
    iterations_to_band: int | None
    messages_per_round: int
    bandwidth_kbps: float
    edges_initial: int
    edges_added: int


class RoundColumn(Mapping):
    """One round's figure of each peer alive in it, as a read-only mapping
    equal to the `{peer: figure}` dict it stands for: `floats`, an
    `array('d')`, in the order of `position`, the world's `alive_position`
    of that round, which maps each peer, in roster order, to its place."""

    __slots__ = ("position", "floats")

    def __init__(self, position: dict[NodeId, int], floats: array):
        self.position = position
        self.floats = floats

    def __getitem__(self, peer: NodeId) -> float:
        return self.floats[self.position[peer]]

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.position)

    def __len__(self) -> int:
        return len(self.floats)

    def values(self) -> memoryview:
        """The figures in peer order, as a read-only view of `floats`."""
        return memoryview(self.floats).toreadonly()

    def __repr__(self) -> str:
        return f"RoundColumn({dict(self)!r})"


class World:
    def __init__(
        self,
        graph: DirectedGraph,
        strategy: Strategy,
        cfg: SimConfig,
        faults: list[FaultEvent] | None = None,
    ):
        self.strategy = strategy
        self.cfg = cfg
        self.roster: list[NodeId] = list(graph.nodes)
        # roster position of each node: its slot in every stamp and receipt
        # vector and its bit in every BpdNode's settled-target masks
        self.pos: dict[NodeId, int] = {n: i for i, n in enumerate(self.roster)}
        self.window = cfg.de_window_rounds or 2 * len(self.roster)
        self.faults = list(faults or [])
        validate_schedule(self.faults, set(self.roster))
        # a callable taking one trace line, or None for no trace
        self.trace_fn = None

        self.assignment: GroupAssignment = form_groups(graph)
        # protocol state, one node per peer, only where the protocol runs
        self.nodes: dict[NodeId, BpdNode] = {}
        if isinstance(strategy, Bpd):
            # for the int max weight M, thresh * unit < M exactly when its floor is
            heaviest = max((g.weight for g in self.assignment.groups.values()), default=0)
            bound = self.assignment.bound(strategy.thresh)
            if bound < heaviest:
                raise ValueError(
                    f"thresh {strategy.thresh} below max edge weight {graph.max_weight()}"
                )
            self.nodes = {n: BpdNode(n, self, bound) for n in self.roster}
        elif isinstance(strategy, Gossip) and strategy.fanout >= len(self.roster):
            # a shortfall mid-run, while peers are down, caps the sample instead
            raise ValueError(
                f"fanout must be <= {len(self.roster) - 1}, the number of other peers,"
                f" got {strategy.fanout}"
            )

        # who is down; the views of who is up are built from these two
        self.crashed_at: dict[NodeId, int] = {}
        self.stash: dict[NodeId, list[tuple[str, str]]] = {}

        self.x: dict[NodeId, float] = init_values(self.roster, cfg.seed)
        self.x0 = dict(self.x)
        # vectors packed into ints (metrics.Packing); each node starts out
        # holding round 0 of itself and nothing else
        self.packing = metrics.Packing.for_rounds(len(self.roster), cfg.n_rounds)
        put = self.packing.put
        self.stamps: dict[NodeId, int] = {n: put(0, i, 0) for n, i in self.pos.items()}
        # last round each origin's stamp rose at each node, all NO_RECEIPT
        self.receipts: dict[NodeId, int] = dict.fromkeys(self.roster, 0)
        self.gossip_rng = random.Random(f"{cfg.seed}:gossip")

        self.round = 0
        self.epoch = 0
        self._ctrl: deque = deque()
        # (src, x, stamp snapshot, destinations) per peer that sent last round,
        # in sender order; until its delivery, each such peer's stamp vector
        # equals its snapshot
        self._app_inflight: list[tuple[NodeId, float, int, Sequence[NodeId]]] = []
        self.stats: list[RoundStats] = []
        self.x_trace: list[RoundColumn] = []
        self.de_trace: list[RoundColumn] = []
        self.log: list[FaultEvent | MembershipEvent | CycleComplete] = []
        # form_groups puts each edge (u, v) in one group, as sender u and
        # receiver v, and nothing is stashed yet
        self.edges_initial = graph.n_edges

        self._app_sent = 0
        self._ctrl_sent = 0
        self._liveness_changed()

    # --- public driving --------------------------------------------------

    def run(self) -> None:
        for _ in range(self.cfg.n_rounds):
            self.step_round()

    def step_round(self) -> RoundStats:
        self.round += 1
        if self.round > self.packing.top:
            self._widen()
        self._app_sent = self._ctrl_sent = 0

        for ev in self.faults:
            if ev.round == self.round:
                self.inject_fault(ev.node, ev.action)
        order = self.alive_sorted

        inputs = self._deliver_app()
        self._detect()
        if isinstance(self.strategy, Bpd) and (self.round - 1) % self.strategy.repair_period_rounds == 0:
            self._start_cycle()
        else:
            self._drain_control()
        self._poll_timeouts()

        x, eps = self.x, self.cfg.eps
        for n, heard in inputs.items():
            x[n] = consensus_step(x[n], heard, eps)
        self._send_app(order)
        self._ctrl_sent += len(order)  # heartbeats

        return self._close_round()

    def inject_fault(self, node: NodeId, action: str) -> None:
        if node not in self.pos:
            raise UnknownNodeError(node)
        if action == "crash":
            if node in self.crashed_at:
                raise FaultError(f"{node} is already down")
            self.crashed_at[node] = self.round
        elif action == "recover":
            if node not in self.crashed_at:
                return
            del self.crashed_at[node]
        else:
            raise FaultError(f"unknown fault action {action!r}")
        self._log(FaultEvent(self.round, action, node), f"fault {action} {node}")
        # a recovered peer whose crash was detected rejoins the groups it was
        # stashed from; one that came back before anyone noticed never left
        # them, and a crashing peer has nothing stashed
        for gid, role in self.stash.pop(node, []):
            if join_group(self.assignment, node, gid, role):
                self._log(MembershipEvent(self.round, "MemberJoined", gid, node, role))
        self._liveness_changed()

    def run_repair_cycle(self) -> GroupAssignment:
        """Force one full discovery + update cycle to quiescence right now."""
        if not isinstance(self.strategy, Bpd):
            raise ValueError(f"a repair cycle needs a Bpd strategy, not {self.strategy}")
        self._start_cycle()
        self._poll_timeouts()
        return self.assignment

    def effective_edge_count(self) -> int:
        """Edges of the overlay over the whole roster, each detected-down
        peer's stashed memberships included: a departure removes no edge, so
        only a join moves the count. An edge is a distinct (sender, receiver)
        pair of two peers in one group."""
        groups = self.assignment.groups
        senders = {gid: set(g.senders) for gid, g in groups.items()}
        receivers = {gid: set(g.receivers) for gid, g in groups.items()}
        for n, removed in self.stash.items():
            for gid, role in removed:
                (senders if role == SENDER else receivers)[gid].add(n)
        return len(
            {(u, v) for gid in groups for u in senders[gid] for v in receivers[gid] if u != v}
        )

    def summary(self) -> Summary:
        """The run's figures as the world stands, against the true mean of
        the initial values."""
        optimum, initial = true_average(self.x0), self.edges_initial
        added = self.effective_edge_count() - initial
        if not self.stats:
            return Summary(metrics.deviation_pct(self.x0, optimum), None, 0, 0.0, initial, added)
        last, stats = self.x_trace[-1], self.stats
        kbps = metrics.bandwidth_kbps(
            sum(s.bytes for s in stats), len(stats), self.cfg.round_period_ms, len(self.roster)
        )
        # no peer alive in the last round: no deviation to report
        dev = metrics.deviation_pct(last, optimum) if last else None
        band = metrics.iterations_to_band(self.x_trace, optimum)
        return Summary(dev, band, stats[-1].messages, kbps, initial, added)

    def alive_effective_graph(self) -> DirectedGraph:
        return effective_graph(self.assignment, self.alive)

    # --- internals --------------------------------------------------------

    def _liveness_changed(self) -> None:
        """Rebuild every view of who is up from `crashed_at` and `stash`, in
        roster order, which is sorted: the alive peers (`alive_sorted`, the
        order a round runs them in, and `alive`), the detected-alive peers
        (`detected_sorted`, which every all-to-all sender of a round shares,
        and `detected_alive`) and the guard bits (`Packing.guard_bits`) of the
        detected-alive slots (`detected_guards`), the origins every DE figure
        counts; and `alive_position`, each alive peer's place in
        `alive_sorted`, which keys every `RoundColumn` until the next rebuild.
        Runs where either record changes (`inject_fault`, `_detect`) and where
        the guard bits move (`_widen`); the views are rebound, never changed
        in place, and no other code writes one."""
        roster, crashed, stash = self.roster, self.crashed_at, self.stash
        self.alive_sorted = [n for n in roster if n not in crashed]
        self.alive_position = {n: i for i, n in enumerate(self.alive_sorted)}
        self.alive = set(self.alive_sorted)
        self.detected_sorted = tuple(n for n in roster if n not in stash)
        self.detected_alive = set(self.detected_sorted)
        self.detected_guards = self.packing.guard_bits(n not in stash for n in roster)

    def _deliver_app(self) -> dict[NodeId, Collection[float]]:
        """Deliver last round's application traffic to the alive peers it
        names, never to its sender, and merge their stamp vectors; return
        each destination's consensus input: one value per distinct sender, in
        sender order. An all-to-all round is delivered by destination, through
        the peers its first sender named, which every sender of the round
        named; any other round message by message, where no sender names
        itself."""
        inflight, self._app_inflight = self._app_inflight, []
        alive = self.alive
        if self.trace_fn is not None:
            for src, _x, _snapshot, dsts in inflight:
                for dst in dsts:
                    if dst != src and dst in alive:
                        self._trace(f"deliver app {src} {dst}")
        if inflight and isinstance(self.strategy, AllToAll):
            return self._deliver_by_destination(inflight, inflight[0][3])
        # heard is filled in message order: the float sums of consensus_step
        # follow its insertion order
        sent: dict[NodeId, int] = {}
        heard: dict[NodeId, dict[NodeId, float]] = {}
        for src, x, snapshot, dsts in inflight:
            sent[src] = snapshot
            for dst in dsts:
                if dst not in alive:
                    continue
                into = heard.get(dst)
                if into is None:
                    into = heard[dst] = {}
                into[src] = x
        stamps, receipts, packing = self.stamps, self.receipts, self.packing
        record, rnd = metrics.record_receipt, self.round
        for dst, into in heard.items():
            mine = stamps[dst]
            vectors = [sent[src] for src in into]
            vectors.append(mine)
            merged = stamps[dst] = packing.max(vectors)
            receipts[dst] = record(receipts[dst], mine, merged, rnd, packing)
        return {dst: into.values() for dst, into in heard.items()}

    def _deliver_by_destination(self, inflight, shared) -> dict[NodeId, list[float]]:
        """`_deliver_app` for a round whose senders all named the peers in
        `shared`, each once, the senders among them: each alive destination
        in it hears every sender but itself, and every sender's merge is the
        one fold of all senders (see the module docstring)."""
        alive, stamps, receipts, packing = self.alive, self.stamps, self.receipts, self.packing
        record, rnd = metrics.record_receipt, self.round
        xs = [entry[1] for entry in inflight]
        index = {entry[0]: i for i, entry in enumerate(inflight)}
        everyone = packing.max([entry[2] for entry in inflight])
        inputs: dict[NodeId, list[float]] = {}
        for dst in shared:
            if dst not in alive:
                continue
            mine = stamps[dst]
            i = index.get(dst)
            if i is None:
                inputs[dst] = xs
                merged = packing.max((everyone, mine))
            elif len(xs) > 1:
                inputs[dst] = xs[:i] + xs[i + 1 :]
                merged = everyone
            else:
                continue  # the only sender: it hears nobody
            stamps[dst] = merged
            receipts[dst] = record(receipts[dst], mine, merged, rnd, packing)
        return inputs

    def _widen(self) -> None:
        """Re-pack every stamp, receipt and in-flight snapshot at double width,
        for a world stepped past the largest round its slots hold."""
        old = self.packing
        new = self.packing = metrics.Packing(old.size, 2 * old.width)
        self._liveness_changed()

        def repack(packed: int) -> int:
            return new.pack(old.unpack(packed))

        self.stamps = {n: repack(v) for n, v in self.stamps.items()}
        self.receipts = {n: repack(v) for n, v in self.receipts.items()}
        self._app_inflight = [
            (src, x, repack(snapshot), dsts) for src, x, snapshot, dsts in self._app_inflight
        ]

    def _detect(self) -> None:
        due = sorted(
            n
            for n, at in self.crashed_at.items()
            if n not in self.stash and self.round - at >= self.cfg.detection_rounds
        )
        if not due:
            return
        # (departed, gid) pairs in order of first departure, each once
        affected: dict[tuple[NodeId, str], None] = {}
        for n in due:
            removed = self.stash[n] = leave_all(self.assignment, n)
            for gid, role in removed:
                ev = MembershipEvent(self.round, "MemberLeft", gid, n, role)
                self._log(ev, f"member-left {gid} {n} {role}")
                affected[n, gid] = None
        self._liveness_changed()
        if not self.nodes:
            return
        for departed, gid in affected:
            grp = self.assignment.groups[gid]
            for m in sorted(grp.members & self.alive):
                self._apply_result(m, self.nodes[m].on_member_left(grp, departed))

    def _start_cycle(self) -> None:
        """Run one discover -> update -> verify cycle; its two drains share one
        `_CASCADE_CAP` count, which also covers this round's departure traffic,
        queued before it. The poll drain after the cycle counts on its own."""
        delivered = self._discover()
        for n in self.alive_sorted:
            node = self.nodes[n]
            targets = node.update_targets()
            if targets:
                self._apply_result(n, node.start_update(targets))
        self._drain_control(delivered)
        connected = is_strongly_connected(effective_graph(self.assignment, self.detected_alive))
        self._log(CycleComplete(self.round, self.epoch, connected), f"cycle-complete epoch {self.epoch}")

    def _discover(self) -> int:
        """Discovery stage of a new epoch; returns the deliveries it made."""
        self.epoch += 1
        for n in self.alive_sorted:
            self._apply_result(n, self.nodes[n].start_discovery())
        for n in self.alive_sorted:
            self._apply_result(n, self.nodes[n].take_retries())
        return self._drain_control()

    def _drain_control(self, delivered: int = 0) -> int:
        """Deliver queued control traffic as the module docstring says, walking
        each entry's plan as it is popped; the delivery count starts at
        `delivered` and is returned. The handler is looked up on the class
        once per entry, so one replaced there runs from the next entry on."""
        ctrl, alive, nodes = self._ctrl, self.alive, self.nodes
        popleft, extend, nothing = ctrl.popleft, ctrl.extend, _NOTHING
        apply_joins = self._apply_joins
        sent = 0
        while ctrl:
            plan, msg = popleft()
            sent += len(plan)
            handler = getattr(BpdNode, msg.handler)
            for dsts, group in plan:
                delivered += len(dsts)
                if delivered > _CASCADE_CAP:
                    raise CascadeError(
                        f"control cascade did not quiesce within {_CASCADE_CAP} deliveries"
                    )
                for dst in dsts:
                    if dst in alive:
                        res = handler(nodes[dst], msg, group)
                        if res is not nothing:
                            emissions, joins = res
                            extend(emissions)
                            if joins:
                                apply_joins(dst, joins)
        self._ctrl_sent += sent
        return delivered

    def _apply_result(self, emitter: NodeId, res: HandlerResult) -> None:
        """Enqueue a result made outside a drain and apply its joins; the
        next drain pops, and so counts, its emissions."""
        self._ctrl.extend(res.emissions)
        if res.joins:
            self._apply_joins(emitter, res.joins)

    def _apply_joins(self, emitter: NodeId, joins: Sequence[JoinIntent]) -> None:
        for intent in joins:
            gid, role, reason = intent.gid, intent.role, intent.reason
            if join_group(self.assignment, emitter, gid, role):
                ev = MembershipEvent(self.round, "MemberJoined", gid, emitter, role, reason)
                self._log(ev, f"join {gid} {emitter} {role} {reason}")

    def _poll_timeouts(self) -> None:
        alive = self.alive
        for n, node in self.nodes.items():  # roster order, which is sorted
            if n in alive and (node.pending_join or node.pending_query):
                self._apply_result(n, node.poll())
        self._drain_control()

    def _send_app(self, order: list[NodeId]) -> None:
        """Queue this round's application message of each alive peer, in the
        sorted `order`, and count its destinations but the sender: only
        all-to-all names it, once, since alive <= detected_alive.

        Every all-to-all sender of a round names the same peers, so
        `strategy_emit` is asked for them once per round, for the first
        sender, and every sender shares that tuple; any other strategy is
        asked once per sender."""
        stamps, packing, pos, rnd = self.stamps, self.packing, self.pos, self.round
        strategy, x, inflight = self.strategy, self.x, self._app_inflight
        to_all = isinstance(strategy, AllToAll)
        shared = strategy_emit(strategy, order[0], self) if to_all and order else None
        for n in order:
            mine = stamps[n] = packing.put(stamps[n], pos[n], rnd)
            dsts = shared if to_all else strategy_emit(strategy, n, self)
            count = len(dsts) - to_all
            if count:
                inflight.append((n, x[n], mine, dsts))
                self._app_sent += count

    def _close_round(self) -> RoundStats:
        """Purge the alive peers' receipts, record the round's x and DE
        columns in roster order and return its `RoundStats`."""
        position = self.alive_position
        receipts, pos, packing, rnd, window = (
            self.receipts, self.pos, self.packing, self.round, self.window
        )
        origins_alive = self.detected_guards
        # looked up here, once per round, so a function replaced on `metrics`
        # is the one that runs
        purge, efficiency = metrics.purge, metrics.dissemination_efficiency
        des: list[float] = []
        for n in position:
            kept = receipts[n] = purge(receipts[n], rnd, window, packing)
            des.append(efficiency(kept, origins_alive, pos[n], packing))
        x = self.x
        xs = [x[n] for n in position]
        cfg = self.cfg
        row = RoundStats(
            round=self.round,
            messages=self._app_sent,
            control_messages=self._ctrl_sent,
            bytes=self._app_sent * cfg.payload_bytes + self._ctrl_sent * cfg.control_bytes,
            mean_de=sum(des) / len(des) if des else 1.0,
            min_de=min(des) if des else 1.0,
            max_x=max(xs) if xs else 0.0,
            min_x=min(xs) if xs else 0.0,
        )
        self.stats.append(row)
        self.x_trace.append(RoundColumn(position, array("d", xs)))
        self.de_trace.append(RoundColumn(position, array("d", des)))
        return row

    def _log(self, record: FaultEvent | MembershipEvent | CycleComplete, line: str = "") -> None:
        """Append `record` to the log and trace `line`, its one trace line
        (none if empty)."""
        self.log.append(record)
        if line:
            self._trace(line)

    def _trace(self, text: str) -> None:
        if self.trace_fn is not None:
            self.trace_fn(f"round={self.round} {text}")

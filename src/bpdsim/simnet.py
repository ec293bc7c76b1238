"""Deterministic round-based network simulator.

Application data is round-paced: a message sent in round k is delivered in
round k+1, with no loss or reordering among live peers. Protocol control
traffic (discovery, path updates, membership repair) instead completes
within the round that triggers it: those exchanges take a network round
trip, which at a 10 ms iteration period is far below one round, so the
simulator cascades control deliveries to quiescence inside the round.
Everything is driven from sorted orders and seeded generators, so a run is a
pure function of its configuration.

Freshness for dissemination efficiency travels with the application data.
Each node holds a stamp vector indexed by position in the sorted roster: the
latest round whose information from that origin it has, -1 for never. A
sender stamps its own slot with the round and attaches one tuple snapshot of
its vector to all of that round's messages. On delivery each destination
merges every snapshot it received with one element-wise max, and records a
receipt once for each origin whose stamp rose. The max does not depend on
arrival order, so the merged vectors, and with them the DE figures, are the
same as folding the messages in one at a time.

Crashed peers neither send nor receive. Messages addressed to one are still
counted as sent and then dropped, because the senders cannot know better
until the missed-heartbeat detector fires: a crash in round r is detected in
exactly round r + detection_rounds, at which point the peer leaves its
groups (kept stashed so a later recovery can rejoin them) and the repair
handlers run.
"""
from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import ne

from . import metrics
from .bpd import (
    BpdConfig,
    BpdNode,
    DiscoverMsg,
    GrpAns,
    GrpQry,
    HandlerResult,
    JoinRep,
    JoinReq,
    UpdateMsg,
)
from .graph import DirectedGraph, NodeId, hop_counts, int_if_integral, is_strongly_connected
from .groups import (
    GroupAssignment,
    MembershipEvent,
    effective_graph,
    form_groups,
    join_group,
    leave_all,
)
from .workloads import DEFAULT_EPS, Bpd, Strategy, consensus_step, init_values, strategy_emit

_CASCADE_CAP = 2_000_000

# control message type -> name of the BpdNode method that handles it; the
# method is looked up on the node at each delivery, so one replaced on
# BpdNode (as bench/tracer.py does) is the one that runs
_HANDLERS = {
    DiscoverMsg: "on_discover",
    UpdateMsg: "on_update",
    JoinReq: "on_join_req",
    JoinRep: "on_join_rep",
    GrpQry: "on_grp_qry",
    GrpAns: "on_grp_ans",
}


class UnknownNodeError(KeyError):
    pass


class FaultError(ValueError):
    pass


class UnreachableError(RuntimeError):
    pass


class CascadeError(RuntimeError):
    """One drain of control traffic ran past `_CASCADE_CAP` deliveries."""


@dataclass(frozen=True)
class SimConfig:
    n_rounds: int
    seed: int = 0
    round_period_ms: float = 10.0
    payload_bytes: int = 64
    control_bytes: int = 32
    detection_rounds: int = 1
    de_window_rounds: int | None = None  # default: 2 * roster size
    per_hop_delay_ms: float = 0.6
    eps: float = DEFAULT_EPS

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
            ("per_hop_delay_ms", 0 <= self.per_hop_delay_ms < math.inf, "finite and >= 0"),
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


def validate_schedule(faults: list[FaultEvent], roster: set[NodeId]) -> None:
    crashed: set[NodeId] = set()
    last = 0
    for ev in faults:
        if ev.node not in roster:
            raise UnknownNodeError(ev.node)
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


@dataclass
class RoundStats:
    round: int
    messages: int
    control_messages: int
    bytes: int
    mean_de: float
    min_de: float
    max_x: float
    min_x: float


class World:
    def __init__(
        self,
        graph: DirectedGraph,
        strategy: Strategy,
        cfg: SimConfig,
        bpd_cfg: BpdConfig | None = None,
        faults: list[FaultEvent] | None = None,
        trace_fn=None,
    ):
        self.graph0 = graph
        self.strategy = strategy
        self.cfg = cfg
        self.roster: list[NodeId] = list(graph.nodes)
        self.window = cfg.de_window_rounds or 2 * len(self.roster)
        self.faults = list(faults or [])
        validate_schedule(self.faults, set(self.roster))
        self.trace_fn = trace_fn

        self.assignment: GroupAssignment = form_groups(graph)
        self.bpd_cfg = bpd_cfg
        # converted once: every update delivery compares against it, and it is
        # an int when integral, like the group weights it is compared with
        self.thresh = None if bpd_cfg is None else int_if_integral(Fraction(bpd_cfg.thresh))
        if isinstance(strategy, Bpd):
            if bpd_cfg is None:
                raise ValueError("bpd strategy needs a BpdConfig")
            if self.thresh < graph.max_weight():
                raise ValueError(
                    f"thresh {bpd_cfg.thresh} below max edge weight {graph.max_weight()}"
                )

        self.alive: set[NodeId] = set(self.roster)
        # alive <= detected_alive: a crashed peer stays in it until detected
        self.detected_alive: set[NodeId] = set(self.roster)
        self.crashed_at: dict[NodeId, int] = {}
        self.stash: dict[NodeId, list[tuple[str, str]]] = {}

        self.nodes: dict[NodeId, BpdNode] = {n: BpdNode(n, self) for n in self.roster}
        self.x: dict[NodeId, float] = init_values(self.roster, cfg.seed)
        self.x0 = dict(self.x)
        # roster position of each node: the index into every stamp vector
        self.pos: dict[NodeId, int] = {n: i for i, n in enumerate(self.roster)}
        self.stamps: dict[NodeId, list[int]] = {n: [-1] * len(self.roster) for n in self.roster}
        for n, i in self.pos.items():
            self.stamps[n][i] = 0
        self.de_hist: dict[NodeId, dict[NodeId, int]] = {n: {} for n in self.roster}
        self.gossip_rng = random.Random(f"{cfg.seed}:gossip")

        self.round = 0
        self.epoch = 0
        self._ctrl: deque = deque()
        # (src, dst, x, stamp snapshot) per message sent last round
        self._app_inflight: list[tuple[NodeId, NodeId, float, tuple[int, ...]]] = []
        self.stats: list[RoundStats] = []
        self.x_trace: list[dict[NodeId, float]] = []
        self.de_trace: list[dict[NodeId, float]] = []
        self.events: list[MembershipEvent] = []
        self.not_connected_rounds: list[int] = []
        self.repair_delays: list[int] = []
        self.last_crash_round = 0
        self.edges_initial = self.effective_edge_count()

        self._app_sent = 0
        self._ctrl_sent = 0
        self._bytes = 0

    # --- public driving --------------------------------------------------

    def run(self) -> None:
        for _ in range(self.cfg.n_rounds):
            self.step_round()

    def step_round(self) -> RoundStats:
        self.round += 1
        self._app_sent = self._ctrl_sent = self._bytes = 0
        consensus_in: dict[NodeId, dict[NodeId, float]] = {n: {} for n in self.roster}

        for ev in self.faults:
            if ev.round == self.round:
                self.inject_fault(ev.node, ev.action)

        self._deliver_app(consensus_in)
        self._detect()
        if isinstance(self.strategy, Bpd) and (self.round - 1) % self.bpd_cfg.repair_period_rounds == 0:
            self._start_cycle()
        else:
            self._drain_control()
        self._poll_timeouts()

        for n in sorted(self.alive):
            self.x[n] = consensus_step(self.x[n], consensus_in[n], self.cfg.eps)
        self._send_app()
        self._ctrl_sent += len(self.alive)  # heartbeats
        self._bytes += len(self.alive) * self.cfg.control_bytes

        return self._close_round()

    def inject_fault(self, node: NodeId, action: str) -> None:
        if node not in self.nodes:
            raise UnknownNodeError(node)
        if action == "crash":
            if node not in self.alive:
                raise FaultError(f"{node} is already down")
            self.alive.discard(node)
            self.crashed_at[node] = self.round
            self.last_crash_round = self.round
            self._trace(f"fault crash {node}")
        elif action == "recover":
            if node in self.alive:
                return
            self.alive.add(node)
            # a peer that came back before anyone noticed never left its groups
            if node not in self.detected_alive:
                self.detected_alive.add(node)
                for gid, role in self.stash.pop(node, []):
                    ev = join_group(self.assignment, node, gid, role, round=self.round)
                    if ev:
                        self.events.append(ev)
            self.crashed_at.pop(node, None)
            self._trace(f"fault recover {node}")
        else:
            raise FaultError(f"unknown fault action {action!r}")

    def run_repair_cycle(self) -> GroupAssignment:
        """Force one full discovery + update cycle to quiescence right now."""
        self._start_cycle()
        self._poll_timeouts()
        return self.assignment

    def estimate_latency(self, src: NodeId, dst: NodeId) -> float:
        if src not in self.nodes or dst not in self.nodes:
            raise UnknownNodeError(src if src not in self.nodes else dst)
        if src == dst:
            return 0.0
        eff = effective_graph(self.assignment, self.alive)
        if src not in eff.nodes:
            raise UnreachableError(f"{dst} unreachable from {src}")
        hops = hop_counts(eff, src)
        if dst not in hops:
            raise UnreachableError(f"{dst} unreachable from {src}")
        return hops[dst] * self.cfg.per_hop_delay_ms

    def effective_edge_count(self) -> int:
        return effective_graph(self.assignment, set(self.roster)).n_edges

    def alive_effective_graph(self) -> DirectedGraph:
        return effective_graph(self.assignment, set(self.alive))

    # --- internals --------------------------------------------------------

    def _deliver_app(self, consensus_in) -> None:
        inflight, self._app_inflight = self._app_inflight, []
        alive = self.alive
        tracing = self.trace_fn is not None
        # consensus_in is filled in message order: the float sums of
        # consensus_step follow its insertion order
        snapshots: dict[NodeId, list[tuple[int, ...]]] = {}
        for src, dst, x, snapshot in inflight:
            if dst not in alive:
                continue
            consensus_in[dst][src] = x
            snapshots.setdefault(dst, []).append(snapshot)
            if tracing:
                self._trace(f"deliver app {src} {dst}")
        roster, positions = self.roster, range(len(self.roster))
        record, rnd = metrics.record_receipt, self.round
        for dst, got in snapshots.items():
            mine = self.stamps[dst]
            merged = self.stamps[dst] = list(map(max, mine, *got))
            hist = self.de_hist[dst]
            own = self.pos[dst]
            for i in compress(positions, map(ne, merged, mine)):
                if i != own:
                    record(hist, roster[i], rnd)

    def _detect(self) -> None:
        due = sorted(
            n
            for n in self.detected_alive - self.alive
            if self.round - self.crashed_at[n] >= self.cfg.detection_rounds
        )
        if not due:
            return
        affected: list[tuple[NodeId, str, str]] = []
        for n in due:
            self.detected_alive.discard(n)
            removed = leave_all(self.assignment, n)
            self.stash[n] = removed
            for gid, role in removed:
                self.events.append(MembershipEvent("MemberLeft", gid, n, role, self.round))
                affected.append((n, gid, role))
                self._trace(f"member-left {gid} {n} {role}")
        if not isinstance(self.strategy, Bpd):
            return
        seen: set[tuple[NodeId, str]] = set()
        for departed, gid, _role in affected:
            if (departed, gid) in seen:
                continue
            seen.add((departed, gid))
            grp = self.assignment.groups[gid]
            for m in sorted(grp.members & self.alive):
                self._apply_result(m, self.nodes[m].on_member_left(grp, departed))

    def _start_cycle(self) -> None:
        """Run one discover -> update -> verify cycle; traffic queued before it (this
        round's repair requests) drains with discovery, under one `_CASCADE_CAP` count."""
        delivered = self._discover()
        for n in sorted(self.alive):
            node = self.nodes[n]
            targets = node.update_targets()
            if targets:
                self._apply_result(n, node.start_update(targets))
        self._drain_control(delivered)
        eff = effective_graph(self.assignment, set(self.detected_alive))
        if not is_strongly_connected(eff):
            self.not_connected_rounds.append(self.round)
        self._trace(f"cycle-complete epoch {self.epoch}")

    def _discover(self) -> int:
        """Discovery stage of a new epoch; returns the deliveries it made."""
        self.epoch += 1
        for n in sorted(self.alive):
            self._apply_result(n, self.nodes[n].start_discovery())
        for n in sorted(self.alive):
            self._apply_result(n, self.nodes[n].take_retries())
        return self._drain_control()

    def _drain_control(self, delivered: int = 0) -> int:
        """Deliver queued control traffic; `delivered` carries the cascade's count."""
        ctrl, alive, nodes = self._ctrl, self.alive, self.nodes
        while ctrl:
            delivered += 1
            if delivered > _CASCADE_CAP:
                raise CascadeError(
                    f"control cascade did not quiesce within {_CASCADE_CAP} deliveries"
                )
            dst, gid, msg = ctrl.popleft()
            if dst in alive:
                res = getattr(nodes[dst], _HANDLERS[type(msg)])(msg, gid)
                if res.emissions or res.joins:
                    self._apply_result(dst, res)
        return delivered

    def _apply_result(self, emitter: NodeId, res: HandlerResult) -> None:
        for emission in res.emissions:
            kind = emission[0]
            self._ctrl_sent += 1
            self._bytes += self.cfg.control_bytes
            if kind == "group":
                _, gid, msg = emission
                for m in sorted(self.assignment.groups[gid].members - {emitter}):
                    self._ctrl.append((m, gid, msg))
            elif kind == "multi":
                _, dsts, msg = emission
                for d in dsts:
                    self._ctrl.append((d, None, msg))
            else:
                raise ValueError(f"unknown emission kind {kind!r}")
        for intent in res.joins:
            ev = join_group(self.assignment, emitter, intent.gid, intent.role, round=self.round)
            if ev:
                self.events.append(ev)
                if self.trace_fn is not None:
                    self._trace(f"join {intent.gid} {emitter} {intent.role} {intent.reason}")
                if intent.reason.startswith("repair:"):
                    self.repair_delays.append(self.round - self.last_crash_round)

    def _poll_timeouts(self) -> None:
        if not isinstance(self.strategy, Bpd):
            return
        for n in sorted(self.alive):
            node = self.nodes[n]
            if not node.pending_join and not node.pending_query:
                continue
            self._apply_result(n, node.poll())
        self._drain_control()

    def _send_app(self) -> None:
        for n in sorted(self.alive):
            mine = self.stamps[n]
            mine[self.pos[n]] = self.round
            dsts = strategy_emit(self.strategy, n, self)
            if not dsts:
                continue
            snapshot = tuple(mine)
            xval = self.x[n]
            self._app_inflight.extend((n, dst, xval, snapshot) for dst in dsts)
            self._app_sent += len(dsts)
            self._bytes += len(dsts) * self.cfg.payload_bytes

    def _close_round(self) -> RoundStats:
        des: dict[NodeId, float] = {}
        for n in sorted(self.alive):
            metrics.purge(self.de_hist[n], self.round, self.window)
            des[n] = metrics.dissemination_efficiency(
                self.de_hist[n], self.detected_alive, n, len(self.roster)
            )
        xs = {n: self.x[n] for n in sorted(self.alive)}
        row = RoundStats(
            round=self.round,
            messages=self._app_sent,
            control_messages=self._ctrl_sent,
            bytes=self._bytes,
            mean_de=sum(des.values()) / len(des) if des else 1.0,
            min_de=min(des.values()) if des else 1.0,
            max_x=max(xs.values()) if xs else 0.0,
            min_x=min(xs.values()) if xs else 0.0,
        )
        self.stats.append(row)
        self.x_trace.append(xs)
        self.de_trace.append(des)
        return row

    def _trace(self, text: str) -> None:
        if self.trace_fn is not None:
            self.trace_fn(f"round={self.round} {text}")

"""Distributed averaging workload and the peer-selection strategies under test.

Every strategy runs the same iteration: each round a node mixes the values
delivered to it toward their average, weighting each delivered neighbour
``eps / k`` where k is the number of distinct senders heard this round. The
strategies differ only in who talks to whom: direct all-to-all, random push
gossip, the declared topology as-is, or the declared topology managed by the
bounded-path protocol.
"""
from __future__ import annotations

import random
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import sub

from .graph import NodeId


@dataclass(frozen=True)
class AllToAll:
    pass


@dataclass(frozen=True)
class Gossip:
    fanout: int = 3

    def __post_init__(self):
        if self.fanout < 0:
            raise ValueError(f"fanout must be >= 0, got {self.fanout}")


@dataclass(frozen=True)
class Unmodified:
    pass


@dataclass(frozen=True)
class Bpd:
    """The declared topology managed by the bounded-path protocol: `thresh` bounds
    every pairwise path cost, a repair cycle starts every `repair_period_rounds`,
    and a pending repair query expires after `reply_timeout_rounds`. `thresh` is
    stored as a `Fraction`; each node holds it as an int (see `groups`)."""

    thresh: Fraction
    repair_period_rounds: int = 200
    reply_timeout_rounds: int = 5

    def __post_init__(self):
        object.__setattr__(self, "thresh", Fraction(self.thresh))
        for name, ok, rule in (
            ("thresh", self.thresh > 0, "> 0"),
            ("repair_period_rounds", self.repair_period_rounds >= 1, ">= 1"),
            ("reply_timeout_rounds", self.reply_timeout_rounds >= 1, ">= 1"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


Strategy = AllToAll | Gossip | Unmodified | Bpd

_NAMES = {"all-to-all": AllToAll, "alltoall": AllToAll, "gossip": Gossip,
          "unmodified": Unmodified, "bpd": Bpd}


def strategy_class(name: str) -> type[Strategy]:
    """The strategy class a name stands for, ignoring case and surrounding space."""
    cls = _NAMES.get(name.strip().lower())
    if cls is None:
        raise ValueError(f"unknown strategy {name!r}")
    return cls


def init_values(roster: list[NodeId], seed: int) -> dict[NodeId, float]:
    """Per-node initial readings, uniform over [0, 100), seeded."""
    rng = random.Random(f"{seed}:init")
    return {n: rng.uniform(0.0, 100.0) for n in sorted(roster)}


def true_average(values: dict[NodeId, float]) -> float:
    if not values:
        raise ValueError("no values")
    return sum(values.values()) / len(values)


def consensus_step(x_i: float, delivered: Collection[float], eps: float) -> float:
    """One averaging update over the values delivered this round, one per
    distinct sender in sender order; a node that heard nobody keeps its value.

    The deviations are summed in the order given, so one input in one order
    gives one float."""
    k = len(delivered)
    if k == 0:
        return x_i
    a = eps / k
    return x_i + a * sum(map(sub, delivered, repeat(x_i)))


def select_gossip_peers(
    node: NodeId, peers: Sequence[NodeId], fanout: int, rng: random.Random
) -> list[NodeId]:
    """Uniform sample of fanout distinct peers from the sorted `peers` (never
    the node itself), or every one of them when fewer are left."""
    pool = [p for p in peers if p != node]
    return sorted(rng.sample(pool, min(fanout, len(pool))))


def strategy_emit(strategy: Strategy, node: NodeId, world) -> Sequence[NodeId]:
    """Destinations for this node's application message this round.

    All-to-all returns `World.detected_sorted`, the sorted detected-alive
    peers, which every sender of the round shares; it names the sender too,
    whom the world never delivers to or counts. Gossip samples from it into a
    list of its own. The group strategies return the node's shared tuple
    `GroupAssignment.send_dsts`, which never names it: current receivers, so
    a peer that died undetected still gets (dropped) messages, as on a real
    deployment.
    """
    if isinstance(strategy, AllToAll):
        return world.detected_sorted
    if isinstance(strategy, Gossip):
        return select_gossip_peers(node, world.detected_sorted, strategy.fanout, world.gossip_rng)
    return world.assignment.send_dsts(node)

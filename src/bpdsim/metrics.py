"""Dissemination and convergence measurements.

Dissemination efficiency (DE) asks: of everything the deployment could be
telling this node right now, how much has actually arrived recently? A node
scores the fraction of the full roster whose information it holds fresh
(itself included, dead peers never counted), so with one of six peers down
even perfect dissemination tops out at 5/6.
"""
from __future__ import annotations

from .graph import NodeId


class ZeroOptimumError(ValueError):
    pass


def record_receipt(history: dict[NodeId, int], source: NodeId, round: int) -> None:
    """Note a fresh receipt of `source`'s information at `round`."""
    history[source] = round


def purge(history: dict[NodeId, int], round: int, window: int) -> None:
    """Forget receipts older than the freshness window."""
    for src in [s for s, r in history.items() if r < round - window]:
        del history[src]


def dissemination_efficiency(
    history: dict[NodeId, int],
    alive: set[NodeId],
    node: NodeId,
    roster_size: int,
) -> float:
    """Fresh coverage of the roster at one node, in [0, 1].

    Counts the node itself plus every alive source with a receipt still in
    the window; sources that crashed stop counting the moment their failure
    is detected, so a residual backlog of their messages cannot inflate the
    score.
    """
    if roster_size <= 1:
        return 1.0
    fresh = {s for s in history if s in alive and s != node}
    return (1 + len(fresh)) / roster_size


def deviation_pct(values: dict[NodeId, float], optimum: float) -> float:
    """Mean |x - optimum| as a percentage of |optimum|."""
    if optimum == 0:
        raise ZeroOptimumError("optimum is zero")
    if not values:
        raise ValueError("no values")
    return 100.0 * sum(abs(v - optimum) for v in values.values()) / (len(values) * abs(optimum))


def iterations_to_band(
    trace: list[dict[NodeId, float]], optimum: float, band_pct: float = 5.0
) -> int | None:
    """First round index after which every traced value stays within the band.

    `trace[k]` maps each node alive at round k to its value. Returns None if
    some value strays beyond ±band_pct of the optimum for the rest of the
    run; 0 if the trace starts inside the band and never leaves.
    """
    if optimum == 0:
        raise ZeroOptimumError("optimum is zero")
    limit = abs(optimum) * band_pct / 100.0
    first_bad = None
    for k in range(len(trace) - 1, -1, -1):
        if any(abs(v - optimum) > limit for v in trace[k].values()):
            first_bad = k
            break
    if first_bad is None:
        return 0
    return first_bad + 1 if first_bad + 1 < len(trace) else None


def bandwidth_kbps(
    total_bytes: int, n_rounds: int, round_period_ms: float, n_nodes: int
) -> float:
    """Mean per-node traffic in kilobytes per second over the whole run."""
    if n_rounds <= 0 or n_nodes <= 0 or round_period_ms <= 0:
        raise ValueError("rounds, nodes, and period must be positive")
    duration_s = n_rounds * round_period_ms / 1000.0
    return total_bytes / duration_s / n_nodes / 1000.0

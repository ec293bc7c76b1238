"""Dissemination and convergence measurements.

Dissemination efficiency (DE) asks: of everything the deployment could be
telling this node right now, how much has actually arrived recently? A node
scores the fraction of the full roster whose information it holds fresh
(itself included, dead peers never counted), so with one of six peers down
even perfect dissemination tops out at 5/6.

Each node keeps one receipt vector indexed by roster position, like the
stamp vectors: slot i holds the last round in which its stamp for origin i
rose, or `NO_RECEIPT`.
"""
from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, repeat
from operator import gt, ne

from .graph import NodeId

# a receipt slot that holds nothing, never received or purged
NO_RECEIPT = -1


class ZeroOptimumError(ValueError):
    pass


def record_receipt(
    receipts: list[int], before: Sequence[int], after: Sequence[int], round: int
) -> None:
    """Note the fresh receipts of one round: every slot whose stamp rose from
    `before` to `after` now holds `round`."""
    for i in compress(range(len(after)), map(ne, after, before)):
        receipts[i] = round


def purge(receipts: list[int], round: int, window: int) -> None:
    """Forget receipts older than the freshness window."""
    # empty slots are below any cutoff >= 0 too; resetting them changes nothing
    for i in compress(range(len(receipts)), map(gt, repeat(round - window), receipts)):
        receipts[i] = NO_RECEIPT


def dissemination_efficiency(receipts: Sequence[int], alive: Sequence[bool], own: int) -> float:
    """Fresh coverage of the roster at one node, in [0, 1].

    `receipts` is the node's purged receipt vector, `alive` flags the origins
    not detected as down and `own` is the node's own slot, all by roster
    position. Counts the node itself plus every alive other origin with a
    receipt still in the window; origins that crashed stop counting the
    moment their failure is detected, so a residual backlog of their
    messages cannot inflate the score.
    """
    roster_size = len(receipts)
    if roster_size <= 1:
        return 1.0
    kept = list(compress(receipts, alive))
    fresh = len(kept) - kept.count(NO_RECEIPT)
    if alive[own] and receipts[own] != NO_RECEIPT:
        fresh -= 1
    return (1 + fresh) / roster_size


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

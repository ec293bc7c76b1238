"""Dissemination and convergence measurements.

Dissemination efficiency (DE) asks: of everything the deployment could be
telling this node right now, how much has actually arrived recently? A node
scores the fraction of the full roster whose information it holds fresh
(itself included, dead peers never counted), so with one of six peers down
even perfect dissemination tops out at 5/6.

Each node keeps one receipt vector indexed by roster position, like the
stamp vectors: slot i holds the last round in which its stamp for origin i
rose, or `NO_RECEIPT`.

Both kinds of vector are packed into one Python `int` (SWAR, "SIMD within a
register"): slot i is the `width`-bit field at bit `width * i`, holding the
slot's value + 1 (so `-1`, never heard or `NO_RECEIPT`, is 0) in its low
`width - 1` bits under one guard bit that is always 0 in a stored vector. A
`Packing` holds the layout. Setting every guard bit of `a` and subtracting
`b` leaves a field's guard bit set exactly where a >= b there, and never
borrows from the next field, so one element-wise max, one "slot changed"
mask, one purge and one DE count each take a handful of int operations
whatever the roster size. The width comes from the input: a world built for
R rounds uses `(R + 1).bit_length() + 1` bits, enough for rounds 0..R, and
re-packs at double width if it is stepped past the largest round its fields
hold (`Packing.top`).
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .graph import NodeId

# a receipt slot that holds nothing, never received or purged
NO_RECEIPT = -1


class ZeroOptimumError(ValueError):
    pass


class Packing:
    """Layout of a packed vector: `size` slots of `width` bits, slot i at bit
    `width * i`, each holding its value + 1 under a guard bit."""

    __slots__ = ("size", "width", "top", "ones", "guards")

    def __init__(self, size: int, width: int):
        self.size = size
        self.width = width
        # the largest value a slot holds: value + 1 fills the bits under the guard
        self.top = (1 << (width - 1)) - 2
        # 1 in the lowest bit of every slot, and every slot's guard bit
        self.ones = ((1 << width * size) - 1) // ((1 << width) - 1)
        self.guards = self.ones << (width - 1)

    @classmethod
    def for_rounds(cls, size: int, n_rounds: int) -> Packing:
        """The narrowest layout whose slots hold every round 0..n_rounds."""
        return cls(size, (n_rounds + 1).bit_length() + 1)

    def pack(self, values: Sequence[int]) -> int:
        """One packed vector from `size` values, each in -1..top."""
        w = self.width
        return sum((v + 1) << w * i for i, v in enumerate(values))

    def unpack(self, packed: int) -> list[int]:
        w, low = self.width, self.top + 1
        return [((packed >> w * i) & low) - 1 for i in range(self.size)]

    def put(self, packed: int, i: int, value: int) -> int:
        """`packed` with slot i set to `value`."""
        shift = self.width * i
        return (packed & ~((self.top + 1) << shift)) | ((value + 1) << shift)

    def guard_bits(self, flags: Iterable[bool]) -> int:
        """The guard bits of the slots whose flag is true."""
        w = self.width
        return sum(1 << (w * i + w - 1) for i, flag in enumerate(flags) if flag)

    def max(self, vectors: Iterable[int]) -> int:
        """Element-wise max of one or more packed vectors."""
        guards, shift = self.guards, self.width - 1
        it = iter(vectors)
        best = next(it)
        for v in it:
            # guard bit set where best >= v; spread to the slot's value bits
            ge = ((best | guards) - v) & guards
            best = v ^ ((best ^ v) & (ge - (ge >> shift)))
        return best


def _nonzero_guards(packed: int, packing: Packing) -> int:
    """The guard bits of the slots of `packed` that are not 0."""
    guards = packing.guards
    return ((packed | guards) - packing.ones) & guards


def record_receipt(receipts: int, before: int, after: int, round: int, packing: Packing) -> int:
    """The receipt vector after the fresh receipts of one round: every slot
    whose stamp differs between `before` and `after` now holds `round`."""
    rose = _nonzero_guards(before ^ after, packing)
    mask = rose - (rose >> (packing.width - 1))
    return receipts ^ ((receipts ^ (round + 1) * packing.ones) & mask)


def purge(receipts: int, round: int, window: int, packing: Packing) -> int:
    """The receipt vector without the receipts older than the freshness window."""
    # the packed form of the oldest round kept; empty slots (0) are below any
    # cutoff >= 1 and stay 0
    cutoff = round - window + 1
    if cutoff <= 1:
        return receipts
    kept = ((receipts | packing.guards) - cutoff * packing.ones) & packing.guards
    return receipts & (kept - (kept >> (packing.width - 1)))


def dissemination_efficiency(receipts: int, alive: int, own: int, packing: Packing) -> float:
    """Fresh coverage of the roster at one node, in [0, 1].

    `receipts` is the node's purged receipt vector, `alive` the guard bits
    (`Packing.guard_bits`) of the origins not detected as down and `own` the
    node's own slot. Counts the node itself plus every alive other origin with a
    receipt still in the window; origins that crashed stop counting the
    moment their failure is detected, so a residual backlog of their
    messages cannot inflate the score.
    """
    held = _nonzero_guards(receipts, packing) & alive
    w = packing.width
    fresh = held.bit_count() - ((held >> (w * own + w - 1)) & 1)
    return (1 + fresh) / packing.size


def deviation_pct(values: Mapping[NodeId, float], optimum: float) -> float:
    """Mean |x - optimum| as a percentage of |optimum|, over one value per
    node: a dict, or one round's x figures (`simnet.RoundColumn`)."""
    if optimum == 0:
        raise ZeroOptimumError("optimum is zero")
    if not values:
        raise ValueError("no values")
    return 100.0 * sum(abs(v - optimum) for v in values.values()) / (len(values) * abs(optimum))


def iterations_to_band(
    trace: Sequence[Mapping[NodeId, float]], optimum: float, band_pct: float = 5.0
) -> int | None:
    """First round index after which every traced value stays within the band.

    `trace[k]` maps each node alive at round k to its value, as one round's x
    column of `World.x_trace` does (`simnet.RoundColumn`). A round with no
    alive peer holds no value inside the band, so it counts as outside it.
    Returns None if the last round is outside the band; 0 if the trace starts
    inside the band and never leaves.
    """
    if optimum == 0:
        raise ZeroOptimumError("optimum is zero")
    limit = abs(optimum) * band_pct / 100.0
    first_bad = None
    for k in range(len(trace) - 1, -1, -1):
        row = trace[k]
        if not row or any(abs(v - optimum) > limit for v in row.values()):
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

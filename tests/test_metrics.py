from collections import Counter
from itertools import compress, repeat
from operator import gt, ne
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpdsim import cli, metrics
from bpdsim.metrics import (
    NO_RECEIPT,
    Packing,
    ZeroOptimumError,
    bandwidth_kbps,
    deviation_pct,
    dissemination_efficiency,
    iterations_to_band,
    purge,
    record_receipt,
)

# --- list oracles: the kernel on plain lists, one slot at a time -----------


def list_record_receipt(receipts, before, after, round):
    for i in compress(range(len(after)), map(ne, after, before)):
        receipts[i] = round


def list_purge(receipts, round, window):
    for i in compress(range(len(receipts)), map(gt, repeat(round - window), receipts)):
        receipts[i] = NO_RECEIPT


def list_de(receipts, alive, own):
    roster_size = len(receipts)
    if roster_size <= 1:
        return 1.0
    kept = list(compress(receipts, alive))
    fresh = len(kept) - kept.count(NO_RECEIPT)
    if alive[own] and receipts[own] != NO_RECEIPT:
        fresh -= 1
    return (1 + fresh) / roster_size


# roster a..f by position; every receipt vector below is indexed the same way
ROSTER6 = ("a", "b", "c", "d", "e", "f")
ALL_ALIVE = [True] * 6
NONE = NO_RECEIPT


def de(receipts, alive, own):
    """DE of plain receipt and alive lists, through the packed kernel."""
    packing = Packing.for_rounds(len(receipts), 10)
    return dissemination_efficiency(packing.pack(receipts), packing.guard_bits(alive), own, packing)


def test_de_full_coverage():
    receipts = [NONE, 10, 10, 10, 10, 10]
    assert de(receipts, ALL_ALIVE, 0) == 1.0


def test_de_excludes_crashed_sources():
    # backlog from f still in the vector, but f is down: 5/6 is the ceiling
    receipts = [NONE, 10, 10, 10, 10, 10]
    alive = [True, True, True, True, True, False]
    assert de(receipts, alive, 0) == pytest.approx(5 / 6)


def test_de_partitioned_pair():
    # b hears only a: itself + one source out of a six-node roster
    receipts = [9, NONE, NONE, NONE, NONE, NONE]
    assert de(receipts, ALL_ALIVE, 1) == pytest.approx(2 / 6)


def test_de_self_only():
    assert de([NONE] * 6, ALL_ALIVE, 0) == pytest.approx(1 / 6)


def test_de_own_slot_not_counted():
    # a receipt in the node's own slot adds nothing: the node counts once
    receipts = [10, 10, NONE, NONE, NONE, NONE]
    assert de(receipts, ALL_ALIVE, 0) == pytest.approx(2 / 6)


def test_de_singleton_roster():
    assert de([NONE], [True], 0) == 1.0
    assert de([4], [True], 0) == 1.0


def test_purge_window_boundary():
    packing = Packing.for_rounds(4, 10)
    receipts = purge(packing.pack([5, 6, 10, NONE]), round=10, window=4, packing=packing)
    # receipt at exactly round - window survives
    assert packing.unpack(receipts) == [NONE, 6, 10, NONE]


def test_record_receipt_newest_wins():
    packing = Packing.for_rounds(3, 7)
    pack = packing.pack
    receipts = record_receipt(pack([NONE] * 3), pack([0, 0, 0]), pack([1, 0, 0]), 3, packing)
    assert packing.unpack(receipts) == [3, NONE, NONE]
    # a slot that rises again takes the newer round; one that stays keeps its own
    receipts = record_receipt(receipts, pack([1, 0, 0]), pack([2, 0, 1]), 7, packing)
    assert packing.unpack(receipts) == [7, NONE, 7]


def test_width_holds_every_round_of_the_run():
    for n_rounds in (0, 1, 2, 6, 7, 299, 300, 1 << 20):
        packing = Packing.for_rounds(5, n_rounds)
        assert packing.top >= n_rounds
        # and no narrower layout would
        assert Packing(5, packing.width - 1).top < n_rounds


@st.composite
def packed_layouts(draw):
    """A layout whose packed ints reach past several 30-bit digits."""
    size = draw(st.integers(1, 70), "size")
    return Packing(size, draw(st.integers(2, 20), "width"))


def field_values(packing):
    """One plain vector for `packing`, its values anywhere in -1..top."""
    return st.lists(
        st.integers(NO_RECEIPT, packing.top), min_size=packing.size, max_size=packing.size
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_packed_kernel_matches_the_list_oracles(data):
    packing = data.draw(packed_layouts(), "layout")
    size, top = packing.size, packing.top
    a, b, c, rec = (data.draw(field_values(packing), name) for name in "abcr")
    for plain in (a, b, c, rec):
        assert packing.unpack(packing.pack(plain)) == plain
    pa, pb, pc, prec = map(packing.pack, (a, b, c, rec))

    assert packing.max([pa]) == pa
    assert packing.unpack(packing.max([pa, pb, pc])) == list(map(max, a, b, c))

    i, value = data.draw(st.integers(0, size - 1), "slot"), data.draw(st.integers(-1, top), "value")
    assert packing.unpack(packing.put(pa, i, value)) == a[:i] + [value] + a[i + 1 :]

    rnd = data.draw(st.integers(0, top), "record round")
    want = list(rec)
    list_record_receipt(want, a, b, rnd)
    assert packing.unpack(record_receipt(prec, pa, pb, rnd, packing)) == want

    rnd = data.draw(st.integers(0, top), "purge round")
    window = data.draw(st.integers(1, top + 2), "window")
    want = list(rec)
    list_purge(want, rnd, window)
    assert packing.unpack(purge(prec, rnd, window, packing)) == want

    alive = data.draw(st.lists(st.booleans(), min_size=size, max_size=size), "alive")
    own = data.draw(st.integers(0, size - 1), "own")
    got = dissemination_efficiency(prec, packing.guard_bits(alive), own, packing)
    assert got == list_de(rec, alive, own)


SCENARIOS = Path(__file__).parents[1] / "scenarios"


def test_world_calls_each_metrics_function(monkeypatch):
    # the benchmark's tracer times DE through these three names, so each must
    # still be what the world calls: once per destination per round at most
    # for receipts, and purge and DE once per alive node per round
    calls = Counter()

    def counted(name):
        original = getattr(metrics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("record_receipt", "purge", "dissemination_efficiency"):
        monkeypatch.setattr(metrics, name, counted(name))
    scn = SCENARIOS / "bpd_crash.scn"
    world = cli.build_world(cli.parse_scenario(scn), scn.parent)
    world.run()
    rounds, n = world.cfg.n_rounds, len(world.roster)
    assert all(calls[name] > 0 for name in ("record_receipt", "purge", "dissemination_efficiency"))
    assert calls["record_receipt"] <= rounds * n
    assert calls["purge"] == calls["dissemination_efficiency"] <= rounds * n


def test_deviation_pct_hand_values():
    assert deviation_pct({"a": 11.0, "b": 9.0}, 10.0) == pytest.approx(10.0)
    assert deviation_pct({"a": 10.0}, 10.0) == 0.0


def test_deviation_pct_errors():
    with pytest.raises(ZeroOptimumError):
        deviation_pct({"a": 1.0}, 0.0)
    with pytest.raises(ValueError):
        deviation_pct({}, 1.0)


def naive_iterations_to_band(trace, optimum, band_pct=5.0):
    """Forward-scan reference: smallest k such that rounds k..end each have
    a value and all fit."""
    limit = abs(optimum) * band_pct / 100.0
    for k in range(len(trace)):
        if all(row for row in trace[k:]) and all(
            abs(v - optimum) <= limit for row in trace[k:] for v in row.values()
        ):
            return k
    return None


def test_iterations_to_band_cases():
    inside = [{"a": 10.0}, {"a": 10.2}]
    assert iterations_to_band(inside, 10.0) == 0
    never = [{"a": 10.0}, {"a": 99.0}]
    assert iterations_to_band(never, 10.0) is None
    crossing = [{"a": 30.0}, {"a": 12.0}, {"a": 10.1}, {"a": 10.0}]
    assert iterations_to_band(crossing, 10.0) == 2
    # re-excursion restarts the clock
    wobble = [{"a": 10.0}, {"a": 50.0}, {"a": 10.0}]
    assert iterations_to_band(wobble, 10.0) == 2
    # a round with no alive peer is not inside the band
    emptied = [{"a": 10.0}, {}, {"a": 10.0}]
    assert iterations_to_band(emptied, 10.0) == 2
    all_down = [{"a": 30.0}, {"a": 10.0}, {}]
    assert iterations_to_band(all_down, 10.0) is None


@given(
    st.lists(
        # an empty row is a round with no alive peer
        st.lists(st.floats(0.0, 20.0), min_size=0, max_size=3),
        min_size=1,
        max_size=12,
    )
)
def test_iterations_to_band_matches_naive(rows):
    trace = [{f"n{i}": v for i, v in enumerate(row)} for row in rows]
    assert iterations_to_band(trace, 10.0) == naive_iterations_to_band(trace, 10.0)


def test_bandwidth_hand_value():
    # 30 msgs/round * 64 B over 10 ms rounds, 6 nodes: 32 kB/s each
    rounds = 50
    assert bandwidth_kbps(30 * 64 * rounds, rounds, 10.0, 6) == pytest.approx(32.0)


def test_bandwidth_linearity_and_zero():
    base = bandwidth_kbps(1000, 10, 10.0, 4)
    assert bandwidth_kbps(2000, 10, 10.0, 4) == pytest.approx(2 * base)
    assert bandwidth_kbps(0, 10, 10.0, 4) == 0.0


def test_bandwidth_validation():
    with pytest.raises(ValueError):
        bandwidth_kbps(1, 0, 10.0, 4)
    with pytest.raises(ValueError):
        bandwidth_kbps(1, 10, 10.0, 0)
    with pytest.raises(ValueError):
        bandwidth_kbps(1, 10, 0.0, 4)

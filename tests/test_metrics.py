from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpdsim import cli, metrics
from bpdsim.metrics import (
    NO_RECEIPT,
    ZeroOptimumError,
    bandwidth_kbps,
    deviation_pct,
    dissemination_efficiency,
    iterations_to_band,
    purge,
    record_receipt,
)

# roster a..f by position; every receipt vector below is indexed the same way
ROSTER6 = ("a", "b", "c", "d", "e", "f")
ALL_ALIVE = [True] * 6
NONE = NO_RECEIPT


def test_de_full_coverage():
    receipts = [NONE, 10, 10, 10, 10, 10]
    assert dissemination_efficiency(receipts, ALL_ALIVE, 0) == 1.0


def test_de_excludes_crashed_sources():
    # backlog from f still in the vector, but f is down: 5/6 is the ceiling
    receipts = [NONE, 10, 10, 10, 10, 10]
    alive = [True, True, True, True, True, False]
    assert dissemination_efficiency(receipts, alive, 0) == pytest.approx(5 / 6)


def test_de_partitioned_pair():
    # b hears only a: itself + one source out of a six-node roster
    receipts = [9, NONE, NONE, NONE, NONE, NONE]
    assert dissemination_efficiency(receipts, ALL_ALIVE, 1) == pytest.approx(2 / 6)


def test_de_self_only():
    assert dissemination_efficiency([NONE] * 6, ALL_ALIVE, 0) == pytest.approx(1 / 6)


def test_de_own_slot_not_counted():
    # a receipt in the node's own slot adds nothing: the node counts once
    receipts = [10, 10, NONE, NONE, NONE, NONE]
    assert dissemination_efficiency(receipts, ALL_ALIVE, 0) == pytest.approx(2 / 6)


def test_de_singleton_roster():
    assert dissemination_efficiency([NONE], [True], 0) == 1.0


def test_purge_window_boundary():
    receipts = [5, 6, 10, NONE]
    purge(receipts, round=10, window=4)
    # receipt at exactly round - window survives
    assert receipts == [NONE, 6, 10, NONE]


def test_record_receipt_newest_wins():
    receipts = [NONE, NONE, NONE]
    record_receipt(receipts, [0, 0, 0], [1, 0, 0], 3)
    assert receipts == [3, NONE, NONE]
    # a slot that rises again takes the newer round; one that stays keeps its own
    record_receipt(receipts, [1, 0, 0], [2, 0, 1], 7)
    assert receipts == [7, NONE, 7]


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
    """Forward-scan reference: smallest k such that rounds k..end all fit."""
    limit = abs(optimum) * band_pct / 100.0
    for k in range(len(trace)):
        if all(
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


@given(
    st.lists(
        st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3),
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

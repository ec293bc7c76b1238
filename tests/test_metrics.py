import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpdsim.metrics import (
    ZeroOptimumError,
    bandwidth_kbps,
    deviation_pct,
    dissemination_efficiency,
    iterations_to_band,
    purge,
    record_receipt,
)

ROSTER6 = {"a", "b", "c", "d", "e", "f"}


def test_de_full_coverage():
    hist = {s: 10 for s in ROSTER6 - {"a"}}
    assert dissemination_efficiency(hist, ROSTER6, "a", 6) == 1.0


def test_de_excludes_crashed_sources():
    # backlog from f still in history, but f is down: 5/6 is the ceiling
    hist = {s: 10 for s in ROSTER6 - {"a"}}
    assert dissemination_efficiency(hist, ROSTER6 - {"f"}, "a", 6) == pytest.approx(5 / 6)


def test_de_partitioned_pair():
    # b hears only a: itself + one source out of a six-node roster
    assert dissemination_efficiency({"a": 9}, ROSTER6, "b", 6) == pytest.approx(2 / 6)


def test_de_self_only():
    assert dissemination_efficiency({}, ROSTER6, "a", 6) == pytest.approx(1 / 6)


def test_de_singleton_roster():
    assert dissemination_efficiency({}, {"a"}, "a", 1) == 1.0


def test_purge_window_boundary():
    hist = {"a": 5, "b": 6, "c": 10}
    purge(hist, round=10, window=4)
    # receipt at exactly round - window survives
    assert hist == {"b": 6, "c": 10}


def test_record_receipt_newest_wins():
    hist = {}
    record_receipt(hist, "a", 3)
    record_receipt(hist, "a", 7)
    assert hist == {"a": 7}


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

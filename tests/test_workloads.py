import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpdsim.simnet import SimConfig, World
from bpdsim.workloads import (
    AllToAll,
    Bpd,
    Gossip,
    Unmodified,
    consensus_step,
    init_values,
    select_gossip_peers,
    strategy_class,
    strategy_emit,
    true_average,
)
from conftest import BASE10_EDGES, make_graph


def test_consensus_step_single_input():
    # eps=0.5, one neighbour: move halfway
    assert consensus_step(0.0, [10.0], eps=0.5) == 5.0


def test_consensus_step_silence_keeps_value():
    assert consensus_step(7.5, [], eps=0.5) == 7.5


def test_consensus_step_multi_input():
    # k=2: each neighbour weighted eps/2 = 0.25
    got = consensus_step(0.0, [8.0, 4.0], eps=0.5)
    assert got == pytest.approx(0.25 * 8.0 + 0.25 * 4.0)


def test_consensus_step_custom_eps():
    assert consensus_step(0.0, [10.0], eps=1.0) == 10.0


@given(
    x=st.floats(-1e6, 1e6),
    vals=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
)
def test_consensus_step_stays_in_hull(x, vals):
    got = consensus_step(x, vals, eps=0.5)
    lo, hi = min([x, *vals]), max([x, *vals])
    assert lo - 1e-9 <= got <= hi + 1e-9


def test_init_values_deterministic_and_ranged():
    roster = ["d", "a", "c", "b"]
    v1 = init_values(roster, 42)
    v2 = init_values(sorted(roster), 42)
    assert v1 == v2
    assert set(v1) == set(roster)
    assert all(0.0 <= x < 100.0 for x in v1.values())
    assert init_values(roster, 43) != v1


def test_true_average():
    assert true_average({"a": 1.0, "b": 3.0}) == 2.0
    with pytest.raises(ValueError):
        true_average({})


def test_gossip_peer_selection():
    rng = random.Random(0)
    peers = ("a", "b", "c", "d")
    picks = select_gossip_peers("a", peers, 2, rng)
    assert len(picks) == 2 and "a" not in picks
    assert set(picks) <= set(peers)


def test_gossip_fanout_too_big():
    # fewer peers left than the fanout: the sample takes every one of them
    assert select_gossip_peers("a", ("a", "b"), 2, random.Random(0)) == ["b"]
    assert select_gossip_peers("a", ("a",), 2, random.Random(0)) == []


def test_gossip_selection_seeded():
    a = select_gossip_peers("a", tuple("abcdef"), 3, random.Random("s"))
    b = select_gossip_peers("a", tuple("abcdef"), 3, random.Random("s"))
    assert a == b


def test_parse_strategy_names():
    assert strategy_class("all-to-all")() == AllToAll()
    assert strategy_class("ALLTOALL")() == AllToAll()
    assert strategy_class("gossip")(fanout=5) == Gossip(5)
    assert strategy_class("unmodified")() == Unmodified()
    assert strategy_class(" bpd ")(thresh=3) == Bpd(3)
    with pytest.raises(ValueError):
        strategy_class("carrier-pigeon")
    # each strategy takes only its own parameters
    with pytest.raises(TypeError):
        strategy_class("all-to-all")(fanout=3)


def test_emit_shapes():
    g = make_graph(BASE10_EDGES)
    w = World(g, Unmodified(), SimConfig(n_rounds=1, seed=0))
    # all-to-all: every sender gets the one sorted tuple of detected-alive
    # peers, itself included; the world skips the sender
    everyone = strategy_emit(AllToAll(), "a", w)
    assert everyone == ("a", "b", "c", "d", "e", "f")
    assert strategy_emit(AllToAll(), "c", w) is everyone
    # declared out-edges of f
    assert strategy_emit(Unmodified(), "f", w) == ("c", "d", "e")
    assert strategy_emit(Unmodified(), "b", w) == ("a",)
    picks = strategy_emit(Gossip(3), "a", w)
    assert len(picks) == 3 and "a" not in picks


def test_world_rejects_a_fanout_beyond_the_other_peers():
    g = make_graph(BASE10_EDGES)
    World(g, Gossip(5), SimConfig(n_rounds=0, seed=0))
    with pytest.raises(ValueError, match="fanout must be <= 5"):
        World(g, Gossip(6), SimConfig(n_rounds=0, seed=0))


def test_all_to_all_contracts_spread():
    g = make_graph(BASE10_EDGES)
    w = World(g, AllToAll(), SimConfig(n_rounds=20, seed=3))
    w.run()
    spread0 = max(w.x0.values()) - min(w.x0.values())
    xs = w.x_trace[-1]
    assert max(xs.values()) - min(xs.values()) < 1e-6 * spread0
    assert true_average(xs) == pytest.approx(true_average(w.x0))

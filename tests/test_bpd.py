import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpdsim import bpd, simnet
from bpdsim.bpd import BpdNode, DiscoverMsg, UpdateMsg, default_threshold
from bpdsim.graph import DirectedGraph, all_pairs_costs, dijkstra, is_strongly_connected
from bpdsim.simnet import SimConfig, World
from bpdsim.workloads import Bpd
from conftest import WIRE_MESSAGES, corpus_graph, make_graph, memberships, random_sc_digraph


def cycle_world(graph, thresh=None):
    th = thresh if thresh is not None else default_threshold(graph.n_nodes)
    w = World(graph, Bpd(th), SimConfig(n_rounds=0, seed=0))
    w.run_repair_cycle()
    return w


def stage1_tables(world):
    return {
        nid: {dst: world.assignment.exact(e.depth) for dst, e in node.path.items()}
        for nid, node in world.nodes.items()
    }


def dijkstra_tables(graph):
    return {
        src: {dst: c for dst, c in dijkstra(graph, src).items() if dst != src}
        for src in graph.nodes
    }


# --- configuration -----------------------------------------------------


def test_default_threshold_values():
    assert default_threshold(6) == 3
    assert default_threshold(4) == 2
    assert default_threshold(12) == 6
    assert default_threshold(2) == 1
    with pytest.raises(ValueError):
        default_threshold(1)


def test_config_validation():
    with pytest.raises(ValueError):
        Bpd(0)
    with pytest.raises(ValueError):
        Bpd(3, repair_period_rounds=0)


def test_world_rejects_thresh_below_max_weight():
    g = make_graph([("a", "b"), ("b", "a")], weights=[5, 5])
    with pytest.raises(ValueError):
        World(g, Bpd(3), SimConfig(n_rounds=0, seed=0))
    # unit 6: 7/5 is off the grid and below 3/2, which itself is accepted
    g = make_graph([("a", "b"), ("b", "c"), ("c", "a")], weights=[Fraction(3, 2), 1, Fraction(1, 3)])
    with pytest.raises(ValueError) as err:
        World(g, Bpd(Fraction(7, 5)), SimConfig(n_rounds=0, seed=0))
    assert str(err.value) == "thresh 7/5 below max edge weight 3/2"
    World(g, Bpd(Fraction(3, 2)), SimConfig(n_rounds=0, seed=0))


THRESH_WEIGHTS = tuple(map(Fraction, ("1/3", "1/2", "1", "3/2", "2", "7/3")))


@given(
    weights=st.lists(st.sampled_from(THRESH_WEIGHTS), min_size=4, max_size=4),
    offset=st.sampled_from(
        (0, Fraction(-1, 1000), Fraction(1, 1000), Fraction(-1, 7), Fraction(1, 7), -1, 1)
    ),
    free=st.fractions(min_value=Fraction(1, 10), max_value=3),
    use_free=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_thresh_check_matches_exact_compare(weights, offset, free, use_free):
    # thresholds at the max weight, just off it and off the unit grid: the
    # world compares floor(thresh * unit) with the int max weight, and must
    # reject exactly when thresh < max_weight() on exact rationals
    g = make_graph([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")], weights=weights)
    thresh = free if use_free else g.max_weight() + offset
    if thresh <= 0:
        return
    try:
        World(g, Bpd(thresh), SimConfig(n_rounds=0, seed=0))
        raised = False
    except ValueError as err:
        assert str(err) == f"thresh {thresh} below max edge weight {g.max_weight()}"
        raised = True
    assert raised == (thresh < g.max_weight())


def test_each_wire_message_names_its_own_handler():
    # the drain looks a popped message's handler up as BpdNode.<msg.handler>
    named = {v for v in vars(bpd).values() if isinstance(v, type) and hasattr(v, "handler")}
    assert named == set(WIRE_MESSAGES)
    names = [msg_type.handler for msg_type in WIRE_MESSAGES]
    assert len(set(names)) == len(names) == 6
    for msg_type in WIRE_MESSAGES:
        assert callable(getattr(BpdNode, msg_type.handler))
        assert "handler" not in msg_type._fields  # a class attribute, not a field


# --- stage 1: discovery ------------------------------------------------


def test_discovery_emits_depth_zero_on_recv_groups(base10):
    w = World(base10, Bpd(3), SimConfig(n_rounds=0, seed=0))
    res = w.nodes["a"].start_discovery()
    # a receives from b and c (edges b->a, c->a): one message rides both
    ((plan, msg),) = res.emissions
    assert [g.gid for _dsts, g in plan] == ["g.b", "g.c"]
    for dsts, g in plan:
        assert g is w.assignment.groups[g.gid]
        assert dsts == tuple(sorted(g.members - {"a"}))
    assert isinstance(msg, DiscoverMsg)
    assert msg.depth == 0 and msg.origin == "a"


def test_stage1_exact_on_base10(base10):
    w = cycle_world(base10, thresh=3)
    assert stage1_tables(w) == dijkstra_tables(base10)


def test_stage1_exact_on_corpus_sample():
    for i in range(0, 100, 7):
        g = corpus_graph(i)
        w = cycle_world(g)
        assert stage1_tables(w) == dijkstra_tables(g), i


def test_stale_epoch_discovery_ignored(base10):
    w = cycle_world(base10, thresh=3)
    node = w.nodes["a"]
    before = dict(node.path)
    g = w.assignment.groups["g.a"]  # a is the sender of g.a
    stale = DiscoverMsg("f", Fraction(0), epoch=0)
    res = node.on_discover(stale, g)
    assert res is bpd._NOTHING and node.path == before


# --- stage 2: bounded update -------------------------------------------


def test_update_targets_on_six_ring():
    g = make_graph(
        [("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n4"), ("n4", "n5"), ("n5", "n0")]
    )
    w = World(g, Bpd(3), SimConfig(n_rounds=0, seed=0))
    # run only the discovery stage, then ask for targets directly
    w._discover()
    assert w.nodes["n0"].update_targets() == ["n4", "n5"]


def test_cycle_stages_share_one_cascade_count(base10, monkeypatch):
    def world():
        return World(base10, Bpd(3), SimConfig(n_rounds=0, seed=0))

    delivered = []

    def counted(handler):
        def deliver(*args):
            delivered.append(args)
            return handler(*args)

        return deliver

    discovery = world()._discover()
    with monkeypatch.context() as patched:
        for msg_type in WIRE_MESSAGES:
            name = msg_type.handler
            patched.setattr(BpdNode, name, counted(getattr(BpdNode, name)))
        world().run_repair_cycle()
    total = len(delivered)  # no peer is down, so every delivery reaches a handler
    # each stage alone stays under the cap; only one shared count passes it
    assert discovery < total - 1 and total - discovery < total - 1
    monkeypatch.setattr(simnet, "_CASCADE_CAP", total - 1)
    with pytest.raises(simnet.CascadeError):
        world().run_repair_cycle()


def test_bound_holds_on_base10(base10):
    w = cycle_world(base10, thresh=3)
    eff = w.alive_effective_graph()
    assert is_strongly_connected(eff)
    costs = all_pairs_costs(eff)
    assert all(c <= 3 for row in costs.values() for c in row.values())
    assert eff.n_edges > base10.n_edges  # d->b = 5 forced at least one join


def test_mixed_weight_chain_gets_bounded():
    # i -> a -> b -> j costs 2+2+1; thresh 3 exceeded by several pairs.
    # Exercises stamping below the bound with non-uniform weights.
    g = make_graph(
        [("i", "a"), ("a", "b"), ("b", "j"), ("j", "i")], weights=[2, 2, 1, 1]
    )
    w = cycle_world(g, thresh=3)
    eff = w.alive_effective_graph()
    costs = all_pairs_costs(eff)
    assert all(c <= 3 for row in costs.values() for c in row.values())
    assert len(memberships(w)) > 0


def test_already_bounded_graph_no_joins():
    g = make_graph([("a", "b"), ("b", "c"), ("c", "a")])
    w = cycle_world(g, thresh=2)
    assert memberships(w) == []
    assert w.alive_effective_graph().n_edges == 3


def test_second_request_same_epoch_not_served_twice(base10):
    w = cycle_world(base10, thresh=3)
    joints = [(e.group, e.node) for e in memberships(w)]
    assert len(joints) == len(set(joints))


def test_join_reasons_name_requesters(base10):
    lines = []
    w = World(base10, Bpd(3), SimConfig(n_rounds=0, seed=0))
    w.trace_fn = lines.append
    w.run_repair_cycle()
    joins = [l for l in lines if " join " in l]
    assert joins and all("update:" in l for l in joins)
    # requesters named in reasons are exactly the peers with a >3 distance
    requesters = {l.rsplit("update:", 1)[1] for l in joins}
    costs = all_pairs_costs(base10)
    over = {u for u, row in costs.items() for c in row.values() if c > 3}
    assert requesters == over


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_cycle_property_bound_and_exact_tables(seed):
    n = 4 + seed % 6
    g = random_sc_digraph(n, seed)
    th = max(default_threshold(n), int(g.max_weight()))
    w = cycle_world(g, thresh=th)
    assert stage1_tables(w) == dijkstra_tables(g)
    eff = w.alive_effective_graph()
    costs = all_pairs_costs(eff)
    assert all(c <= th for row in costs.values() for c in row.values())


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_cycle_property_mixed_int_and_fraction_weights(seed):
    n = 4 + seed % 6
    g = random_sc_digraph(n, seed, weights=(Fraction(1, 2), 1, Fraction(3, 2)))
    # half the examples take a non-integral bound
    th = default_threshold(n) - Fraction(seed % 2, 2)
    w = cycle_world(g, thresh=th)
    tables = stage1_tables(w)
    assert tables == dijkstra_tables(g)
    assert not any(isinstance(d, float) for row in tables.values() for d in row.values())
    costs = all_pairs_costs(w.alive_effective_graph())
    assert all(c <= th for row in costs.values() for c in row.values())


def half_weight_graph(seed):
    """A graph with weights 1/2, 1 and 3/2, and a threshold it admits; half
    the thresholds are not integral."""
    n = 4 + seed % 6
    g = random_sc_digraph(n, seed, weights=(Fraction(1, 2), 1, Fraction(3, 2)))
    return g, max(default_threshold(n) - Fraction(seed % 2, 2), g.max_weight())


@given(st.integers(0, 10_000), st.sampled_from([Fraction(1, 3), Fraction(1, 2), 2, Fraction(5, 2)]))
@settings(max_examples=25, deadline=None)
def test_scaling_every_weight_and_the_threshold_changes_no_decision(seed, scale):
    # the unit is chosen from the weights, so the scaled graph runs in another
    # unit; every decision, and every cost's exact value up to the scale, holds
    g, th = half_weight_graph(seed)
    scaled = DirectedGraph(g.nodes, {e: w * scale for e, w in g.edges.items()})
    w, ws = cycle_world(g, thresh=th), cycle_world(scaled, thresh=th * scale)
    assert ws.log == w.log
    assert ws._ctrl_sent == w._ctrl_sent
    for nid, node in w.nodes.items():
        path, spath = node.path, ws.nodes[nid].path
        assert {d: e.via_group for d, e in spath.items()} == {d: e.via_group for d, e in path.items()}
        assert {d: ws.assignment.exact(e.depth) for d, e in spath.items()} == {
            d: w.assignment.exact(e.depth) * scale for d, e in path.items()
        }
    for world in (w, ws):
        assert all(type(grp.weight) is int for grp in world.assignment.groups.values())
        assert all(
            type(e.depth) is int for node in world.nodes.values() for e in node.path.values()
        )


@given(st.integers(0, 10_000), st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)]))
@settings(max_examples=25, deadline=None)
def test_a_threshold_off_the_unit_grid_decides_as_its_floor(seed, offset):
    # e.g. 11/4 against unit 2 bounds int costs at floor(11/2) = 5, as 5/2 does
    g, th = half_weight_graph(seed)
    th += offset
    w = cycle_world(g, thresh=th)
    on_grid = Fraction(w.assignment.bound(th), w.assignment.unit)
    assert on_grid < th
    assert cycle_world(g, thresh=on_grid).log == w.log


def test_update_back_at_its_requester_is_dropped():
    g = make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    w = cycle_world(g, thresh=2)
    node = w.nodes["a"]
    msg = UpdateMsg("a", "c", 4, "g.b", w.epoch)
    res = node.on_update(msg, w.assignment.groups["g.d"])  # a receives on g.d
    assert res is bpd._NOTHING


def test_repeat_update_forward_returns_the_shared_empty_result():
    g = make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    w = cycle_world(g, thresh=2)
    node = w.nodes["b"]
    requester = min(node._forwarded)  # b forwarded a pair for it in the cycle
    mask = node._forwarded[requester]
    target = w.roster[(mask & -mask).bit_length() - 1]  # its lowest set bit
    msg = UpdateMsg(requester, target, 1, "", w.epoch)
    res = node.on_update(msg, w.assignment.groups["g.a"])  # b receives on g.a
    assert res is bpd._NOTHING
    with pytest.raises(AttributeError):
        res.emissions.append((w.assignment.send_plans("b")[0], msg))


def forwarded_pairs(world):
    """(node, requester, target) for every bit of every node's forwarded masks."""
    return {
        (nid, requester, world.roster[i])
        for nid, node in world.nodes.items()
        for requester, mask in node._forwarded.items()
        for i in range(mask.bit_length())
        if mask >> i & 1
    }


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_update_forwards_each_pair_once_and_the_masks_name_exactly_those(seed):
    n = 3 + seed % 14
    g = random_sc_digraph(n, seed, weights=(Fraction(1, 2), 1, Fraction(3, 2)))
    th = max(default_threshold(n) - Fraction(seed % 2, 2), g.max_weight())
    forwards = []
    on_update = BpdNode.on_update

    def recorded(node, msg, group):
        res = on_update(node, msg, group)
        if res.emissions:
            forwards.append((node.nid, msg.requester, msg.target))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BpdNode, "on_update", recorded)
        w = cycle_world(g, thresh=th)
    assert len(forwards) == len(set(forwards))
    assert forwarded_pairs(w) == set(forwards)


def test_repair_cycle_peak_memory_on_a_32_ring():
    # the repeat test remembers at most one int per requester at each node,
    # a mask of its forwarded targets, not one tuple per forwarded pair: a
    # 32-ring cycle peaks near 0.6 MB, against 2.3 MB with one tuple per pair
    names = [f"n{i:02d}" for i in range(32)]
    g = make_graph([(names[i], names[(i + 1) % 32]) for i in range(32)])
    w = World(g, Bpd(default_threshold(32)), SimConfig(n_rounds=0, seed=0))
    tracemalloc.start()
    try:
        w.run_repair_cycle()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


def test_overlay_only_adds_edges(base10):
    w = cycle_world(base10, thresh=3)
    eff = w.alive_effective_graph()
    for e, wt in base10.edges.items():
        assert eff.edges[e] == wt

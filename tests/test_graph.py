import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpdsim.graph import (
    DirectedGraph,
    all_pairs_costs,
    dijkstra,
    is_strongly_connected,
)
from conftest import brute_force_costs, make_graph, random_sc_digraph


def test_validation_rejects_self_loop():
    with pytest.raises(ValueError):
        DirectedGraph(nodes=("a",), edges={("a", "a"): Fraction(1)})


def test_validation_rejects_unknown_endpoint():
    with pytest.raises(ValueError):
        DirectedGraph(nodes=("a", "b"), edges={("a", "z"): Fraction(1)})


def test_validation_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        DirectedGraph(nodes=("a", "b"), edges={("a", "b"): Fraction(0)})


def test_nodes_sorted_and_degrees():
    g = make_graph([("b", "a"), ("c", "a"), ("a", "b")])
    assert g.nodes == ("a", "b", "c")
    assert sorted(u for u, v in g.edges if v == "a") == ["b", "c"]


def test_dijkstra_exact_fractions():
    # 1/3 + 1/6 must equal 1/2 exactly, not approximately
    g = make_graph([("a", "b"), ("b", "c")], weights=[Fraction(1, 3), Fraction(1, 6)])
    costs = dijkstra(g, "a")
    assert costs["c"] == Fraction(1, 2)
    assert costs["a"] == 0


def test_dijkstra_prefers_cheaper_long_path():
    g = make_graph(
        [("a", "b"), ("a", "c"), ("c", "b")], weights=[Fraction(5), Fraction(1), Fraction(1)]
    )
    assert dijkstra(g, "a")["b"] == Fraction(2)


def test_dijkstra_matches_brute_force_on_corpus():
    for i in range(25):
        g = random_sc_digraph(4 + i % 4, i, weights=(1, 2, 3))
        for src in g.nodes:
            assert dijkstra(g, src) == brute_force_costs(g, src), (i, src)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_dijkstra_matches_brute_force_property(seed):
    g = random_sc_digraph(5, seed, weights=(1, 2))
    src = g.nodes[seed % len(g.nodes)]
    assert dijkstra(g, src) == brute_force_costs(g, src)


def test_all_pairs_shape(base10):
    costs = all_pairs_costs(base10)
    assert set(costs) == set(base10.nodes)
    assert costs["d"]["b"] == Fraction(5)
    assert costs["a"]["f"] == Fraction(2)


def connected_by_dijkstra(g):
    """The oracle: every node's row of all-pairs costs holds every node."""
    return all(len(row) == g.n_nodes for row in all_pairs_costs(g).values())


def test_strong_connectivity():
    one = Fraction(1)
    cases = [
        (make_graph([("a", "b"), ("b", "c"), ("c", "a")]), True),
        (make_graph([("a", "b"), ("b", "c")]), False),
        (DirectedGraph(("a",)), True),
        (DirectedGraph(("a", "b")), False),
        (make_graph([("a", "b")]), False),
        (make_graph([("a", "b"), ("b", "a")]), True),
        # c has no edges at all
        (DirectedGraph(("a", "b", "c"), {("a", "b"): one, ("b", "a"): one}), False),
        # every node has an in- and an out-link, yet there are two cycles
        (make_graph([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]), False),
        # a reaches every node, but c and d do not reach a
        (make_graph([("a", "b"), ("b", "a"), ("a", "c"), ("c", "d"), ("d", "c")]), False),
        # c and d reach a, but a reaches only b
        (make_graph([("a", "b"), ("b", "a"), ("c", "a"), ("c", "d"), ("d", "c")]), False),
    ]
    for g, want in cases:
        assert is_strongly_connected(g) == connected_by_dijkstra(g) == want


@given(n=st.integers(2, 14), seed=st.integers(0, 10_000), drop=st.floats(0, 0.5))
@settings(max_examples=60, deadline=None)
def test_strong_connectivity_matches_dijkstra(n, seed, drop):
    g = random_sc_digraph(n, seed, weights=(Fraction(1, 2), 1, Fraction(3, 2)))
    assert is_strongly_connected(g) and connected_by_dijkstra(g)
    rng = random.Random(seed)
    cut = DirectedGraph(g.nodes, {e: w for e, w in g.edges.items() if rng.random() >= drop})
    assert is_strongly_connected(cut) == connected_by_dijkstra(cut)


@given(n=st.integers(2, 20), k=st.integers(1, 3), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_strong_connectivity_of_k_out_draws(n, k, seed):
    # raw random(k) draws, most of them not strongly connected
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(n)]
    edges = {
        (u, v): Fraction(1)
        for u in nodes
        for v in rng.sample([m for m in nodes if m != u], min(k, n - 1))
    }
    g = DirectedGraph(tuple(nodes), edges)
    assert is_strongly_connected(g) == connected_by_dijkstra(g)


def test_max_weight(base10):
    assert base10.max_weight() == Fraction(1)
    g = make_graph([("a", "b")], weights=[Fraction(7, 2)])
    assert g.max_weight() == Fraction(7, 2)

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpdsim.graph import (
    DirectedGraph,
    all_pairs_costs,
    dijkstra,
    hop_counts,
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


def test_hop_counts_ignores_weights():
    g = make_graph([("a", "b"), ("b", "c")], weights=[Fraction(9), Fraction(9)])
    assert hop_counts(g, "a") == {"a": 0, "b": 1, "c": 2}


def test_strong_connectivity():
    ring = make_graph([("a", "b"), ("b", "c"), ("c", "a")])
    assert is_strongly_connected(ring)
    line = make_graph([("a", "b"), ("b", "c")])
    assert not is_strongly_connected(line)
    assert is_strongly_connected(make_graph([("a", "b"), ("b", "a")]))


def test_max_weight(base10):
    assert base10.max_weight() == Fraction(1)
    g = make_graph([("a", "b")], weights=[Fraction(7, 2)])
    assert g.max_weight() == Fraction(7, 2)

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpdsim.graph import DirectedGraph
from bpdsim.groups import (
    RECEIVER,
    SENDER,
    GroupAssignment,
    GroupIdError,
    UnknownGroupError,
    effective_graph,
    form_groups,
    join_group,
    leader_group,
    leave_all,
)
from conftest import make_graph, random_sc_digraph


def ring4():
    return make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def test_form_groups_ring_of_four():
    asg = form_groups(ring4())
    # one group per source, each pairing the sender with its one receiver
    assert sorted(asg.groups) == ["g.a", "g.b", "g.c", "g.d"]
    g = asg.groups["g.a"]
    assert g.senders == {"a"} and g.receivers == {"b"}
    assert g.size == 2 and g.weight == Fraction(1)


def test_form_groups_splits_weight_classes():
    g = make_graph(
        [("hub", "t1"), ("hub", "t2"), ("hub", "t3"), ("t1", "hub"), ("t2", "t3"), ("t3", "hub")],
        weights=[1, 1, 2, 1, 1, 1],
    )
    asg = form_groups(g)
    # hub has two classes: weight-1 group of size 3, weight-2 group of size 2
    assert asg.groups["g.hub.0"].weight == Fraction(1)
    assert asg.groups["g.hub.0"].receivers == {"t1", "t2"}
    assert asg.groups["g.hub.1"].weight == Fraction(2)
    assert asg.groups["g.hub.1"].receivers == {"t3"}
    # single-class sources keep the short id
    assert "g.t1" in asg.groups


def test_group_lookups_sorted():
    asg = form_groups(ring4())
    assert [g.gid for g in asg.send_groups("a")] == ["g.a"]
    assert [g.gid for g in asg.recv_groups("a")] == ["g.d"]


# one step: ("join", node index, group index, role) or ("leave", node index)
_roles = st.sampled_from([SENDER, RECEIVER])
_steps = st.one_of(
    st.tuples(st.just("join"), st.integers(0, 99), st.integers(0, 999), _roles),
    st.tuples(st.just("leave"), st.integers(0, 99)),
)


# peer names whose gids sort apart from the names: "a" < "a-b", but a
# several-class "a" has g.a.0, and "g.a-b" < "g.a.0" < "g.a_b"
_NAMES = ("a", "a-b", "a_b", "a.x", "ab", "b", "b-a", "c", "c.d", "c-d", "d", "e")


def relabeled(graph, names):
    """`graph` with node n<i> renamed names[i]."""
    name = {f"n{i}": x for i, x in enumerate(names)}
    return DirectedGraph(
        tuple(name[n] for n in graph.nodes),
        {(name[u], name[v]): w for (u, v), w in graph.edges.items()},
    )


@given(
    st.integers(3, 12),
    st.integers(0, 10_000),
    st.lists(_steps, max_size=30),
    st.permutations(_NAMES),
    st.sampled_from([(1,), (1, 2), (Fraction(1, 2), 1, Fraction(5, 3))]),
)
@settings(max_examples=80, deadline=None)
def test_lookups_match_a_scan_after_membership_changes(n, seed, steps, names, weights):
    asg = form_groups(relabeled(random_sc_digraph(n, seed, weights), names[:n]))
    nodes, gids = sorted(names[:n]), sorted(asg.groups)

    # the index as formed holds exactly the nodes with a role, each one's
    # groups in gid order
    scan = sorted(asg.groups.items())
    for index, role in ((asg._sends, "senders"), (asg._recvs, "receivers")):
        expected = {m: tuple(g for _, g in scan if m in getattr(g, role)) for m in nodes}
        assert index == {m: gs for m, gs in expected.items() if gs}

    def check():
        for node in nodes:
            scan = sorted(asg.groups.items())
            assert asg.send_groups(node) == tuple(g for _, g in scan if node in g.senders)
            assert asg.recv_groups(node) == tuple(g for _, g in scan if node in g.receivers)
        alive = set(nodes[1:])
        assert effective_graph(asg, alive).nodes == tuple(
            sorted(n for n in alive if any(n in g.members for g in asg.groups.values()))
        )
        # every cached fan-out and receiver tuple equals a fresh scan; asking
        # fills the cache, so the next step checks that it was cleared where
        # it went stale
        for g in asg.groups.values():
            assert g.sorted_receivers() == tuple(sorted(g.receivers))
            for e in nodes:
                assert g.fanout(e) == tuple(sorted(g.members - {e}))

    check()
    for step in steps:
        node = nodes[step[1] % n]
        handed = [(t := g.fanout(e), list(t)) for g in asg.groups.values() for e in nodes]
        handed += [(t := g.sorted_receivers(), list(t)) for g in asg.groups.values()]
        if step[0] == "join":
            join_group(asg, node, gids[step[2] % len(gids)], step[3])
        else:
            leave_all(asg, node)
        # what a message was given before the change stays as it was
        assert all(isinstance(t, tuple) and list(t) == copy for t, copy in handed)
        check()


def test_form_groups_rejects_a_group_id_made_twice():
    # a's weight-1 class is g.a.0, and so is the only group of a.0
    g = DirectedGraph(
        ("a", "a.0", "b"),
        {("a", "b"): Fraction(1), ("a", "a.0"): Fraction(2), ("a.0", "a"): Fraction(1),
         ("b", "a"): Fraction(1)},
    )
    with pytest.raises(GroupIdError, match=r"^group id 'g\.a\.0' made for both peer 'a' and peer 'a\.0'$"):
        form_groups(g)
    # without a's second class, a keeps g.a and nothing meets
    del g.edges[("a", "a.0")]
    g.edges[("b", "a.0")] = Fraction(1)
    assert sorted(form_groups(g).groups) == ["g.a", "g.a.0", "g.b"]


def test_form_groups_numbers_ten_or_more_classes_in_weight_order():
    g = DirectedGraph(
        tuple("hijklmnopqrs"),
        {("h", t): Fraction(i + 1) for i, t in enumerate("ijklmnopqrs")}
        | {(t, "h"): Fraction(1) for t in "ijklmnopqrs"},
    )
    asg = form_groups(g)
    assert [asg.groups[f"g.h.{i}"].receivers for i in range(11)] == [{t} for t in "ijklmnopqrs"]
    # the index is in gid order, which puts g.h.10 before g.h.2
    assert [x.gid for x in asg.send_groups("h")] == sorted(f"g.h.{i}" for i in range(11))


def test_effective_graph_roundtrips_formation():
    g = ring4()
    eff = effective_graph(form_groups(g), set(g.nodes))
    assert eff.edges == g.edges


def test_effective_graph_multi_member():
    asg = form_groups(ring4())
    # two senders and two receivers in one group produce all four edges
    join_group(asg, "c", "g.a", SENDER)
    join_group(asg, "d", "g.a", RECEIVER)
    eff = effective_graph(asg, {"a", "b", "c", "d"})
    for e in [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")]:
        assert e in eff.edges


def test_effective_graph_min_weight_collapse():
    g = make_graph([("a", "b"), ("c", "b")], weights=[2, 1])
    asg = form_groups(g)
    join_group(asg, "c", "g.a", RECEIVER)  # adds a->c at weight 2
    join_group(asg, "a", "g.c", SENDER)  # adds a->b at weight 1 too
    eff = effective_graph(asg, {"a", "b", "c"})
    assert eff.edges[("a", "b")] == Fraction(1)  # cheaper parallel edge wins


def test_effective_graph_ignores_dead():
    asg = form_groups(ring4())
    eff = effective_graph(asg, {"a", "b", "c"})
    assert ("c", "d") not in eff.edges and ("d", "a") not in eff.edges


def test_join_idempotent_and_event():
    # a join returns the group it changed, and a re-join None; the world logs
    # a MembershipEvent for each join that returns a group
    asg = form_groups(ring4())
    grp = join_group(asg, "c", "g.a", RECEIVER)
    assert grp is asg.groups["g.a"] and grp.receivers == {"b", "c"}
    assert join_group(asg, "c", "g.a", RECEIVER) is None


def test_join_unknown_group():
    asg = form_groups(ring4())
    with pytest.raises(UnknownGroupError):
        join_group(asg, "a", "g.zz", SENDER)


def test_leave_all_and_restore():
    asg = form_groups(ring4())
    before = {gid: (set(g.senders), set(g.receivers)) for gid, g in asg.groups.items()}
    stash = leave_all(asg, "b")
    assert sorted(stash) == [("g.a", RECEIVER), ("g.b", SENDER)]
    assert "b" not in asg.groups["g.a"].receivers
    for gid, role in stash:
        join_group(asg, "b", gid, role)
    assert {gid: (set(g.senders), set(g.receivers)) for gid, g in asg.groups.items()} == before


def test_elect_leader_smallest_alive():
    # one group's leader is its smallest alive member, and a group with no
    # alive member has none
    only_ga = GroupAssignment(groups={"g.a": form_groups(ring4()).groups["g.a"]})
    assert leader_group(only_ga, {"a", "b", "c", "d"}) == {"a"}
    assert leader_group(only_ga, {"b", "c", "d"}) == {"b"}
    assert leader_group(only_ga, {"c", "d"}) == set()


def test_leader_group():
    asg = form_groups(ring4())
    # smallest member of each of g.a={a,b}, g.b={b,c}, g.c={c,d}, g.d={d,a}
    assert leader_group(asg, {"a", "b", "c", "d"}) == {"a", "b", "c"}
    # with a dead, leadership falls to the next member
    assert leader_group(asg, {"b", "c", "d"}) == {"b", "c", "d"}
    # g.a={a,b} has no alive member and so no leader; g.d's falls to d
    assert leader_group(asg, {"c", "d"}) == {"c", "d"}
    assert leader_group(asg, set()) == set()

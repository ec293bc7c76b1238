from fractions import Fraction

import pytest

from bpdsim.bpd import RECV_KIND, JoinRep, JoinReq, _Pending, default_threshold
from bpdsim.graph import all_pairs_costs, is_strongly_connected
from bpdsim.groups import RECEIVER, SENDER
from bpdsim.simnet import CycleComplete, FaultEvent, MembershipEvent, SimConfig, World
from bpdsim.workloads import Bpd
from conftest import make_graph, memberships, random_sc_digraph, repair_delays


def run_with_faults(graph, faults, rounds=40, thresh=None, seed=0):
    th = thresh if thresh is not None else default_threshold(graph.n_nodes)
    w = World(
        graph,
        Bpd(th, repair_period_rounds=1000),
        SimConfig(n_rounds=rounds, seed=seed),
        faults=faults,
    )
    w.run()
    return w


def assert_connected_bounded(w, thresh):
    w.run_repair_cycle()
    eff = w.alive_effective_graph()
    assert is_strongly_connected(eff)
    costs = all_pairs_costs(eff)
    assert all(c <= thresh for row in costs.values() for c in row.values())


def test_sender_alone_rejoins_as_sender():
    # a's only receiver is b; crashing b leaves a alone in its send group
    g = make_graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "b")])
    w = run_with_faults(g, [FaultEvent(10, "crash", "b")], thresh=2)
    repair = [e for e in memberships(w, "MemberJoined") if e.node == "a"]
    assert any(e.role == SENDER for e in repair)
    assert_connected_bounded(w, 2)


def ring4_chord():
    # crash of a strands b (no inbound left) and d (no outbound left)
    return make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("c", "a")])


def test_lost_last_sender_rejoins_as_receiver():
    w = run_with_faults(ring4_chord(), [FaultEvent(10, "crash", "a")], thresh=2)
    repair = [e for e in memberships(w, "MemberJoined") if e.node == "b" and e.round >= 11]
    assert any(e.role == RECEIVER for e in repair)
    assert_connected_bounded(w, 2)


def test_stranded_sender_rejoins_as_sender():
    w = run_with_faults(ring4_chord(), [FaultEvent(10, "crash", "a")], thresh=2)
    repair = [e for e in memberships(w, "MemberJoined") if e.node == "d" and e.round >= 11]
    assert any(e.role == SENDER for e in repair)


def test_shared_cut_node_crash_repairs():
    # two 3-cycles sharing node m; without the usefulness filter the leader
    # can offer a group the requester already serves, leaving a partition
    g = make_graph(
        [
            ("x0", "x1"),
            ("x1", "m"),
            ("m", "x0"),
            ("y0", "y1"),
            ("y1", "m"),
            ("m", "y0"),
        ]
    )
    w = run_with_faults(g, [FaultEvent(10, "crash", "m")], thresh=3)
    assert_connected_bounded(w, 3)
    assert sorted(w.alive) == ["x0", "x1", "y0", "y1"]


def test_double_crash_regression_bounded():
    # frozen scenario that once ended connected but unbounded: a co-sender
    # accepted an update copy and shortcut the depth accounting
    g = random_sc_digraph(6, 5)
    w = run_with_faults(
        g,
        [FaultEvent(30, "crash", "n1"), FaultEvent(45, "crash", "n5")],
        rounds=60,
        thresh=3,
        seed=5,
    )
    assert_connected_bounded(w, 3)


def test_repair_delay_is_detection_bound():
    w = run_with_faults(ring4_chord(), [FaultEvent(10, "crash", "a")], thresh=2)
    delays = repair_delays(w.log)
    assert delays and all(d <= 2 for d in delays)


def test_no_repair_when_redundant_paths_remain():
    # c->b keeps b fed after a dies; nothing should be repaired
    g = make_graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "b")])
    w = run_with_faults(g, [FaultEvent(10, "crash", "a")], thresh=2)
    assert repair_delays(w.log) == []
    assert_connected_bounded(w, 2)


def test_member_left_events_fire_on_detection():
    g = make_graph([("a", "b"), ("b", "c"), ("c", "a")])
    w = run_with_faults(g, [FaultEvent(5, "crash", "b")], thresh=2, rounds=8)
    lefts = memberships(w, "MemberLeft")
    assert {e.node for e in lefts} == {"b"}
    assert all(e.round == 6 for e in lefts)  # detection_rounds = 1
    assert {(e.group, e.role) for e in lefts} == {("g.a", RECEIVER), ("g.b", SENDER)}


def test_recovery_restores_stashed_memberships():
    g = make_graph([("a", "b"), ("b", "c"), ("c", "a")])
    w = run_with_faults(
        g,
        [FaultEvent(5, "crash", "b"), FaultEvent(20, "recover", "b")],
        thresh=2,
        rounds=30,
    )
    rejoins = [e for e in memberships(w, "MemberJoined") if e.node == "b"]
    assert {(e.group, e.role) for e in rejoins} >= {("g.a", RECEIVER), ("g.b", SENDER)}
    assert all(e.round == 20 for e in rejoins)
    assert "b" in w.detected_alive


def test_recovery_before_detection_is_silent():
    g = make_graph([("a", "b"), ("b", "c"), ("c", "a")])
    w = World(
        g,
        Bpd(2, repair_period_rounds=1000),
        SimConfig(n_rounds=12, seed=0, detection_rounds=3),
        faults=[FaultEvent(5, "crash", "b"), FaultEvent(6, "recover", "b")],
    )
    w.run()
    assert [e for e in memberships(w) if e.round >= 5] == []
    assert w.assignment.groups["g.a"].receivers == {"b"}


def test_leader_offers_only_useful_groups():
    # direct handler check: a leader never offers a group the requester
    # already sends in, even when it is the smallest
    g = make_graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "b")])
    w = World(g, Bpd(2), SimConfig(n_rounds=0, seed=0))
    leader = w.nodes["c"]
    res = leader.on_join_req(JoinReq("b", "send_grp"), None)
    (((dsts, group),), rep), = res.emissions
    assert group is None and dsts == ("b",)
    assert isinstance(rep, JoinRep)
    # c's receive groups: g.a (a->b... no, g.a receivers {b}) and g.b {c}.
    # b already sends in g.b; joining g.a as sender adds b->b only: useless.
    # g.b offer would be b joining its own send group: also useless.
    assert rep.grp == ""


def test_crashes_then_full_recovery_round_trip():
    g = random_sc_digraph(8, 3)
    faults = [
        FaultEvent(10, "crash", "n2"),
        FaultEvent(18, "crash", "n5"),
        FaultEvent(30, "recover", "n2"),
        FaultEvent(35, "recover", "n5"),
    ]
    w = run_with_faults(g, faults, rounds=50)
    assert sorted(w.alive) == sorted(g.nodes)
    assert_connected_bounded(w, default_threshold(8))
    assert all(r.connected for r in w.log if isinstance(r, CycleComplete))


# --- repair branches reached only by overlapping crashes ------------------


def repair_world(n, seed, crashes, timeout, rounds):
    g = random_sc_digraph(n, seed)
    lines = []
    w = World(
        g,
        Bpd(default_threshold(n), repair_period_rounds=3, reply_timeout_rounds=timeout),
        SimConfig(n_rounds=rounds, seed=0),
        faults=[FaultEvent(r, "crash", node) for r, node in crashes],
    )
    w.trace_fn = lines.append
    return w, lines


@pytest.mark.parametrize("timeout", [2, 3, 5, 7])
def test_join_request_finalized_at_its_deadline(timeout):
    # n4's JoinReq of round 3 goes to leaders n1 and n2, which crashed that
    # round and are not yet detected; their replies never come, so poll
    # settles the request on what it has once the reply timeout passes
    w, lines = repair_world(8, 267853, [(2, "n7"), (3, "n1"), (3, "n2")], timeout, rounds=12)
    w.run()
    joined = [l for l in lines if l.endswith(" join g.n7 n4 sender repair:send_grp")]
    assert joined == [f"round={3 + timeout} join g.n7 n4 sender repair:send_grp"]
    assert not any(node.pending_join for node in w.nodes.values())


def test_retry_reissued_while_needed_then_dropped():
    # after n0 and n3 crash, n1 is the only leader left: its own join
    # requests find nobody to ask and stay flagged. The next cycle re-issues
    # the send request while n1 still has no live receiver, and the one after
    # drops both flags because the round-4 repair gave n1 an edge each way.
    w, lines = repair_world(4, 55707, [(3, "n3"), (3, "n0")], timeout=5, rounds=0)
    retries, control = {}, []
    for _ in range(10):
        control.append(w.step_round().control_messages)
        retries[w.round] = sorted(w.nodes["n1"].retry_kinds)
    assert retries[4] == retries[6] == ["recv_grp", "send_grp"]
    assert retries[7] == retries[10] == []
    assert control == [37, 4, 2, 30, 2, 2, 14, 2, 2, 14]
    repairs = [l for l in lines if " repair:" in l]
    assert repairs == ["round=4 join g.n1 n2 receiver repair:recv_grp"]
    assert all(r.connected for r in w.log if isinstance(r, CycleComplete))


def test_poll_settles_queries_before_join_requests(base10):
    # b holds an open recv_grp join request and an open query on g.a, each
    # waiting on a peer that never answers and both at their deadline. The
    # query settles first: it finds no sender, so it re-sends the join
    # request, which is still open and keeps its old deadline; the join
    # request then settles on its old replies, none, and is flagged for
    # retry, so the leaders' replies to the re-send find nothing open.
    # Settling the join request first would instead let the re-send open a
    # fresh one, and b would join g.d as a receiver in this same round.
    w = World(base10, Bpd(3, repair_period_rounds=1000), SimConfig(n_rounds=1, seed=0))
    w.step_round()
    b = w.nodes["b"]
    b.pending_join[RECV_KIND] = _Pending(frozenset({"x"}), {}, w.round)
    b.pending_query["g.a"] = _Pending(frozenset({"x"}), {}, w.round)
    before = len(w.log)
    w._poll_timeouts()
    joined = [
        (e.group, e.role, e.reason)
        for e in w.log[before:]
        if isinstance(e, MembershipEvent) and e.node == "b"
    ]
    assert joined == []
    assert b.retry_kinds == {RECV_KIND}
    assert not b.pending_join and not b.pending_query

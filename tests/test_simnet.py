import copy
import gc
import hashlib
import importlib.util
import json
import math
import sys
from array import array
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bpdsim import bpd, cli, metrics, simnet
from bpdsim.bpd import (
    BpdNode,
    DiscoverMsg,
    GrpQry,
    HandlerResult,
    PathEntry,
    UpdateMsg,
    default_threshold,
)
from bpdsim.graph import DirectedGraph
from bpdsim.groups import RECEIVER, SENDER, effective_graph, join_group
from bpdsim.metrics import NO_RECEIPT
from bpdsim.simnet import (
    CycleComplete,
    FaultError,
    FaultEvent,
    SimConfig,
    UnknownNodeError,
    World,
    validate_schedule,
)
from bpdsim.toplink import build_graph, parse_toplink
from bpdsim.workloads import AllToAll, Bpd, Gossip, Unmodified, consensus_step
from conftest import (
    BASE10_EDGES,
    WIRE_MESSAGES,
    DeOracle,
    bfs_hops,
    make_graph,
    memberships,
    random_sc_digraph,
)


def vec(w, packed):
    """A packed stamp or receipt vector of `w` as a list indexed by roster position."""
    return w.packing.unpack(packed)


def mesh_world(rounds=10, seed=0, faults=None, strategy=None, **cfg):
    g = make_graph(BASE10_EDGES)
    return World(
        g,
        strategy or AllToAll(),
        SimConfig(n_rounds=rounds, seed=seed, **cfg),
        faults=faults or [],
    )


# --- schedule validation -------------------------------------------------


def test_schedule_rejects_unknown_node():
    with pytest.raises(UnknownNodeError) as exc:
        validate_schedule([FaultEvent(1, "crash", "zz")], {"a"})
    # says what is wrong, not only the quoted name a plain KeyError would give
    assert str(exc.value) == "unknown peer 'zz'"


def test_schedule_rejects_double_crash():
    evs = [FaultEvent(1, "crash", "a"), FaultEvent(2, "crash", "a")]
    with pytest.raises(FaultError):
        validate_schedule(evs, {"a"})


def test_schedule_rejects_recover_alive():
    with pytest.raises(FaultError):
        validate_schedule([FaultEvent(1, "recover", "a")], {"a"})


def test_schedule_rejects_unsorted():
    evs = [FaultEvent(5, "crash", "a"), FaultEvent(2, "crash", "b")]
    with pytest.raises(FaultError):
        validate_schedule(evs, {"a", "b"})


@pytest.mark.parametrize("rnd", [0, -1])
def test_schedule_rejects_round_below_1(rnd):
    # round 0 would never fire; round -1 is not a sorting problem
    with pytest.raises(FaultError, match=rf"^fault round must be >= 1, got {rnd}$"):
        validate_schedule([FaultEvent(rnd, "crash", "a")], {"a"})


# --- determinism ---------------------------------------------------------


def test_identical_runs_identical_traces():
    w1, w2 = mesh_world(rounds=30, seed=9), mesh_world(rounds=30, seed=9)
    w1.run(), w2.run()
    assert w1.stats == w2.stats
    assert w1.x_trace == w2.x_trace


def test_gossip_runs_deterministic():
    a = mesh_world(rounds=30, seed=4, strategy=Gossip(fanout=3))
    b = mesh_world(rounds=30, seed=4, strategy=Gossip(fanout=3))
    a.run(), b.run()
    assert a.stats == b.stats


def test_seed_changes_values_not_structure():
    w1, w2 = mesh_world(rounds=5, seed=1), mesh_world(rounds=5, seed=2)
    w1.run(), w2.run()
    assert w1.x0 != w2.x0
    assert [s.messages for s in w1.stats] == [s.messages for s in w2.stats]


# --- pacing and counting ---------------------------------------------------


def test_app_messages_land_next_round():
    # two nodes exchanging x: nobody hears anything in round 1
    g = make_graph([("a", "b"), ("b", "a")])
    w = World(g, AllToAll(), SimConfig(n_rounds=2, seed=1))
    w.run()
    assert w.x_trace[0] == w.x0  # round 1: no deliveries yet
    assert w.x_trace[1] != w.x0  # round 2: both moved


def test_all_to_all_message_count():
    w = mesh_world(rounds=4)
    w.run()
    assert all(s.messages == 30 for s in w.stats)


def test_all_to_all_message_count_under_faults():
    # each alive sender counts every detected-alive peer but itself: f's
    # crash at round 2 goes undetected until round 4, so rounds 2 and 3 still
    # count messages to f; e crashes at 6 and recovers at 7, before detection
    faults = [
        FaultEvent(2, "crash", "f"),
        FaultEvent(5, "recover", "f"),
        FaultEvent(6, "crash", "e"),
        FaultEvent(7, "recover", "e"),
    ]
    w = mesh_world(rounds=7, faults=faults, detection_rounds=2)
    lines = []
    w.trace_fn = lines.append
    counts = []
    for _ in range(7):
        inflight = [(src, dsts) for src, _x, _snapshot, dsts in w._app_inflight]
        lines.clear()
        counts.append(w.step_round().messages)
        assert counts[-1] == len(w.alive) * (len(w.detected_alive) - 1)
        # traced deliveries in message order, none to the sender or a peer down
        want = [
            f"round={w.round} deliver app {src} {dst}"
            for src, dsts in inflight
            for dst in dsts
            if dst != src and dst in w.alive
        ]
        assert [line for line in lines if " deliver app " in line] == want
    assert counts == [30, 25, 25, 20, 30, 25, 30]


def test_gossip_message_count():
    w = mesh_world(rounds=4, strategy=Gossip(fanout=3))
    w.run()
    assert all(s.messages == 18 for s in w.stats)


def test_unmodified_message_count_is_edges():
    w = mesh_world(rounds=4, strategy=Unmodified())
    w.run()
    assert all(s.messages == 10 for s in w.stats)


def test_heartbeats_count_alive():
    w = mesh_world(rounds=3, strategy=Unmodified())
    w.run()
    assert all(s.control_messages == 6 for s in w.stats)


@pytest.mark.parametrize(
    "rounds, strategy, faults",
    [
        (2, Unmodified(), []),
        # repair cycles in rounds 1 and 4; c's crash is detected in round 3,
        # whose departure handlers send repair traffic and join
        (6, Bpd(3, repair_period_rounds=3), [FaultEvent(2, "crash", "c")]),
    ],
    ids=["unmodified", "bpd-repair-and-crash"],
)
def test_bytes_accounting(rounds, strategy, faults):
    w = mesh_world(
        rounds=rounds, strategy=strategy, faults=faults, payload_bytes=100, control_bytes=10
    )
    w.run()
    for s in w.stats:
        assert s.bytes == s.messages * 100 + s.control_messages * 10
    if isinstance(strategy, Bpd):
        heartbeats = {1: 6, 3: 5, 4: 5}
        assert all(w.stats[r - 1].control_messages > n for r, n in heartbeats.items())
        assert any(e.round == 3 for e in memberships(w, "MemberJoined"))


def test_crashed_destination_counted_until_detected():
    w = mesh_world(rounds=6, faults=[FaultEvent(3, "crash", "f")], detection_rounds=2)
    w.run()
    by_round = {s.round: s.messages for s in w.stats}
    assert by_round[2] == 30
    assert by_round[3] == 25  # f silent, but still everyone's target
    assert by_round[4] == 25  # not yet detected
    assert by_round[5] == 20  # detected at 5 = 3 + 2


def test_detection_round_exact():
    w = mesh_world(rounds=8, faults=[FaultEvent(3, "crash", "f")], detection_rounds=2)
    w.run()
    lefts = memberships(w, "MemberLeft")
    assert lefts and all(e.round == 5 for e in lefts)
    assert "f" not in w.detected_alive and "f" not in w.alive


def test_departure_from_both_roles_of_a_group_is_handled_once(monkeypatch):
    # b receives on g.a and also sends on it, so its detected crash leaves
    # g.a twice; each member still reacts to that departure once
    w = mesh_world(
        rounds=3, strategy=Bpd(3, repair_period_rounds=1000), faults=[FaultEvent(2, "crash", "b")]
    )
    assert join_group(w.assignment, "b", "g.a", SENDER)
    calls = []
    on_member_left = BpdNode.on_member_left

    def logged(node, group, departed):
        calls.append((node.nid, group.gid, departed))
        return on_member_left(node, group, departed)

    monkeypatch.setattr(BpdNode, "on_member_left", logged)
    w.run()
    left = [(e.group, e.role) for e in memberships(w, "MemberLeft")]
    assert ("g.a", SENDER) in left and ("g.a", RECEIVER) in left
    assert calls.count(("a", "g.a", "b")) == 1
    assert len(calls) == len(set(calls))


# --- fault injection guards ------------------------------------------------


def test_inject_crash_twice_rejected():
    w = mesh_world(rounds=1)
    w.inject_fault("a", "crash")
    with pytest.raises(FaultError):
        w.inject_fault("a", "crash")


def test_inject_unknown_node():
    w = mesh_world(rounds=1)
    with pytest.raises(UnknownNodeError):
        w.inject_fault("zz", "crash")


def test_recover_alive_is_noop():
    w = mesh_world(rounds=1)
    w.inject_fault("a", "recover")
    assert "a" in w.alive


# --- structure ---------------------------------------------------------------


def test_effective_edges_track_joins():
    w = mesh_world(rounds=2, strategy=Bpd(3))
    assert w.edges_initial == 10
    w.run()
    assert w.effective_edge_count() > 10
    assert w.stats[-1].messages == w.effective_edge_count()


def test_recovering_detected_peers_keeps_the_edge_count():
    # a detected-down peer's stashed memberships are counted, so its recovery,
    # which rejoins them, adds no edge
    faults = [FaultEvent(2, "crash", "c"), FaultEvent(2, "crash", "e")]
    w = mesh_world(rounds=4, strategy=Bpd(3, repair_period_rounds=2), faults=faults)
    w.run()
    assert sorted(w.stash) == ["c", "e"]
    before = w.effective_edge_count()
    assert before > w.edges_initial
    for n in ("c", "e"):
        w.inject_fault(n, "recover")
    assert not w.stash
    assert w.effective_edge_count() == before


def test_not_connected_flag_on_split_topology():
    # two separate 2-cycles: discovery can never span them; nor can it reach
    # a peer with no links, which holds no membership
    two_cycles = make_graph([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
    pair = make_graph([("a", "b"), ("b", "a")])
    isolated = DirectedGraph(("a", "b", "c"), pair.edges)
    for g in (two_cycles, isolated):
        w = World(g, Bpd(2), SimConfig(n_rounds=1, seed=0))
        w.run()
        assert [r.round for r in w.log if isinstance(r, CycleComplete) and not r.connected] == [1]


def test_de_steady_state_full_health():
    w = mesh_world(rounds=15, strategy=Unmodified())
    w.run()
    assert w.stats[-1].mean_de == 1.0
    assert w.stats[-1].min_de == 1.0


def test_direct_mesh_delivers_at_one_round_lag():
    # direct mesh: from round 2 on, every node holds every other origin's
    # stamp from the round before, received this round
    w = mesh_world(rounds=5)
    w.step_round()
    for r in range(2, 6):
        w.step_round()
        for d in w.roster:
            others = [o for o in w.roster if o != d]
            assert [vec(w, w.stamps[d])[w.pos[o]] for o in others] == [r - 1] * len(others)
            assert vec(w, w.receipts[d]) == [NO_RECEIPT if o == d else r for o in w.roster]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
    direct=st.booleans(),
    rounds=st.integers(min_value=1, max_value=12),
)
def test_stamps_follow_hop_distance(n, seed, direct, rounds):
    # information moves one hop per round: after round r, d holds o's stamp
    # r - hops(o -> d) once that is at least 1, and the receipt is from round r
    g = random_sc_digraph(n, seed)
    w = World(g, AllToAll() if direct else Unmodified(), SimConfig(n_rounds=rounds, seed=seed))
    hops = {o: {d: 1 for d in g.nodes} if direct else bfs_hops(g, o) for o in g.nodes}
    for r in range(1, rounds + 1):
        w.step_round()
        for d in g.nodes:
            want = {o: r - hops[o][d] for o in g.nodes if o != d and r - hops[o][d] >= 1}
            stamps = vec(w, w.stamps[d])
            got = {o: s for o in g.nodes if o != d and (s := stamps[w.pos[o]]) != -1}
            assert got == want
            assert vec(w, w.receipts[d]) == [r if o in want else NO_RECEIPT for o in w.roster]


def _de_strategies(n):
    return st.one_of(
        st.sampled_from([AllToAll(), Unmodified()]), st.integers(1, n - 1).map(Gossip)
    )


@st.composite
def _fault_schedules(draw, nodes, rounds):
    """A valid crash/recover schedule: per node, alternating events in rising rounds."""
    events = []
    for node in nodes:
        times = sorted(draw(st.sets(st.integers(1, rounds), max_size=4)))
        events += [
            FaultEvent(t, "crash" if k % 2 == 0 else "recover", node) for k, t in enumerate(times)
        ]
    return sorted(events, key=lambda ev: ev.round)


def assert_views_are_fresh(w):
    """Every view of who is up equals its recomputation from the roster,
    `crashed_at`, `stash` and the packing as they stand."""
    alive = sorted(set(w.roster) - w.crashed_at.keys())
    detected = sorted(set(w.roster) - w.stash.keys())
    assert w.stash.keys() <= w.crashed_at.keys()  # a detected-down peer is down
    assert w.alive_sorted == alive and w.alive == set(alive)
    assert list(w.alive_position.items()) == [(n, i) for i, n in enumerate(alive)]
    assert w.detected_sorted == tuple(detected) and w.detected_alive == set(detected)
    assert w.detected_guards == w.packing.guard_bits(n in detected for n in w.roster)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_de_matches_the_dict_oracle(data):
    # every round, feed the dict oracle each stamp slot that rose at each node
    # and ask it for every alive node's DE: the receipt vectors must give the
    # same floats
    n = data.draw(st.integers(2, 8), "n")
    rounds = data.draw(st.integers(1, 20), "rounds")
    g = random_sc_digraph(n, data.draw(st.integers(0, 10_000), "seed"))
    cfg = SimConfig(
        # a world stepped past its n_rounds widens its vectors on the way
        n_rounds=data.draw(st.integers(0, rounds), "n_rounds"),
        seed=data.draw(st.integers(0, 100), "sim seed"),
        detection_rounds=data.draw(st.integers(1, 3), "detection"),
        de_window_rounds=data.draw(st.one_of(st.none(), st.integers(1, 6)), "window"),
    )
    # any peer may fail, so a gossip peer may have fewer peers left than its fanout
    faults = data.draw(_fault_schedules(g.nodes, rounds), "faults")
    w = World(g, data.draw(_de_strategies(n), "strategy"), cfg, faults=faults)
    oracle = DeOracle(w.roster)
    assert_views_are_fresh(w)
    for r in range(1, rounds + 1):
        before = {d: vec(w, v) for d, v in w.stamps.items()}
        w.step_round()
        for d in w.roster:
            for i, (old, new) in enumerate(zip(before[d], vec(w, w.stamps[d]))):
                if new != old:
                    oracle.record(d, w.roster[i], r)
        want = {}
        for d in sorted(w.alive):
            oracle.purge(d, r, w.window)
            want[d] = oracle.de(d, w.detected_alive)
        assert w.de_trace[-1] == want
        # the records read back as the dicts they stand for, in roster order
        assert list(dict(w.de_trace[-1]).items()) == list(want.items())
        assert list(dict(w.x_trace[-1]).items()) == [(d, w.x[d]) for d in sorted(w.alive)]
        assert_views_are_fresh(w)


def test_rounds_between_liveness_changes_share_one_key_and_hold_doubles():
    # c crashes in round 3, its crash is detected in round 4 and it recovers
    # in round 7: the views are rebuilt there and nowhere else
    w = mesh_world(rounds=9, faults=[FaultEvent(3, "crash", "c"), FaultEvent(7, "recover", "c")])
    w.run()
    for xs, des in zip(w.x_trace, w.de_trace):
        assert xs.position is des.position
        for row in (xs, des):
            assert type(row.floats) is array and row.floats.typecode == "d"
            assert list(row) == list(row.position) == sorted(row.position)
    rebuilt = [
        k + 1 for k in range(1, 9) if w.x_trace[k].position is not w.x_trace[k - 1].position
    ]
    assert rebuilt == [3, 4, 7]
    assert "c" not in w.x_trace[3] and w.x_trace[6]["c"] == w.x_trace[6].floats[2]


def test_doubles_round_trip_exactly():
    # a peer that hears nobody keeps its value, so what is set is what is kept
    w = mesh_world(rounds=1, strategy=Unmodified())
    odd = [-0.0, math.nan, math.inf, 5e-324, 0.1 + 0.2, 1e308]
    for n, v in zip(w.roster, odd):
        w.x[n] = v
    w.step_round()
    assert [repr(w.x_trace[-1][n]) for n in w.roster] == [repr(v) for v in odd]


# bytes of a record and of its array's header on a 64-bit CPython 3.11 (136),
# with room to spare; a dict per round holds far more
ROW_OVERHEAD = 160


def test_a_round_keeps_8_bytes_per_alive_peer_per_column():
    w = mesh_world(rounds=12, faults=[FaultEvent(3, "crash", "c"), FaultEvent(7, "recover", "c")])
    w.run()
    rows = w.x_trace + w.de_trace
    # what more than one row refers to (the keys, the names) is not a round's own
    refs = Counter(id(o) for row in rows for o in gc.get_referents(row))
    for k, row in enumerate(rows):
        own = [o for o in gc.get_referents(row) if refs[id(o)] == 1]
        size = sys.getsizeof(row) + sum(map(sys.getsizeof, own))
        assert size <= ROW_OVERHEAD + 8 * len(row), (k, size)


def test_de_counts_the_origins_detected_alive_as_the_round_ends():
    # the world rebuilds the guard bits of the detected-alive origins only
    # where they change: a world built for 0 rounds widens its vectors at
    # rounds 1 and 7 (and its guard bits move), c's crash is detected at round
    # 4 and it recovers at round 10; every round's DE must equal DE over
    # freshly computed guard bits
    w = mesh_world(
        rounds=0, faults=[FaultEvent(3, "crash", "c"), FaultEvent(10, "recover", "c")]
    )
    widths = set()
    for _ in range(12):
        w.step_round()
        widths.add(w.packing.width)
        packing = w.packing
        fresh = packing.guard_bits(n in w.detected_alive for n in w.roster)
        want = {
            n: metrics.dissemination_efficiency(w.receipts[n], fresh, w.pos[n], packing)
            for n in sorted(w.alive)
        }
        assert w.de_trace[-1] == want, w.round
    assert widths == {4, 8}


def step_against_merge_oracle(w):
    """Run one round of `w` and check it against delivery message by message.

    A message reaches each alive destination it names other than its sender:
    a peer never hears itself. Each alive destination then folds every
    snapshot it received into its own vector, `list(map(max, mine,
    *snapshots))`, and stamps its own slot when it sends; its new value is
    `consensus_step` over one value per distinct sender, in sender order,
    compared with `==`.

    Also check how many folds the round makes. An all-to-all round with
    traffic in flight is delivered by destination: one fold of every sender,
    shared by the destinations that sent, and one more for each destination
    that did not. Every other round folds once per destination. Returns the
    number of destinations of each kind: (sharing, folding their own)."""
    before = {d: vec(w, v) for d, v in w.stamps.items()}
    x_before = dict(w.x)
    inflight = [(src, x, dsts, vec(w, snapshot)) for src, x, snapshot, dsts in w._app_inflight]
    folds = 0
    real_max = metrics.Packing.max

    def counted_max(packing, vectors):
        nonlocal folds
        folds += 1
        return real_max(packing, vectors)

    metrics.Packing.max = counted_max
    try:
        w.step_round()
    finally:
        metrics.Packing.max = real_max
    got, heard = {}, {}
    for src, x, dsts, snapshot in inflight:
        for dst in dsts:
            if dst != src and dst in w.alive:
                got.setdefault(dst, []).append(snapshot)
                heard.setdefault(dst, {}).setdefault(src, x)
    if isinstance(w.strategy, AllToAll) and inflight:
        senders = {src for src, *_ in inflight}
        shared = [d for d in heard if d in senders]
        own = len(heard) - len(shared)
        assert folds == 1 + own, w.round
    else:
        shared, own = [], len(heard)
        assert folds == own, w.round
    for d in w.roster:
        want = list(map(max, before[d], *got[d])) if d in got else before[d]
        if d in w.alive:
            want[w.pos[d]] = w.round
        assert vec(w, w.stamps[d]) == want, (w.round, d)
        if d in heard:
            want_x = consensus_step(x_before[d], list(heard[d].values()), w.cfg.eps)
        else:
            want_x = x_before[d]
        assert w.x[d] == want_x, (w.round, d)
    # vectors are immutable ints, so destinations that share a merge cannot
    # see each other's later writes
    assert all(type(v) is int for v in w.stamps.values())
    return len(shared), own


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_merge_matches_the_per_destination_merge(data):
    n = data.draw(st.integers(2, 8), "n")
    rounds = data.draw(st.integers(1, 20), "rounds")
    g = random_sc_digraph(n, data.draw(st.integers(0, 10_000), "seed"))
    cfg = SimConfig(
        n_rounds=data.draw(st.integers(0, rounds), "n_rounds"),
        seed=data.draw(st.integers(0, 100), "sim seed"),
        detection_rounds=data.draw(st.integers(1, 3), "detection"),
    )
    # bpd with a short period, so repair joins put receivers in further groups
    bpd_strategy = st.integers(1, 4).map(lambda period: Bpd(2, repair_period_rounds=period))
    strategy = data.draw(st.one_of(_de_strategies(n), bpd_strategy), "strategy")
    faults = data.draw(_fault_schedules(g.nodes, rounds), "faults")
    w = World(g, strategy, cfg, faults=faults)
    for _ in range(rounds):
        shared, own = step_against_merge_oracle(w)
        if shared:
            event("a shared merge of every sender")
        if own:
            event("a destination folding its own senders")


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_world_stepped_past_its_rounds_matches_one_built_for_them(data):
    # a world built for 0 rounds holds only round 0 in its slots, so it
    # re-packs at round 1 and again at round 7, with round 6's app traffic
    # still in flight; read back, nothing may differ from a world built wide
    # enough from the start
    n = data.draw(st.integers(2, 8), "n")
    rounds = data.draw(st.integers(1, 20), "rounds")
    g = random_sc_digraph(n, data.draw(st.integers(0, 10_000), "seed"))
    strategy = data.draw(_de_strategies(n), "strategy")
    faults = data.draw(_fault_schedules(g.nodes, rounds), "faults")
    sim = {
        "seed": data.draw(st.integers(0, 100), "sim seed"),
        "detection_rounds": data.draw(st.integers(1, 3), "detection"),
        "de_window_rounds": data.draw(st.one_of(st.none(), st.integers(1, 6)), "window"),
    }
    narrow = World(g, strategy, SimConfig(n_rounds=0, **sim), faults=faults)
    wide = World(g, strategy, SimConfig(n_rounds=rounds, **sim), faults=faults)
    assert narrow.packing.width == 2
    for _ in range(rounds):
        assert narrow.step_round() == wide.step_round()
        for name in ("stamps", "receipts"):
            got, want = getattr(narrow, name), getattr(wide, name)
            assert {d: vec(narrow, v) for d, v in got.items()} == {
                d: vec(wide, v) for d, v in want.items()
            }
        assert [(s, x, vec(narrow, p), d) for s, x, p, d in narrow._app_inflight] == [
            (s, x, vec(wide, p), d) for s, x, p, d in wide._app_inflight
        ]
    assert narrow.de_trace == wide.de_trace
    assert narrow.x_trace == wide.x_trace
    assert narrow.packing.width == (4 if rounds < 7 else 8)


def test_peer_recovering_into_an_all_to_all_round_keeps_what_only_it_holds():
    # d's last message (sent in round 2) reaches only c, since a and b are down
    # from round 3; c goes down in round 4, a and b come back in round 5 and c
    # in round 6, when it hears a and b without having sent itself: its merge
    # must keep d's round-2 stamp, which a and b never got
    faults = [
        FaultEvent(3, "crash", "a"),
        FaultEvent(3, "crash", "b"),
        FaultEvent(3, "crash", "d"),
        FaultEvent(4, "crash", "c"),
        FaultEvent(5, "recover", "a"),
        FaultEvent(5, "recover", "b"),
        FaultEvent(6, "recover", "c"),
    ]
    g = make_graph([(u, v) for u in "abcd" for v in "abcd" if u != v])
    w = World(g, AllToAll(), SimConfig(n_rounds=6, detection_rounds=10), faults=faults)
    for _ in range(5):
        step_against_merge_oracle(w)
    assert [src for src, *_ in w._app_inflight] == ["a", "b"]
    # a and b share the merge of both senders; c, which did not send, folds its own
    assert step_against_merge_oracle(w) == (2, 1)
    d = w.pos["d"]
    assert vec(w, w.stamps["c"])[d] == 2
    assert vec(w, w.stamps["a"])[d] == vec(w, w.stamps["b"])[d] == 1


def test_direct_recovery_between_all_to_all_rounds_keeps_the_shared_merge():
    # d's crash at round 2 is detected at round 3; a recovery injected between
    # rounds 3 and 4 adds d back to the peers the next senders name, while the
    # round-3 messages in flight still name a, b and c only
    g = make_graph([(u, v) for u in "abcd" for v in "abcd" if u != v])
    faults = [FaultEvent(2, "crash", "d")]
    w = World(g, AllToAll(), SimConfig(n_rounds=5, detection_rounds=1), faults=faults)
    for _ in range(3):
        step_against_merge_oracle(w)
    w.inject_fault("d", "recover")
    assert_views_are_fresh(w)
    assert [step_against_merge_oracle(w) for _ in range(2)] == [(3, 0), (4, 0)]
    w.inject_fault("a", "crash")
    assert_views_are_fresh(w)


def test_receiver_in_two_send_groups_of_one_sender():
    # a sends on g.a.0 (to b) and g.a.1 (to c); b also joins g.a.1, so a's
    # message reaches b twice, and b and c hear the same sender set {a}
    g = make_graph([("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")], weights=[1, 2, 1, 1])
    w = World(g, Unmodified(), SimConfig(n_rounds=4))
    assert join_group(w.assignment, "b", "g.a.1", RECEIVER)
    for rnd in range(1, 5):
        kinds = step_against_merge_oracle(w)
        # from round 2 on, a hears b and c and they hear a; a group round
        # shares no merge, even for a, which heard every other sender
        assert kinds == ((0, 3) if rnd > 1 else (0, 0))
        assert w.stats[-1].messages == 5
    src, _x, _snapshot, dsts = w._app_inflight[0]
    assert (src, dsts) == ("a", ("b", "b", "c"))


# --- control delivery order -------------------------------------------------

SCENARIOS = Path(__file__).parents[1] / "scenarios"
# sha256 and count of the full control-delivery sequence of each case below;
# the file is never rewritten by a test, so a reordered, added or lost
# delivery fails here even when the CSVs come out the same
DELIVERY_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "delivery_digests.json").read_text()
)


def ring12_cycle():
    names = [f"n{i:02d}" for i in range(12)]
    g = make_graph([(u, names[(i + 1) % 12]) for i, u in enumerate(names)])
    World(g, Bpd(default_threshold(12)), SimConfig(n_rounds=0, seed=0)).run_repair_cycle()


def bpd_crash_run():
    cli.build_world(cli.parse_scenario(SCENARIOS / "bpd_crash.scn"), SCENARIOS).run()


def random12_churn():
    """A random(3) overlay of 12 peers at thresh 2, a repair cycle every 5
    rounds and two crash/recover pairs: sibling receivers drop discovery
    announcements and nodes drop repeated updates, under churn."""
    names = ", ".join(f"p{i:02d}" for i in range(12))
    g = build_graph(parse_toplink(f"topology random(3);\nnodes {{ {names} }};\n"), seed=3)
    faults = [
        FaultEvent(7, "crash", "p03"),
        FaultEvent(12, "crash", "p08"),
        FaultEvent(18, "recover", "p03"),
        FaultEvent(24, "recover", "p08"),
    ]
    World(g, Bpd(2, repair_period_rounds=5), SimConfig(n_rounds=30, seed=3), faults).run()


DELIVERY_CASES = {
    "ring12_cycle": ring12_cycle,
    "bpd_crash": bpd_crash_run,
    "random12_churn": random12_churn,
}


def observe_deliveries(monkeypatch, drive, observe):
    """Run drive() with every delivery handler calling observe(name, node, msg,
    group) before it handles the delivery."""

    def logged(name, handler):
        def deliver(node, msg, group):
            observe(name, node, msg, group)
            return handler(node, msg, group)

        return deliver

    with monkeypatch.context() as patched:
        for msg_type in WIRE_MESSAGES:
            name = msg_type.handler
            patched.setattr(BpdNode, name, logged(name, getattr(BpdNode, name)))
        drive()


def delivery_record(monkeypatch, drive):
    """Run drive() with every delivery handler logging one line per call:
    round, destination, handler name, group and the message's repr."""
    h, count = hashlib.sha256(), 0

    def log(name, node, msg, group):
        nonlocal count
        count += 1
        gid = None if group is None else group.gid
        h.update(f"{node.world.round} {node.nid} {name} {gid} {msg!r}\n".encode())

    observe_deliveries(monkeypatch, drive, log)
    return {"sha256": h.hexdigest(), "deliveries": count}


@pytest.mark.parametrize("case", sorted(DELIVERY_CASES))
def test_control_delivery_sequence_is_pinned(case, monkeypatch):
    assert delivery_record(monkeypatch, DELIVERY_CASES[case]) == DELIVERY_DIGESTS[case]


BENCH = Path(__file__).parents[1] / "bench"


def _bench_scenarios(monkeypatch):
    """bench/scenarios.py, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location("bench_scenarios", BENCH / "scenarios.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["bpd-churn", "ring-cycle"])
def test_delivery_calls_match_the_bench_golden_counts(workload, monkeypatch, tmp_path):
    # the benchmark's traced runs must repeat these counts exactly; a change
    # that moves one fails here, in the tier-1 suite, before the benchmark
    scenarios = _bench_scenarios(monkeypatch)
    inputs = scenarios.instances(workload, scenarios.DEFAULT_SEED)[0]
    scn = scenarios.write_inputs(inputs, tmp_path)
    calls = {msg_type.handler: 0 for msg_type in WIRE_MESSAGES}
    # every JoinIntent the world is handed, applied or not, by its cause's
    # first word, as the benchmark's tracer counts them
    joins = {"update": 0, "repair": 0}

    def count(name, node, msg, group):
        calls[name] += 1

    apply_joins = World._apply_joins

    def count_joins(world, emitter, intents):
        for intent in intents:
            joins[intent.reason.split(":", 1)[0]] += 1
        return apply_joins(world, emitter, intents)

    monkeypatch.setattr(World, "_apply_joins", count_joins)
    observe_deliveries(
        monkeypatch, lambda: cli.build_world(cli.parse_scenario(scn), scn.parent).run(), count
    )
    golden = json.loads((BENCH / "golden.json").read_text())[workload]
    assert calls == {name: golden[f"i0:count:bpd.{name}.calls"] for name in calls}
    assert joins == {cause: golden[f"i0:count:bpd.joins.{cause}"] for cause in joins}


class ReferenceWorld(World):
    """A world whose drain is the plain per-destination loop that the
    production drain must match in behaviour, whatever deliveries it skips:
    each (destinations, group) pair of a popped entry's plan is one control
    message and puts every destination, dead ones too, on the cascade count,
    checked against the cap before any of its deliveries; then every alive
    destination's handler runs, in order, and its result is applied as it
    comes."""

    def _drain_control(self, delivered=0):
        popped = 0
        while self._ctrl:
            plan, msg = self._ctrl.popleft()
            for dsts, group in plan:
                popped += 1
                delivered += len(dsts)
                if delivered > simnet._CASCADE_CAP:
                    raise simnet.CascadeError(f"past {simnet._CASCADE_CAP} deliveries")
                for dst in dsts:
                    if dst in self.alive:
                        handler = getattr(BpdNode, msg.handler)
                        self._apply_result(dst, handler(self.nodes[dst], msg, group))
        self._ctrl_sent += popped
        return delivered


def world_state(w):
    """What the control traffic decides, as plain values: the last round's
    figures, the values, the log, every group's member sets and every
    node's path table."""
    return (
        w.stats[-1] if w.stats else None,
        dict(w.x),
        list(w.log),
        {gid: (set(g.senders), set(g.receivers)) for gid, g in w.assignment.groups.items()},
        {n: dict(node.path) for n, node in w.nodes.items()},
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_drain_matches_the_reference_drain(data):
    n = data.draw(st.integers(3, 12), "n")
    rounds = data.draw(st.integers(1, 20), "rounds")
    weights = (Fraction(1, 2), 1, Fraction(3, 2))
    g = random_sc_digraph(n, data.draw(st.integers(0, 10_000), "seed"), weights)
    strategy = Bpd(
        data.draw(st.sampled_from([Fraction(3, 2), 2, 3]), "thresh"),
        repair_period_rounds=data.draw(st.integers(1, 6), "period"),
    )
    cfg = SimConfig(
        n_rounds=rounds,
        seed=data.draw(st.integers(0, 100), "sim seed"),
        detection_rounds=data.draw(st.integers(1, 3), "detection"),
    )
    faults = data.draw(_fault_schedules(g.nodes, rounds), "faults")
    worlds = [cls(g, strategy, cfg, faults=faults) for cls in (World, ReferenceWorld)]
    traces = [[], []]
    for w, lines in zip(worlds, traces):
        w.trace_fn = lines.append
    for _ in range(rounds):
        assert worlds[0].step_round() == worlds[1].step_round()
        assert world_state(worlds[0]) == world_state(worlds[1])
        assert traces[0] == traces[1]


def deep_copy_edge_count(w):
    """`World.effective_edge_count` by its first definition: join every
    stashed membership back on a deep copy of the assignment and count the
    edges of the overlay over the whole roster."""
    assignment = copy.deepcopy(w.assignment)
    for n, removed in w.stash.items():
        for gid, role in removed:
            join_group(assignment, n, gid, role)
    return effective_graph(assignment, set(w.roster)).n_edges


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_edge_count_matches_the_deep_copy_count(data):
    # short repair periods join peers to further groups, and crashes, their
    # detection and recoveries stash those memberships and put them back
    n = data.draw(st.integers(2, 12), "n")
    rounds = data.draw(st.integers(1, 20), "rounds")
    weights = (Fraction(1, 2), 1, Fraction(3, 2))
    g = random_sc_digraph(n, data.draw(st.integers(0, 10_000), "seed"), weights)
    strategy = Bpd(
        data.draw(st.sampled_from([Fraction(3, 2), 2, 3]), "thresh"),
        repair_period_rounds=data.draw(st.integers(1, 4), "period"),
    )
    cfg = SimConfig(
        n_rounds=rounds,
        seed=data.draw(st.integers(0, 100), "sim seed"),
        detection_rounds=data.draw(st.integers(1, 3), "detection"),
    )
    w = World(g, strategy, cfg, faults=data.draw(_fault_schedules(g.nodes, rounds), "faults"))
    assert w.effective_edge_count() == deep_copy_edge_count(w) == g.n_edges
    for _ in range(rounds):
        w.step_round()
        if w.stash:
            event("a detected-down peer's memberships stashed")
        assert w.effective_edge_count() == deep_copy_edge_count(w)


def _fresh_world_graphs():
    """ring and random(k) overlays from TopLink text, and fractional-weight
    random_sc_digraph overlays."""
    ring = st.integers(2, 12).map(
        lambda n: build_graph(parse_toplink(f"topology ring; nodes {{ {', '.join(f'p{i}' for i in range(n))} }};"))
    )
    random_k = st.tuples(st.integers(3, 12), st.integers(2, 3), st.integers(0, 1000)).filter(
        lambda t: t[1] < t[0]
    ).map(
        lambda t: build_graph(
            parse_toplink(f"topology random({t[1]}); nodes {{ {', '.join(f'p{i}' for i in range(t[0]))} }};"),
            seed=t[2],
        )
    )
    fractional = st.tuples(st.integers(2, 12), st.integers(0, 10_000)).map(
        lambda t: random_sc_digraph(t[0], t[1], (Fraction(1, 2), Fraction(2, 3), 1, Fraction(7, 4)))
    )
    return st.one_of(ring, random_k, fractional)


@settings(max_examples=60, deadline=None)
@given(g=_fresh_world_graphs(), slack=st.sampled_from([0, Fraction(1, 3), 1, 5]))
def test_fresh_world_takes_its_edge_count_and_threshold_from_one_computation(g, slack):
    # a threshold at or above the heaviest edge, so every world builds
    strategy = Bpd(g.max_weight() + slack)
    w = World(g, strategy, SimConfig(n_rounds=3))
    assert w.edges_initial == w.effective_edge_count() == g.n_edges
    bound = w.assignment.bound(strategy.thresh)
    assert sorted(w.nodes) == list(g.nodes)
    assert all(node.thresh == bound for node in w.nodes.values())


def record_states(monkeypatch, drive):
    """Run drive() and return the trace lines and `world_state` of every
    world it builds, after each round and each forced repair cycle."""
    got = []
    init, step_round, repair_cycle = World.__init__, World.step_round, World.run_repair_cycle

    def init_traced(world, *args, **kwargs):
        init(world, *args, **kwargs)
        world.trace_fn = got.append

    def recorded(step):
        def run(world):
            out = step(world)
            got.append(world_state(world))
            return out

        return run

    with monkeypatch.context() as patched:
        patched.setattr(World, "__init__", init_traced)
        patched.setattr(World, "step_round", recorded(step_round))
        patched.setattr(World, "run_repair_cycle", recorded(repair_cycle))
        drive()
    return got


@pytest.mark.parametrize("case", sorted(DELIVERY_CASES))
def test_delivery_cases_match_the_reference_drain(case, monkeypatch):
    drive = DELIVERY_CASES[case]
    got = record_states(monkeypatch, drive)
    monkeypatch.setattr(World, "_drain_control", ReferenceWorld._drain_control)
    assert got == record_states(monkeypatch, drive)


def test_shared_empty_result_stays_empty_through_a_run():
    bpd_crash_run()
    assert bpd._NOTHING.emissions == () and bpd._NOTHING.joins == ()


def test_group_destinations_frozen_at_emission(monkeypatch):
    w = mesh_world(rounds=0, strategy=Bpd(3))
    got = []
    on_discover = BpdNode.on_discover

    def logged(node, msg, group):
        got.append((group.gid, node.nid))
        return on_discover(node, msg, group)

    monkeypatch.setattr(BpdNode, "on_discover", logged)
    stale = DiscoverMsg("a", 0, epoch=99)  # every node drops it
    plan = w.assignment.send_plans("a")[0]
    w._apply_result("a", HandlerResult([(plan, stale)]))
    assert join_group(w.assignment, "d", "g.a", RECEIVER)  # d joins before the drain
    w._drain_control()
    assert got == [("g.a", "b"), ("g.a", "c")]
    got.clear()
    w._apply_result("a", HandlerResult([(w.assignment.send_plans("a")[0], stale)]))
    w._drain_control()
    assert got == [("g.a", "b"), ("g.a", "c"), ("g.a", "d")]
    # the plan handed out before the join was replaced, not altered
    assert plan == ((("b", "c"), w.assignment.groups["g.a"]),)

    # a discovery message rides every receive group of its emitter as one
    # entry; a join that lands after the entry is queued, or while its first
    # pair is being delivered, reaches none of its pairs
    for mid_drain in (False, True):
        w, got[:] = mesh_world(rounds=0, strategy=Bpd(3)), []
        plan = w.assignment.recv_plan("a")  # a receives on g.b and g.c
        assert [g.gid for _, g in plan] == ["g.b", "g.c"]
        emitted = [(g.gid, dst) for dsts, g in plan for dst in dsts]
        assert not any(dst == "e" for _, dst in emitted)

        def join_e(node, msg, group, w=w, mid_drain=mid_drain):
            if mid_drain and not got:
                assert join_group(w.assignment, "e", "g.c", RECEIVER)
            return logged(node, msg, group)

        monkeypatch.setattr(BpdNode, "on_discover", join_e)
        w._apply_result("a", HandlerResult([(plan, stale)]))
        if not mid_drain:
            assert join_group(w.assignment, "e", "g.c", RECEIVER)
        w._drain_control()
        assert got == emitted
        fresh = w.assignment.recv_plan("a")
        assert ("g.c", "e") in [(g.gid, dst) for dsts, g in fresh for dst in dsts]


class _PoppedLog(deque):
    """A control queue that logs the destinations of every pair of every
    entry popped."""

    def __init__(self):
        super().__init__()
        self.popped = []

    def popleft(self):
        entry = super().popleft()
        self.popped.extend(dsts for dsts, _group in entry[0])
        return entry


def test_cascade_cap_counts_deliveries_to_a_peer_not_yet_detected(monkeypatch):
    def crashed_world():
        w = mesh_world(rounds=0, strategy=Bpd(3), detection_rounds=5)
        w.inject_fault("f", "crash")  # down, but addressed until it is detected
        return w

    w = crashed_world()
    w._ctrl = log = _PoppedLog()
    w._discover()
    assert sum(dsts.count("f") for dsts in log.popped) > 0
    # one delivery per destination of every pair popped, f's included
    total = sum(map(len, log.popped))
    monkeypatch.setattr(simnet, "_CASCADE_CAP", total)
    assert crashed_world()._discover() == total
    monkeypatch.setattr(simnet, "_CASCADE_CAP", total - 1)
    with pytest.raises(simnet.CascadeError):
        crashed_world()._discover()

    # a cap that falls inside an entry riding two groups: the first pair is
    # delivered in full, the second raises before any of its deliveries runs
    w = crashed_world()
    plan = w.assignment.recv_plan("a")  # a receives on g.b and g.c
    (first, _), (second, _) = plan
    got = []

    def logged(node, msg, group):
        got.append((group.gid, node.nid))
        return bpd._NOTHING

    monkeypatch.setattr(BpdNode, "on_discover", logged)
    w._apply_result("a", HandlerResult([(plan, DiscoverMsg("a", 0, w.epoch))]))
    monkeypatch.setattr(simnet, "_CASCADE_CAP", len(first) + len(second) - 1)
    with pytest.raises(simnet.CascadeError):
        w._drain_control()
    assert got == [("g.b", dst) for dst in first if dst != "f"]


def test_handler_replaced_between_drains_runs_in_the_next(monkeypatch):
    # the drain looks the handler up on BpdNode for each entry it pops, so
    # a method replaced there, as bench/tracer.py does, runs from the next
    # drain on, and the original again once it is put back
    w = mesh_world(rounds=0, strategy=Bpd(3))
    w._discover()
    got = []

    def replaced(node, msg, group):
        got.append(node.nid)
        return bpd._NOTHING

    query = HandlerResult([(((("b", "c"), None),), GrpQry("a", "g.a"))])
    monkeypatch.setattr(BpdNode, "on_grp_qry", replaced)
    w._apply_result("a", query)
    w._drain_control()
    assert got == ["b", "c"]
    monkeypatch.undo()
    w._apply_result("a", query)
    w._drain_control()  # b and c answer a, whose query is not pending
    assert got == ["b", "c"]


@pytest.mark.parametrize("case", sorted(DELIVERY_CASES))
def test_delivered_messages_are_whole_and_ride_the_live_group(case, monkeypatch):
    # the forwards build messages and path entries with tuple.__new__, which
    # checks no arity, and the entry carries the Group object in place of
    # its id, which is exact only while groups are changed in place
    msg_type = {t.handler: t for t in WIRE_MESSAGES}
    seen = dict.fromkeys(msg_type, 0)

    def check(name, node, msg, group):
        seen[name] += 1
        assert isinstance(msg, msg_type[name]) and len(msg) == len(type(msg)._fields)
        if isinstance(msg, (DiscoverMsg, UpdateMsg)):
            assert group is node.world.assignment.groups[group.gid]
        else:
            assert group is None
        if isinstance(msg, DiscoverMsg):
            entry = node.path.get(msg.origin)  # written by an earlier delivery
            assert entry is None or (type(entry) is PathEntry and len(entry) == 2)

    observe_deliveries(monkeypatch, DELIVERY_CASES[case], check)
    assert seen["on_discover"] and seen["on_update"]


class _EnqueuedLog(deque):
    """A control queue that counts the (destinations, group) pairs of the
    entries enqueued on it: one control message each."""

    def __init__(self):
        super().__init__()
        self.enqueued = 0

    def extend(self, entries):
        entries = list(entries)
        self.enqueued += sum(len(plan) for plan, _msg in entries)
        super().extend(entries)


@pytest.mark.parametrize("case", sorted(DELIVERY_CASES))
def test_every_round_drains_what_it_enqueues_and_counts_it(case, monkeypatch):
    # control messages are counted as the drains pop them, which is the count
    # enqueued only because no round ends with an entry still queued
    init, step_round, repair_cycle = World.__init__, World.step_round, World.run_repair_cycle
    checked = []

    def init_logged(world, *args, **kwargs):
        init(world, *args, **kwargs)
        world._ctrl = _EnqueuedLog()

    def step_checked(world):
        world._ctrl.enqueued = 0
        row = step_round(world)
        assert not world._ctrl
        heartbeats = len(world.alive)  # the alive peers of the round just closed
        assert row.control_messages == world._ctrl.enqueued + heartbeats
        checked.append(row.round)
        return row

    def cycle_checked(world):
        sent, world._ctrl.enqueued = world._ctrl_sent, 0
        out = repair_cycle(world)
        assert not world._ctrl
        assert world._ctrl_sent - sent == world._ctrl.enqueued > 0
        checked.append("cycle")
        return out

    monkeypatch.setattr(World, "__init__", init_logged)
    monkeypatch.setattr(World, "step_round", step_checked)
    monkeypatch.setattr(World, "run_repair_cycle", cycle_checked)
    DELIVERY_CASES[case]()
    assert checked


# --- protocol state only for Bpd ----------------------------------------


@pytest.mark.parametrize(
    "strategy, protocol",
    [(AllToAll(), False), (Gossip(3), False), (Unmodified(), False), (Bpd(3), True)],
    ids=["alltoall", "gossip", "unmodified", "bpd"],
)
def test_only_a_bpd_world_holds_nodes_and_a_reference_cycle(strategy, protocol):
    w = mesh_world(rounds=5, strategy=strategy)
    w.run()
    assert bool(w.nodes) is protocol
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del w
        gc.collect()
        # a Bpd world and its nodes refer to each other; any other world is
        # freed by reference counting and leaves nothing for the collector
        assert bool(gc.garbage) is protocol
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("strategy", [AllToAll(), Gossip(3), Unmodified()], ids=repr)
def test_repair_cycle_needs_a_bpd_strategy(strategy):
    w = mesh_world(rounds=0, strategy=strategy)
    with pytest.raises(ValueError, match="repair cycle needs a Bpd strategy"):
        w.run_repair_cycle()


@pytest.mark.parametrize(
    "given, exact", [(2.0, 2), (2.5, Fraction(5, 2)), (Fraction(6, 2), 3), (Fraction(7, 3), Fraction(7, 3))]
)
def test_bpd_world_holds_its_threshold_exactly(given, exact):
    w = mesh_world(rounds=0, strategy=Bpd(given))
    assert w.strategy.thresh == exact
    assert Bpd(given) == Bpd(exact)

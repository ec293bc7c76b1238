#!/usr/bin/env python3
"""Desk-scale measurement sweep over the four dissemination strategies.

Prints three tables for the canned 6-node/10-edge base topology:

  1. steady-state traffic and consensus quality per strategy (seed-averaged)
  2. mean dissemination efficiency after one and two mid-run crashes
  3. repair-delay distribution over a batch of random crash scenarios

Run from the repository root:

    python3 scripts/run_experiments.py [--seeds 20] [--rounds 300]
"""
import argparse
import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from bpdsim.bpd import default_threshold
from bpdsim.graph import all_pairs_costs, random_sc_digraph
from bpdsim.simnet import FaultEvent, MembershipEvent, SimConfig, World
from bpdsim.toplink import build_graph, parse_toplink_file
from bpdsim.workloads import AllToAll, Bpd, Gossip, Unmodified

BASE_TL = Path(__file__).parents[1] / "scenarios" / "base10.tl"

STRATEGIES = [
    ("all-to-all", AllToAll()),
    ("gossip(3)", Gossip(3)),
    ("unmodified", Unmodified()),
    ("bpd", Bpd(3, repair_period_rounds=50)),
]


def run_world(graph, strategy, seed, rounds, faults=()):
    cfg = SimConfig(n_rounds=rounds, seed=seed)
    w = World(graph, strategy, cfg, faults=list(faults))
    w.run()
    return w


def strategy_table(graph, seeds, rounds):
    print(f"strategy comparison, {seeds} seeds x {rounds} rounds")
    print(f"{'strategy':<12} {'msgs/rd':>8} {'kB/s/node':>10} {'dev %':>8} {'to-band':>8}")
    for name, strategy in STRATEGIES:
        msgs, kbps, devs, bands = [], [], [], []
        for seed in range(seeds):
            s = run_world(graph, strategy, seed, rounds).summary()
            msgs.append(s.messages_per_round)
            kbps.append(s.bandwidth_kbps)
            devs.append(s.deviation_pct)
            band = s.iterations_to_band
            bands.append(rounds if band is None else band)
        print(
            f"{name:<12} {statistics.mean(msgs):>8.1f} {statistics.mean(kbps):>10.2f}"
            f" {statistics.mean(devs):>8.3f} {statistics.mean(bands):>8.1f}"
        )
    print()


def fault_table(graph, rounds):
    print(f"mean dissemination efficiency at round {rounds} (seed 7, crashes at 100/150)")
    cases = [
        ("bpd, 1 crash", Bpd(3, repair_period_rounds=50), [FaultEvent(100, "crash", "c")]),
        ("bpd, 2 crashes", Bpd(3, repair_period_rounds=50),
         [FaultEvent(100, "crash", "c"), FaultEvent(150, "crash", "e")]),
        ("unmodified, 1 crash", Unmodified(), [FaultEvent(100, "crash", "c")]),
    ]
    for name, strategy, faults in cases:
        w = run_world(graph, strategy, 7, rounds, faults)
        print(f"  {name:<22} DE = {w.stats[-1].mean_de:.4f}")
    print()


def repair_delays(log):
    """Per repair join, its round minus the round of the latest crash before
    it (0 if none): how long the overlay took to mend."""
    delays, last_crash = [], 0
    for r in log:
        if isinstance(r, FaultEvent) and r.action == "crash":
            last_crash = r.round
        elif isinstance(r, MembershipEvent) and r.reason.startswith("repair:"):
            delays.append(r.round - last_crash)
    return delays


def repair_table(cases):
    print(f"repair batch: {cases} random 6-10 node overlays, one crash each")
    delays, good = [], 0
    for idx in range(cases):
        n = 6 + idx % 5
        graph = random_sc_digraph(n, idx)
        victim = random.Random(f"faults:{idx}").choice(sorted(graph.nodes))
        w = run_world(
            graph, Bpd(default_threshold(n), repair_period_rounds=1000),
            idx, 60, [FaultEvent(30, "crash", victim)],
        )
        w.run_repair_cycle()
        eff = w.alive_effective_graph()
        # connected exactly when every node's row holds every node
        bounded = all(
            len(row) == eff.n_nodes and all(c <= default_threshold(n) for c in row.values())
            for row in all_pairs_costs(eff).values()
        )
        good += bounded
        delays.extend(repair_delays(w.log))
    print(f"  connected and bounded after repair: {good}/{cases}")
    if delays:
        print(
            f"  repair delay rounds: mean {statistics.mean(delays):.2f},"
            f" max {max(delays)}, n={len(delays)}"
        )
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--rounds", type=int, default=300)
    ap.add_argument("--repair-cases", type=int, default=50)
    args = ap.parse_args()

    graph = build_graph(parse_toplink_file(BASE_TL))
    strategy_table(graph, args.seeds, args.rounds)
    fault_table(graph, 260)
    repair_table(args.repair_cases)


if __name__ == "__main__":
    main()

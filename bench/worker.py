"""Run one scenario of a workload in this process; print one JSON line.

    python3 bench/worker.py --workload W --seed N --instance J --dir D [--setups K] [--trace]

The scenario's files must already be in D. The scenario is driven through
the simulator's public entry points only: `cli.parse_scenario` ->
`cli.build_world` -> `World.step_round` per round ->
`cli.write_{rounds,nodes,summary}_csv`. Its set-up is repeated K times and
each is timed; the last world is the one that runs. After each round that ran
a repair cycle the overlay is checked, outside the timed region. A fixed
calibration kernel is timed before the scenario and again after its world
is released. --trace runs the scenario under a `Tracer`, whose spans must
nest and whose per-layer self times must add up to the round loop. Needs
`src` on the import path.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from bpdsim import cli
from bpdsim.graph import all_pairs_costs, is_strongly_connected
from bpdsim.groups import effective_graph

from scenarios import WORKLOADS, instances
from tracer import LOOP_SELF_METRICS, Tracer, layer_metrics

CSV_FILES = ("rounds.csv", "nodes.csv", "summary.csv")


def kernel_seconds() -> float:
    """Seconds a fixed pure-Python kernel takes here, independent of the simulator.

    The host's speed drifts by tens of percent over minutes. The kernel,
    timed just before a scenario and just after its world is released,
    measures the speed that scenario ran at. The collector is off while it
    runs, so objects left behind do not slow it.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict[str, int] = {}
        seen: set[int] = set()
        acc = Fraction(0)
        for i in range(120_000):
            key = f"n{i % 500}"
            counts[key] = counts.get(key, 0) + 1
            seen.add(i * 7 % 1000)
            if i % 50 == 0:
                acc += Fraction(i % 7 + 1, i % 5 + 1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def check_overlay(world, thresh) -> str | None:
    """None when the alive overlay is strongly connected within thresh."""
    eff = effective_graph(world.assignment, set(world.alive))
    if not is_strongly_connected(eff):
        return f"round {world.round}: overlay not strongly connected"
    worst = max(c for row in all_pairs_costs(eff).values() for c in row.values())
    if worst > thresh:
        return f"round {world.round}: worst pair cost {worst} > thresh {thresh}"
    return None


def read_outputs(out: Path) -> dict:
    """Digests of the CSVs and the totals the metrics need from them."""
    digests = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in CSV_FILES}
    with (out / "rounds.csv").open(newline="") as fh:
        rounds = list(csv.DictReader(fh))
    with (out / "nodes.csv").open(newline="") as fh:
        nodes_rows = sum(1 for _ in fh) - 1
    with (out / "summary.csv").open(newline="") as fh:
        summary = next(csv.DictReader(fh))
    edges_before = int(summary["edges_initial"])
    return {
        "digests": digests,
        "app_messages": sum(int(r["messages"]) for r in rounds),
        "ctrl_messages": sum(int(r["control_messages"]) for r in rounds),
        "nodes_rows": nodes_rows,
        "edges_before": edges_before,
        "edges_after": edges_before + int(summary["edges_added"]),
    }


def run_scenario(directory: Path, inputs, setups: int, traced: bool) -> dict:
    """Set up, run and write one scenario; return its timings, outputs and checks."""
    scn = directory / "scenario.scn"
    out = directory / ("out-traced" if traced else "out")
    out.mkdir(parents=True, exist_ok=True)
    clock = time.perf_counter
    tracer = Tracer() if traced else None
    problems = []
    setup_s = []
    loop_s = 0.0
    with tracer or contextlib.nullcontext():
        for _ in range(setups):
            t0 = clock()
            world = cli.build_world(cli.parse_scenario(scn), scn.parent)
            setup_s.append(clock() - t0)

        for rnd in range(1, world.cfg.n_rounds + 1):
            t0 = clock()
            world.step_round()
            loop_s += clock() - t0
            if rnd in inputs.cycle_rounds:
                problem = check_overlay(world, inputs.thresh)
                if problem:
                    problems.append(problem)

        t0 = clock()
        cli.write_rounds_csv(out / "rounds.csv", world)
        cli.write_nodes_csv(out / "nodes.csv", world)
        cli.write_summary_csv(out / "summary.csv", world)
        csv_s = clock() - t0

    outputs = read_outputs(out)
    result = {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "wall_s": setup_s[-1] + loop_s + csv_s,
        "events": outputs["app_messages"] + outputs["ctrl_messages"],
        "digests": outputs["digests"],
        "problems": problems,
    }
    if tracer is not None:
        layers = layer_metrics(tracer.summary(), tracer.counts, outputs)
        problems += tracer.nesting_problems()
        covered = sum(layers[name] for name in LOOP_SELF_METRICS)
        # the wrapper's own bookkeeping around each round sits outside the spans
        if abs(covered - loop_s) > 0.01 * loop_s:
            problems.append(
                f"per-layer self times sum to {covered:.6f} s, round loop took {loop_s:.6f} s"
            )
        result["layers"] = layers
        tracer.dump(out)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--instance", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--setups", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    inputs = instances(args.workload, args.seed)[args.instance]
    kernel_s = kernel_seconds()
    result = run_scenario(args.dir, inputs, args.setups, args.trace)
    gc.collect()
    result["kernel_s"] = (kernel_s + kernel_seconds()) / 2
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

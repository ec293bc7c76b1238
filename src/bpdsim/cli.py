"""Command line front end.

Three subcommands:

    bpdsim validate model.tl       parse a topology file; print canonical form
    bpdsim run scenario.scn        simulate a scenario; write CSV measurements
    bpdsim bpd-trace model.tl      run one overlay repair cycle and show it

Exit codes: 0 on success, 1 for any input problem (bad file, bad scenario,
unconnectable topology), 2 when a run finishes but a runtime property was
violated (the overlay lost strong connectivity or exceeded its path bound),
and 2 when a `run` or `bpd-trace` is stopped because one round's control
cascade ran past the simulator's delivery cap; that prints one `error:` line
naming the cap and writes no CSVs.
"""
from __future__ import annotations

import argparse
import csv
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import metrics
from .bpd import BpdConfig, default_threshold
from .graph import all_pairs_costs, is_strongly_connected
from .groups import form_groups
from .simnet import CascadeError, FaultError, FaultEvent, SimConfig, UnknownNodeError, World
from .toplink import (
    EmptyTopologyError,
    NotConnectableError,
    TopLinkError,
    build_graph,
    export_manifest,
    parse_toplink_file,
    pretty_print,
)
from .workloads import Bpd, parse_strategy, true_average

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RUNTIME = 2


class ScenarioError(ValueError):
    pass


_FAULT_KEY_RE = re.compile(r"^faults\.([0-9]+)$")


class _Key(NamedTuple):
    convert: Callable[[str], object]
    target: str  # "sim": SimConfig, "bpd": BpdConfig, "gossip": Gossip, "cli": this module
    field: str
    default: object = None  # only where no dataclass field holds one


# Every scenario key but the faults.N family. An absent key takes its row's
# default, or else its dataclass field's; a callable default is a function of
# the peer count.
_KEYS = {
    "topology": _Key(str, "cli", "topology"),
    "strategy": _Key(str, "cli", "strategy", "bpd"),
    "gossip.fanout": _Key(int, "gossip", "fanout"),
    "thresh": _Key(Fraction, "bpd", "thresh", default_threshold),
    "rounds": _Key(int, "sim", "n_rounds", 300),
    "seed": _Key(int, "sim", "seed"),
    "eps": _Key(float, "sim", "eps"),
    "payload.bytes": _Key(int, "sim", "payload_bytes"),
    "control.bytes": _Key(int, "sim", "control_bytes"),
    "round.ms": _Key(float, "sim", "round_period_ms"),
    "detection.rounds": _Key(int, "sim", "detection_rounds"),
    "de.window.rounds": _Key(int, "sim", "de_window_rounds"),
    "repair.period.rounds": _Key(int, "bpd", "repair_period_rounds"),
    "reply.timeout.rounds": _Key(int, "bpd", "reply_timeout_rounds"),
    "hop.delay.ms": _Key(float, "sim", "per_hop_delay_ms"),
    "output.dir": _Key(str, "cli", "output.dir", "out"),
    "trace.file": _Key(str, "cli", "trace.file"),
}

_EXPECTED = {int: "an integer", float: "a number", Fraction: "a rational"}


def parse_scenario(path: Path) -> dict[str, str]:
    """Read a flat `key = value` scenario file ('#' starts a comment)."""
    data: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise ScenarioError(f"line {lineno}: expected key = value")
        if key in data:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        if key not in _KEYS and not _FAULT_KEY_RE.match(key):
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        data[key] = value
    if "topology" not in data:
        raise ScenarioError("missing required key 'topology'")
    return data


def _parse_faults(data: dict) -> list[FaultEvent]:
    entries = []
    for key, value in data.items():
        m = _FAULT_KEY_RE.match(key)
        if not m:
            continue
        parts = value.split()
        if len(parts) != 3:
            raise ScenarioError(f"{key}: expected '<round> crash|recover <node>'")
        try:
            rnd = int(parts[0])
        except ValueError:
            raise ScenarioError(f"{key}: bad round {parts[0]!r}") from None
        if rnd < 1:
            raise ScenarioError(f"{key}: round must be >= 1")
        if parts[1] not in ("crash", "recover"):
            raise ScenarioError(f"{key}: action must be crash or recover")
        entries.append((rnd, int(m.group(1)), parts[1], parts[2]))
    entries.sort(key=lambda e: (e[0], e[1]))
    return [FaultEvent(rnd, action, node) for rnd, _, action, node in entries]


def build_world(data: dict[str, str], base_dir: Path) -> World:
    conf: dict[str, dict] = {"cli": {}, "sim": {}, "bpd": {}, "gossip": {}}
    for key, (convert, target, field, default) in _KEYS.items():
        if key in data:
            try:
                conf[target][field] = convert(data[key])
            except (ValueError, ZeroDivisionError):
                raise ScenarioError(
                    f"{key}: expected {_EXPECTED[convert]}, got {data[key]!r}"
                ) from None
        elif default is not None:
            conf[target][field] = default
    cfg = SimConfig(**conf["sim"])
    graph = build_graph(parse_toplink_file(base_dir / conf["cli"]["topology"]), seed=cfg.seed)
    strategy = parse_strategy(conf["cli"]["strategy"], **conf["gossip"])
    bpd_cfg = None
    if isinstance(strategy, Bpd):
        if callable(conf["bpd"]["thresh"]):
            conf["bpd"]["thresh"] = conf["bpd"]["thresh"](graph.n_nodes)
        bpd_cfg = BpdConfig(**conf["bpd"])
    faults = _parse_faults(data)
    return World(graph, strategy, cfg, bpd_cfg=bpd_cfg, faults=faults)


# --- CSV output ------------------------------------------------------------


def _num(v) -> str:
    return str(int(v)) if isinstance(v, int) else str(float(v))


def write_rounds_csv(path: Path, world: World) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["round", "messages", "control_messages", "bytes", "mean_de", "min_de", "max_x", "min_x"]
        )
        for s in world.stats:
            w.writerow(
                [
                    s.round,
                    s.messages,
                    s.control_messages,
                    s.bytes,
                    _num(s.mean_de),
                    _num(s.min_de),
                    _num(s.max_x),
                    _num(s.min_x),
                ]
            )


def write_nodes_csv(path: Path, world: World) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "node", "x", "de"])
        for i, (xs, des) in enumerate(zip(world.x_trace, world.de_trace), 1):
            for n in sorted(xs):
                w.writerow([i, n, _num(xs[n]), _num(des[n])])


def write_summary_csv(path: Path, world: World) -> None:
    optimum = true_average(world.x0)
    if world.x_trace:
        dev = metrics.deviation_pct(world.x_trace[-1], optimum)
        band = metrics.iterations_to_band(world.x_trace, optimum)
        msgs = world.stats[-1].messages
        kbps = metrics.bandwidth_kbps(
            sum(s.bytes for s in world.stats),
            len(world.stats),
            world.cfg.round_period_ms,
            len(world.roster),
        )
    else:
        dev = metrics.deviation_pct(world.x0, optimum)
        band, msgs, kbps = None, 0, 0.0
    edges_final = world.effective_edge_count()
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "deviation_pct",
                "iterations_to_band",
                "messages_per_round",
                "bandwidth_kbps",
                "edges_initial",
                "edges_added",
            ]
        )
        w.writerow(
            [
                _num(dev),
                "" if band is None else band,
                msgs,
                _num(kbps),
                world.edges_initial,
                edges_final - world.edges_initial,
            ]
        )


# --- subcommands -----------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        spec = parse_toplink_file(Path(args.file))
        if args.manifest:
            graph = build_graph(spec, seed=args.seed)
            out = export_manifest(form_groups(graph), spec)
        else:
            out = pretty_print(spec)
    except (TopLinkError, EmptyTopologyError, NotConnectableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return EXIT_OK


def cmd_run(args) -> int:
    scn_path = Path(args.scenario)
    try:
        data = parse_scenario(scn_path)
    except (ScenarioError, OSError) as exc:
        print(f"error: {scn_path}: {exc}", file=sys.stderr)
        return EXIT_INPUT

    out_dir = scn_path.parent / data.get("output.dir", _KEYS["output.dir"].default)
    if args.out:
        out_dir = Path(args.out)
    trace_fh = None
    try:
        world = build_world(data, scn_path.parent)
        # opened only once the scenario is known good, so a rejected one
        # leaves no file behind
        if "trace.file" in data:
            out_dir.mkdir(parents=True, exist_ok=True)
            trace_fh = (out_dir / data["trace.file"]).open("w")
            world.trace_fn = lambda line: trace_fh.write(line + "\n")
        world.run()
    except (
        ScenarioError,
        TopLinkError,
        EmptyTopologyError,
        NotConnectableError,
        FaultError,
        UnknownNodeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CascadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        if trace_fh is not None:
            trace_fh.close()

    out_dir.mkdir(parents=True, exist_ok=True)
    write_rounds_csv(out_dir / "rounds.csv", world)
    write_nodes_csv(out_dir / "nodes.csv", world)
    write_summary_csv(out_dir / "summary.csv", world)
    print(f"wrote {out_dir}/rounds.csv, nodes.csv, summary.csv")
    if world.not_connected_rounds:
        rounds = ", ".join(str(r) for r in world.not_connected_rounds[:10])
        print(f"error: overlay not strongly connected after repair (rounds {rounds})", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_bpd_trace(args) -> int:
    try:
        spec = parse_toplink_file(Path(args.file))
        graph = build_graph(spec, seed=args.seed)
        thresh = Fraction(args.thresh) if args.thresh else default_threshold(graph.n_nodes)
        cfg = SimConfig(n_rounds=0, seed=args.seed)
        world = World(graph, Bpd(), cfg, bpd_cfg=BpdConfig(thresh=thresh))
        world.run_repair_cycle()
    except (
        TopLinkError,
        EmptyTopologyError,
        NotConnectableError,
        ValueError,
        ZeroDivisionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CascadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(f"peers={graph.n_nodes} edges={graph.n_edges} thresh={thresh}")
    for n in sorted(world.nodes):
        node = world.nodes[n]
        cells = " ".join(
            f"{dst}={entry.depth}({entry.via_group})"
            for dst, entry in sorted(node.path.items())
        )
        print(f"table {n}: {cells}")
    if world.events:
        for ev in world.events:
            print(f"join {ev.group} {ev.node} {ev.role}")
    else:
        print("no updates")
    eff = world.alive_effective_graph()
    print(f"edges: {world.edges_initial} -> {eff.n_edges}")
    dists = all_pairs_costs(eff)
    for u in sorted(eff.nodes):
        row = " ".join(f"{v}={dists[u].get(v, 'inf')}" for v in sorted(eff.nodes) if v != u)
        print(f"dist {u}: {row}")

    connected = is_strongly_connected(eff)
    bounded = connected and all(
        cost <= thresh for costs in dists.values() for cost in costs.values()
    )
    print(f"connected: {'yes' if connected else 'no'}")
    print(f"bounded: {'yes' if bounded else 'no'}")
    return EXIT_OK if (connected and bounded) else EXIT_RUNTIME


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="bpdsim",
        description="Round-based simulator for bounded-path overlay dissemination.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a topology file and print its canonical form")
    p.add_argument("file")
    p.add_argument("--manifest", action="store_true", help="print the group manifest instead")
    p.add_argument("--seed", type=int, default=0, help="seed for generated topologies")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="simulate a scenario and write CSV measurements")
    p.add_argument("scenario")
    p.add_argument("-o", "--out", help="output directory (overrides the scenario)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bpd-trace", help="run one repair cycle and print tables and joins")
    p.add_argument("file")
    p.add_argument("--thresh", help="path cost bound (default: ceil((N-1)/2))")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bpd_trace)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Three subcommands:

    bpdsim validate model.tl       check a topology file; print canonical form
    bpdsim run scenario.scn        simulate a scenario; write CSV measurements
    bpdsim bpd-trace model.tl      run one overlay repair cycle and show it

Exit codes: 0 on success; 1 for any input problem (bad file, bad scenario,
unconnectable topology) and for a failure to write output; 2 when a command
finishes but the property it checks does not hold: `run` checks that the
overlay is strongly connected after each repair cycle (a path bound is not
checked during a run), and `bpd-trace` that the overlay after its one cycle
is connected and bounded; and 2 when a `run` or `bpd-trace` is stopped
because one control drain (a repair cycle's discovery and update drains count
as one) ran past the delivery cap, which writes no CSVs. Every failure that
stops a command is caught in one place, `main`, and printed as one `error:` line.
"""
from __future__ import annotations

import argparse
import re
import sys
from collections import defaultdict
from collections.abc import Iterable, Sequence
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from .bpd import default_threshold
from .graph import NodeId, all_pairs_costs
from .groups import form_groups
from .simnet import (
    CascadeError, CycleComplete, FaultEvent, MembershipEvent, RoundStats, SimConfig, Summary,
    UnknownNodeError, World,
)
from .toplink import (
    NotConnectableError,
    TopLinkError,
    build_graph,
    export_manifest,
    parse_toplink_file,
    pretty_print,
)
from .workloads import Bpd, Gossip, strategy_class

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RUNTIME = 2


class ScenarioError(ValueError):
    pass


_FAULT_KEY_RE = re.compile(r"^faults\.([0-9]+)$")


def _ascii(convert: Callable[[str], object]) -> Callable[[str], object]:
    """`convert` on ASCII text without `_` only: Python's `int`, `float` and
    `Fraction` also take any Unicode decimal digit and `_` separators."""
    def checked(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(f"Invalid literal for {convert.__name__}: {text!r}")
        return convert(text)
    checked.__name__ = convert.__name__  # argparse prints it
    return checked


_int, _float, _fraction = map(_ascii, (int, float, Fraction))


class _Key(NamedTuple):
    convert: Callable[[str], object]
    target: object  # SimConfig, a strategy class, or "cli" for this module
    field: str
    default: object = None  # only where no dataclass field holds one


# Every scenario key but the faults.N family. An absent key takes its row's
# default, or else its dataclass field's; a callable default is a function of
# the peer count. A row that targets a strategy class is read only when the
# scenario runs that strategy.
_KEYS = {
    "topology": _Key(str, "cli", "topology"),
    "strategy": _Key(str, "cli", "strategy", "bpd"),
    "gossip.fanout": _Key(_int, Gossip, "fanout"),
    "thresh": _Key(_fraction, Bpd, "thresh", default_threshold),
    "rounds": _Key(_int, SimConfig, "n_rounds", 300),
    "seed": _Key(_int, SimConfig, "seed"),
    "eps": _Key(_float, SimConfig, "eps"),
    "payload.bytes": _Key(_int, SimConfig, "payload_bytes"),
    "control.bytes": _Key(_int, SimConfig, "control_bytes"),
    "round.ms": _Key(_float, SimConfig, "round_period_ms"),
    "detection.rounds": _Key(_int, SimConfig, "detection_rounds"),
    "de.window.rounds": _Key(_int, SimConfig, "de_window_rounds"),
    "repair.period.rounds": _Key(_int, Bpd, "repair_period_rounds"),
    "reply.timeout.rounds": _Key(_int, Bpd, "reply_timeout_rounds"),
    "output.dir": _Key(str, "cli", "output.dir", "out"),
    "trace.file": _Key(str, "cli", "trace.file"),
}

_EXPECTED = {_int: "an integer", _float: "a number", _fraction: "a rational"}


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


def _parse_faults(data: dict, peers: tuple[NodeId, ...], last: int) -> list[FaultEvent]:
    """The faults.N entries, sorted by round then N; a round past `last`,
    the run's last round, would never fire, so it is an error."""
    entries = []
    for key, value in data.items():
        m = _FAULT_KEY_RE.match(key)
        if not m:
            continue
        parts = value.split()
        if len(parts) != 3:
            raise ScenarioError(f"{key}: expected '<round> crash|recover <node>'")
        try:
            rnd = _int(parts[0])
        except ValueError:
            raise ScenarioError(f"{key}: bad round {parts[0]!r}") from None
        if rnd < 1:
            raise ScenarioError(f"{key}: round must be >= 1")
        if rnd > last:
            raise ScenarioError(f"{key}: round {rnd} is after the last round ({last})")
        if parts[1] not in ("crash", "recover"):
            raise ScenarioError(f"{key}: action must be crash or recover")
        if parts[2] not in peers:
            raise ScenarioError(f"{key}: {UnknownNodeError(parts[2])}")
        entries.append((rnd, int(m.group(1)), parts[1], parts[2]))
    entries.sort(key=lambda e: (e[0], e[1]))
    return [FaultEvent(rnd, action, node) for rnd, _, action, node in entries]


def build_world(data: dict[str, str], base_dir: Path) -> World:
    conf: dict[object, dict] = defaultdict(dict)
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
    cfg = SimConfig(**conf[SimConfig])
    graph = build_graph(parse_toplink_file(base_dir / conf["cli"]["topology"]), seed=cfg.seed)
    cls = strategy_class(conf["cli"]["strategy"])
    strategy = cls(**{f: v(graph.n_nodes) if callable(v) else v for f, v in conf[cls].items()})
    faults = _parse_faults(data, graph.nodes, cfg.n_rounds)
    return World(graph, strategy, cfg, faults=faults)


# --- CSV output ------------------------------------------------------------
# Every cell prints by one rule, the text `csv.writer` gives it with the
# default dialect: None is an empty cell, a float its `repr`, anything else
# its `str`, and a text holding a comma, a quote or a line break is quoted
# with its quotes doubled. So every figure is printed the same way on every
# run. Rows end in "\r\n"; every table has more than one column, so no row is
# a lone empty cell, which the csv module would quote.

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)  # never a comma, a quote or a line break
    if value is None:
        return ""
    text = str(value)
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _line(row: Iterable) -> str:
    return ",".join(map(_cell, row)) + "\r\n"


class _FloatTexts(dict):
    """The `repr` of each distinct float, made once. A zero is never kept:
    0.0 and -0.0 are one key but print differently. A nan never matches a
    key, so each one is printed anew, as `nan`."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:
            self[value] = text
        return text


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with path.open("w", newline="") as fh:
        fh.write(_line(header))
        fh.writelines(map(_line, rows))


def write_rounds_csv(path: Path, world: World) -> None:
    _write_csv(path, RoundStats._fields, world.stats)


def write_nodes_csv(path: Path, world: World) -> None:
    """One row per node alive in a round, in node order, written one round at
    a time. A round's x and DE columns (`simnet.RoundColumn`) share its alive
    peers, in roster order, which is sorted, and hold floats. The node names
    are rendered once per alive roster view, which every round between two
    liveness changes shares, and each distinct figure once per round
    (`_FloatTexts`): a run-long memo would hold a text per distinct value of
    the whole run and raise the peak memory of the write."""
    shared = None
    with path.open("w", newline="") as fh:
        fh.write(_line(("round", "node", "x", "de")))
        for i, (xs, des) in enumerate(zip(world.x_trace, world.de_trace), 1):
            if xs.position is not shared:
                shared = xs.position
                names = [_cell(n) for n in shared]
            texts = _FloatTexts()
            rows = [
                f"{i},{name},{texts[x]},{texts[de]}\r\n"
                for name, x, de in zip(names, xs.floats, des.floats)
            ]
            fh.write("".join(rows))


def write_summary_csv(path: Path, world: World) -> None:
    _write_csv(path, Summary._fields, [world.summary()])


# --- subcommands -----------------------------------------------------------


def cmd_validate(args) -> int:
    spec = parse_toplink_file(Path(args.file))
    if args.manifest:
        graph = build_graph(spec, seed=args.seed)
        out = export_manifest(form_groups(graph), spec)
    else:
        if spec.preset == "custom":
            # only explicit links give a source several weight classes, so
            # only they can give two peers' groups one id
            form_groups(build_graph(spec))
        out = pretty_print(spec)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return EXIT_OK


def cmd_run(args) -> int:
    scn_path = Path(args.scenario)
    try:
        data = parse_scenario(scn_path)
    except (ScenarioError, OSError) as exc:
        # name the file: its errors carry only a line number
        raise ScenarioError(f"{scn_path}: {exc}") from None

    out_dir = scn_path.parent / data.get("output.dir", _KEYS["output.dir"].default)
    if args.out:
        out_dir = Path(args.out)
    world = build_world(data, scn_path.parent)
    # opened only once the scenario is known good, so a rejected one leaves no
    # file behind
    trace_fh = None
    try:
        if "trace.file" in data:
            out_dir.mkdir(parents=True, exist_ok=True)
            trace_fh = (out_dir / data["trace.file"]).open("w")
            world.trace_fn = lambda line: trace_fh.write(line + "\n")
        world.run()
    finally:
        if trace_fh is not None:
            trace_fh.close()

    out_dir.mkdir(parents=True, exist_ok=True)
    write_rounds_csv(out_dir / "rounds.csv", world)
    write_nodes_csv(out_dir / "nodes.csv", world)
    write_summary_csv(out_dir / "summary.csv", world)
    print(f"wrote {out_dir}/rounds.csv, nodes.csv, summary.csv")
    split = [r.round for r in world.log if isinstance(r, CycleComplete) and not r.connected]
    if split:
        rounds = ", ".join(str(r) for r in split[:10])
        print(f"error: overlay not strongly connected after repair (rounds {rounds})", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_bpd_trace(args) -> int:
    spec = parse_toplink_file(Path(args.file))
    graph = build_graph(spec, seed=args.seed)
    thresh = _fraction(args.thresh) if args.thresh else default_threshold(graph.n_nodes)
    cfg = SimConfig(n_rounds=0, seed=args.seed)
    world = World(graph, Bpd(thresh), cfg)
    world.run_repair_cycle()

    print(f"peers={graph.n_nodes} edges={graph.n_edges} thresh={thresh}")
    for n in sorted(world.nodes):
        node = world.nodes[n]
        cells = " ".join(
            f"{dst}={world.assignment.exact(entry.depth)}({entry.via_group})"
            for dst, entry in sorted(node.path.items())
        )
        print(f"table {n}: {cells}")
    joins = [r for r in world.log if isinstance(r, MembershipEvent) and r.kind == "MemberJoined"]
    for ev in joins:
        print(f"join {ev.group} {ev.node} {ev.role}")
    if not joins:
        print("no updates")
    eff = world.alive_effective_graph()
    print(f"edges: {world.edges_initial} -> {eff.n_edges}")
    dists = all_pairs_costs(eff)
    for u in sorted(eff.nodes):
        row = " ".join(f"{v}={dists[u].get(v, 'inf')}" for v in sorted(eff.nodes) if v != u)
        print(f"dist {u}: {row}")

    # strongly connected exactly when every node's row holds every node
    connected = all(len(costs) == eff.n_nodes for costs in dists.values())
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
    p.add_argument("--seed", type=_int, default=0, help="seed for generated topologies")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="simulate a scenario and write CSV measurements")
    p.add_argument("scenario")
    p.add_argument("-o", "--out", help="output directory (overrides the scenario)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bpd-trace", help="run one repair cycle and print tables and joins")
    p.add_argument("file")
    p.add_argument("--thresh", help="path cost bound (default: ceil((N-1)/2))")
    p.add_argument("--seed", type=_int, default=0)
    p.set_defaults(fn=cmd_bpd_trace)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except CascadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (
        TopLinkError,
        NotConnectableError,
        UnknownNodeError,
        ValueError,  # ScenarioError, FaultError, EmptyTopologyError among them
        ZeroDivisionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

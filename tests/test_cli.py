import csv
import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from bpdsim import cli, simnet, toplink
from bpdsim.bpd import default_threshold
from bpdsim.simnet import (
    CycleComplete, FaultEvent, MembershipEvent, RoundColumn, RoundStats, SimConfig, Summary, World
)
from bpdsim.workloads import AllToAll, Bpd
from conftest import make_graph

DATA = Path(__file__).parent / "data" / "toplink"
SCENARIOS = Path(__file__).parents[1] / "scenarios"
# sha256 of each bundled scenario's CSVs and trace.file output; no test rewrites
# them, so any change to those bytes fails here until the file is regenerated
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_digests.json").read_text())

BASE10_TL = (Path(__file__).parents[1] / "scenarios" / "base10.tl").read_text()
README = Path(__file__).parents[1] / "README.md"

SCN_BPD = """\
# overlay run with one crash
topology = net.tl
strategy = bpd
thresh = 3
rounds = 40
seed = 11
repair.period.rounds = 10
faults.1 = 20 crash c
output.dir = out
"""


def run_cli(argv, capsys):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_scenario(tmp_path, scn_text=SCN_BPD, tl_text=BASE10_TL):
    (tmp_path / "net.tl").write_text(tl_text)
    scn = tmp_path / "case.scn"
    scn.write_text(scn_text)
    return scn


# --- validate ---------------------------------------------------------------


def test_validate_ok(capsys):
    code, out, err = run_cli(["validate", str(DATA / "valid" / "custom_weights.tl")], capsys)
    assert code == 0 and err == ""
    assert out.startswith("topology custom;")
    assert "weight 1/2" in out and "weight 7/3" in out


def test_validate_bad_file_reports_line(capsys):
    code, out, err = run_cli(["validate", str(DATA / "invalid" / "unknown_peer.tl")], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "line 5" in err


def test_validate_missing_file(capsys):
    code, _, err = run_cli(["validate", "no_such.tl"], capsys)
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("seed", range(5))
def test_random_1_that_finds_no_draw_names_the_ring(seed, tmp_path, capsys):
    # 12 peers: about 1 draw in 79,000 is one cycle through all of them
    names = ", ".join(f"p{i}" for i in range(12))
    tl = tmp_path / "r1.tl"
    tl.write_text(f"topology random(1);\nnodes {{ {names} }};\n")
    code, out, err = run_cli(["validate", "--manifest", str(tl), "--seed", str(seed)], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: no strongly connected draw within 1000 attempts; a random(1) draw is"
        " strongly connected only when it is one cycle through every peer, which is"
        " what topology ring builds"
    ]


def test_validate_manifest_deterministic(capsys):
    args = ["validate", "--manifest", str(DATA / "valid" / "random_k2.tl"), "--seed", "7"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "group g." in out1


# a's weight-1 class and a.0's only group would both be g.a.0
COLLIDING_TL = "topology custom;\nnodes { a, a.0, b };\nlinks { a -> b; a -> a.0 weight 2; a.0 -> a; b -> a; }\n"
COLLISION_ERROR = "error: group id 'g.a.0' made for both peer 'a' and peer 'a.0'\n"


@pytest.mark.parametrize(
    "command",
    [["validate"], ["validate", "--manifest"], ["bpd-trace"], ["run"]],
    ids=" ".join,
)
def test_group_id_collision_exits_1_with_one_error_line(command, tmp_path, capsys):
    tl = tmp_path / "net.tl"
    tl.write_text(COLLIDING_TL)
    target = tl
    if command == ["run"]:
        target = write_scenario(tmp_path, "topology = net.tl\nstrategy = all-to-all\nrounds = 2\n", COLLIDING_TL)
    code, out, err = run_cli([*command, str(target)], capsys)
    assert (code, out, err) == (1, "", COLLISION_ERROR)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"net.tl", target.name})


# --- scenario parsing ---------------------------------------------------------


def test_scenario_unknown_key(tmp_path, capsys):
    scn = write_scenario(tmp_path, "topology = net.tl\nbogus = 1\n")
    code, _, err = run_cli(["run", str(scn)], capsys)
    assert code == 1 and "line 2" in err and "bogus" in err


def test_scenario_hop_delay_key_is_unknown(tmp_path, capsys):
    # the per-hop latency estimate it configured no longer exists
    scn = write_scenario(tmp_path, "topology = net.tl\nhop.delay.ms = 0.6\n")
    code, out, err = run_cli(["run", str(scn)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {scn}: line 2: unknown key 'hop.delay.ms'\n"


def test_fault_on_unknown_peer_names_the_key(tmp_path, capsys):
    scn = write_scenario(tmp_path, "topology = net.tl\nrounds = 5\nfaults.1 = 2 crash zz\n")
    code, out, err = run_cli(["run", str(scn)], capsys)
    assert code == 1 and out == ""
    assert err == "error: faults.1: unknown peer 'zz'\n"


def test_fault_after_the_last_round_is_rejected(tmp_path, capsys):
    # a fault past `rounds` never fires, so the run would write CSVs in which
    # c never crashes
    scn = write_scenario(tmp_path, "topology = net.tl\nrounds = 10\nfaults.1 = 20 crash c\n")
    code, out, err = run_cli(["run", str(scn)], capsys)
    assert code == 1 and out == ""
    assert err == "error: faults.1: round 20 is after the last round (10)\n"
    assert not (tmp_path / "out").exists()
    # one at the last round fires; a library caller may still step a world
    # past its n_rounds, so World takes later rounds
    scn.write_text("topology = net.tl\nrounds = 10\nfaults.1 = 10 crash c\n")
    w = cli.build_world(cli.parse_scenario(scn), tmp_path)
    w.run()
    assert w.crashed_at == {"c": 10}
    late = [simnet.FaultEvent(5, "crash", "a")]
    w = World(make_graph([("a", "b"), ("b", "a")]), AllToAll(), SimConfig(n_rounds=1), late)
    for _ in range(5):
        w.step_round()
    assert w.crashed_at == {"a": 5}


def test_scenario_duplicate_key(tmp_path, capsys):
    scn = write_scenario(tmp_path, "topology = net.tl\ntopology = net.tl\n")
    code, _, err = run_cli(["run", str(scn)], capsys)
    assert code == 1 and "line 2" in err and "duplicate" in err


def test_scenario_missing_topology(tmp_path, capsys):
    scn = write_scenario(tmp_path, "strategy = bpd\n")
    code, _, err = run_cli(["run", str(scn)], capsys)
    assert code == 1 and "topology" in err


def test_scenario_bad_fault(tmp_path, capsys):
    scn = write_scenario(tmp_path, "topology = net.tl\nfaults.1 = 5 explode c\n")
    code, _, err = run_cli(["run", str(scn)], capsys)
    assert code == 1 and "crash or recover" in err


def test_scenario_bad_thresh(tmp_path, capsys):
    scn = write_scenario(tmp_path, "topology = net.tl\nstrategy = bpd\nthresh = wide\n")
    code, _, err = run_cli(["run", str(scn)], capsys)
    assert code == 1 and "thresh" in err


@pytest.mark.parametrize(
    "line, field",
    [
        ("control.bytes = -5", "control_bytes"),
        ("payload.bytes = -1", "payload_bytes"),
        ("de.window.rounds = -3", "de_window_rounds"),
        ("de.window.rounds = 0", "de_window_rounds"),
        ("round.ms = nan", "round_period_ms"),
        ("round.ms = inf", "round_period_ms"),
        ("round.ms = 0", "round_period_ms"),
        ("eps = nan", "eps"),
        ("eps = -1", "eps"),
        ("rounds = -1", "n_rounds"),
        ("detection.rounds = 0", "detection_rounds"),
        ("thresh = 0", "thresh"),
        ("repair.period.rounds = 0", "repair_period_rounds"),
        ("reply.timeout.rounds = 0", "reply_timeout_rounds"),
        ("strategy = gossip\ngossip.fanout = -2", "fanout"),
        # more than the five other peers of net.tl
        ("strategy = gossip\ngossip.fanout = 6", "fanout"),
    ],
)
def test_scenario_value_out_of_range(line, field, tmp_path, capsys):
    scn = write_scenario(tmp_path, f"topology = net.tl\n{line}\n")
    code, out, err = run_cli(["run", str(scn)], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and field in err
    assert not (tmp_path / "out").exists()


def test_scenario_of_only_a_topology_takes_every_default(tmp_path):
    scn = write_scenario(tmp_path, "topology = net.tl\n")
    world = cli.build_world(cli.parse_scenario(scn), tmp_path)
    assert world.cfg == SimConfig(n_rounds=300)
    assert world.strategy == Bpd(default_threshold(len(world.roster)))


def _readme_defaults() -> dict[str, str]:
    """Key -> default cell of the README's scenario table."""
    lines = README.read_text().split("| key | default | meaning |", 1)[1].splitlines()
    rows = {}
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        key, default = (cell.strip() for cell in line.split("|")[1:3])
        rows[key.strip("`")] = default
    return rows


def _code_default(key: str):
    row = cli._KEYS[key]
    if row.default is not None or row.target == "cli":
        return row.default
    return {f.name: f.default for f in dataclasses.fields(row.target)}[row.field]


def test_readme_scenario_table_matches_key_table():
    readme = _readme_defaults()
    assert set(readme) == set(cli._KEYS) | {"faults.N"}
    for key, cell in readme.items():
        code = None if key == "faults.N" else _code_default(key)
        if cell.startswith("`"):  # a literal string
            assert cell.strip("`") == code, key
            continue
        try:
            number = float(cell)
        except ValueError:  # prose, such as "required" or "2N"
            assert code is None or callable(code), key
        else:
            assert number == code and isinstance(code, (int, float)), key


def test_readme_figures_match_the_code():
    # the README states the cascade cap and the topology draw limit as
    # figures; changing either constant fails here until the README follows
    text = " ".join(README.read_text().split())
    cap = f"{simnet._CASCADE_CAP:,}"
    caps = re.findall(r"cap \(([\d,]+)\)", text) + re.findall(r"cap of ([\d,]+) deliveries", text)
    assert caps == [cap, cap]
    draws = re.findall(r"After (\d+) draws", text) + re.findall(r"within (\d+) attempts", text)
    assert draws == [str(toplink.MAX_BUILD_ATTEMPTS)] * 2


# --- run ---------------------------------------------------------------------


def test_run_writes_csvs(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    code, out, err = run_cli(["run", str(scn)], capsys)
    assert code == 0, err
    out_dir = tmp_path / "out"
    rounds = (out_dir / "rounds.csv").read_text().splitlines()
    assert rounds[0] == "round,messages,control_messages,bytes,mean_de,min_de,max_x,min_x"
    assert len(rounds) == 1 + 40
    nodes = (out_dir / "nodes.csv").read_text().splitlines()
    assert nodes[0] == "round,node,x,de"
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == (
        "deviation_pct,iterations_to_band,messages_per_round,"
        "bandwidth_kbps,edges_initial,edges_added"
    )
    assert len(summary) == 2


def test_gossip_sends_to_every_peer_left_when_fewer_than_fanout(tmp_path, capsys):
    scn = write_scenario(
        tmp_path,
        "topology = net.tl\nstrategy = gossip\ngossip.fanout = 3\nrounds = 10\n"
        "faults.1 = 2 crash a\nfaults.2 = 2 crash b\nfaults.3 = 2 crash c\n",
    )
    code, _, err = run_cli(["run", str(scn)], capsys)
    assert code == 0, err
    rows = (tmp_path / "out" / "rounds.csv").read_text().splitlines()[1:]
    assert len(rows) == 10 and (tmp_path / "out" / "summary.csv").exists()
    # the crashes are detected in round 3; from then on d, e and f each send
    # to the other two
    assert [int(row.split(",")[1]) for row in rows[2:]] == [6] * 8


@pytest.mark.parametrize("strategy", ["unmodified", "bpd"])
def test_run_ending_with_every_peer_down_leaves_deviation_empty(strategy, tmp_path, capsys):
    shutil.copy(SCENARIOS / "ring6.tl", tmp_path / "ring6.tl")
    crashes = "".join(f"faults.{i + 1} = 3 crash n{i}\n" for i in range(6))
    scn = tmp_path / "down.scn"
    scn.write_text(f"topology = ring6.tl\nstrategy = {strategy}\nrounds = 10\n{crashes}")
    code, _, err = run_cli(["run", str(scn), "--out", str(tmp_path / "out")], capsys)
    assert code == 0, err
    rows = (tmp_path / "out" / "rounds.csv").read_text().splitlines()[1:]
    assert len(rows) == 10 and (tmp_path / "out" / "nodes.csv").exists()
    header, row = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["deviation_pct"] == ""
    assert cells["iterations_to_band"] == ""


@pytest.mark.parametrize("strategy, edges", [("unmodified", ["6", "0"]), ("bpd", ["6", "12"])])
def test_edges_added_counts_joins_not_departures(strategy, edges, tmp_path, capsys):
    shutil.copy(SCENARIOS / "ring6.tl", tmp_path / "ring6.tl")
    crashes = "".join(f"faults.{i + 1} = 3 crash n{i}\n" for i in range(6))
    got = {}
    for name, faults in (("up", ""), ("down", crashes)):
        scn = tmp_path / f"{name}.scn"
        scn.write_text(f"topology = ring6.tl\nstrategy = {strategy}\nrounds = 10\n{faults}")
        code, _, err = run_cli(["run", str(scn), "--out", str(tmp_path / name)], capsys)
        assert code == 0, err
        row = (tmp_path / name / "summary.csv").read_text().splitlines()[1]
        got[name] = row.split(",")[-2:]
    # every peer down by round 4 leaves the edge cells as they are with none down
    assert got["down"] == got["up"] == edges


def test_gossip_scenario_adds_no_edges(tmp_path, capsys):
    # a gossip world never joins; its one unrecovered crash removes no edge
    code, _, err = run_cli(
        ["run", str(SCENARIOS / "gossip.scn"), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 0, err
    header, row = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["edges_initial"], cells["edges_added"]) == ("10", "0")


@pytest.mark.parametrize(
    "line, code",
    [("repair.period.rounds = 0", 0), ("thresh = x", 1)],
    ids=["out-of-range-ignored", "malformed-rejected"],
)
def test_another_strategys_key_is_converted_then_ignored(line, code, tmp_path, capsys):
    scn = write_scenario(tmp_path, f"topology = net.tl\nstrategy = gossip\nrounds = 3\n{line}\n")
    got, _, err = run_cli(["run", str(scn)], capsys)
    assert got == code, err
    assert (tmp_path / "out" / "rounds.csv").exists() == (code == 0)


def test_run_reruns_byte_identical(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    for out_name in ("o1", "o2"):
        code, _, _ = run_cli(["run", str(scn), "--out", str(tmp_path / out_name)], capsys)
        assert code == 0
    for name in ("rounds.csv", "nodes.csv", "summary.csv"):
        b1 = (tmp_path / "o1" / name).read_bytes()
        b2 = (tmp_path / "o2" / name).read_bytes()
        assert b1 == b2, name


def test_run_trace_file(tmp_path, capsys):
    scn = write_scenario(tmp_path, SCN_BPD + "trace.file = trace.log\n")
    code, _, _ = run_cli(["run", str(scn)], capsys)
    assert code == 0
    trace = (tmp_path / "out" / "trace.log").read_text()
    assert "round=" in trace and "join" in trace


def test_rejected_scenario_leaves_no_trace_file(tmp_path, capsys):
    scn = write_scenario(
        tmp_path, "topology = net.tl\neps = -1\ntrace.file = t.log\noutput.dir = tout\n"
    )
    code, out, err = run_cli(["run", str(scn)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "eps" in err
    assert not (tmp_path / "tout").exists()


def test_unopenable_trace_file_is_one_error_line(tmp_path, capsys):
    scn = write_scenario(tmp_path, SCN_BPD + "trace.file = nodir/t.log\n")
    code, out, err = run_cli(["run", str(scn)], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "t.log" in err
    assert not (tmp_path / "out" / "rounds.csv").exists()


@pytest.mark.parametrize(
    "scn_line, argv",
    [
        ("output.dir = blocker", []),  # names a file
        ("", ["-o", "blocker/x"]),  # a directory below a file
    ],
    ids=["output.dir", "-o"],
)
def test_unwritable_output_dir_is_one_error_line(scn_line, argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scn = write_scenario(tmp_path, f"topology = net.tl\nrounds = 3\n{scn_line}\n")
    (tmp_path / "blocker").write_text("")
    code, out, err = run_cli(["run", str(scn)] + argv, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "blocker" in err


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_matches_golden_digests(name, tmp_path, capsys):
    shutil.copy(SCENARIOS / "base10.tl", tmp_path / "base10.tl")
    text = (SCENARIOS / f"{name}.scn").read_text()
    golden = GOLDEN[name]
    for traced in (False, True):
        scn = tmp_path / f"{name}-{traced}.scn"
        scn.write_text(text + "trace.file = trace.log\n" if traced else text)
        out_dir = tmp_path / f"out-{traced}"
        code, _, err = run_cli(["run", str(scn), "--out", str(out_dir)], capsys)
        assert code == 0, err
        got = {csv_name: _sha256(out_dir / csv_name) for csv_name in golden["csv"]}
        assert got == golden["csv"], f"traced={traced}"
        if traced:
            assert _sha256(out_dir / "trace.log") == golden["trace.file"]


# the scenarios of the hash-seed test: a bundled one and a random(3) churn case
SCN_CHURN = """\
topology = net.tl
strategy = bpd
rounds = 60
seed = 5
repair.period.rounds = 10
faults.1 = 12 crash p03
faults.2 = 15 crash p07
faults.3 = 33 recover p03
faults.4 = 41 recover p07
trace.file = trace.log
"""
TL_CHURN = "topology random(3);\nnodes { %s };\n" % ", ".join(f"p{i:02d}" for i in range(12))


def _run_under_hash_seed(scn, out_dir, hash_seed):
    proc = subprocess.run(
        [sys.executable, "-m", "bpdsim.cli", "run", str(scn), "--out", str(out_dir)],
        capture_output=True,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": str(Path(cli.__file__).parents[1]),
            "PYTHONHASHSEED": str(hash_seed),
        },
    )
    assert proc.returncode == 0, proc.stderr
    return {
        name: (out_dir / name).read_bytes()
        for name in ("rounds.csv", "nodes.csv", "summary.csv", "trace.log")
    }


@pytest.mark.parametrize("case", ["bpd_crash", "random3-churn"])
def test_outputs_do_not_depend_on_the_hash_seed(case, tmp_path):
    # str hashes differ between the two processes, so an output order taken
    # from iterating a set of names would differ too; the CSV writer's memo
    # is keyed by floats and must not order anything
    if case == "bpd_crash":
        shutil.copy(SCENARIOS / "base10.tl", tmp_path / "base10.tl")
        text = (SCENARIOS / "bpd_crash.scn").read_text() + "trace.file = trace.log\n"
        scn = tmp_path / "case.scn"
        scn.write_text(text)
    else:
        scn = write_scenario(tmp_path, SCN_CHURN, TL_CHURN)
    runs = [_run_under_hash_seed(scn, tmp_path / f"out{h}", h) for h in (0, 1)]
    assert runs[0] == runs[1]
    assert b"join" in runs[0]["trace.log"] and b"fault crash" in runs[0]["trace.log"]


# --- CSV cells ---------------------------------------------------------------

NAN, INF = float("nan"), float("inf")


def _csv_module_bytes(path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def _odd_world():
    # World does not check peer names, so they can hold a comma, a quote and a
    # line break. The nodes table holds floats only: both zeros, in both
    # orders within a round, nan, inf and an exponent. The rounds table holds
    # those and also None, True and 1 beside 1.0, in both orders.
    names = ("a,b", 'q"x', "p", "two\nlines")
    w = World(
        make_graph([(names[i], names[(i + 1) % 4]) for i in range(4)]),
        AllToAll(),
        SimConfig(n_rounds=0),
    )
    xs = [
        (0.0, -0.0, 1.0, 1e-05),
        (-0.0, 0.0, 2.5, -0.0),
        (NAN, INF, -INF, 1e-05),
        (1e-05, NAN, 0.0, 1.0),
    ]
    des = [row[::-1] for row in xs[1:]] + [xs[0]]
    # every peer alive: the world's own roster view, in sorted name order
    everyone = w.alive_position
    assert list(everyone) == sorted(names)
    w.x_trace = [RoundColumn(everyone, array("d", row)) for row in xs]
    w.de_trace = [RoundColumn(everyone, array("d", row)) for row in des]
    # a round in which some peers are down
    some = {"a,b": 0, "p": 1}
    w.x_trace.append(RoundColumn(some, array("d", (1.0, 0.0))))
    w.de_trace.append(RoundColumn(some, array("d", (-0.0, 1.0))))
    w.stats = [
        RoundStats(1, 0, 1, 2, 0.0, -0.0, 1.0, 1),
        RoundStats(2, True, 3, 4, NAN, -INF, 1e-05, None),
        RoundStats(3, 1.0, 1, None, INF, 1, -0.0, 0.0),
    ]
    return w


def test_csv_cells_are_the_csv_modules_text(tmp_path, monkeypatch):
    # each table is written by cli's one cell rule, the nodes table through
    # its memo of float texts, and must hold the very bytes csv.writer gives
    w = _odd_world()
    summary = Summary(None, True, 1, -0.0, 1.0, 0)
    monkeypatch.setattr(w, "summary", lambda: summary)
    nodes_rows = [
        (i, n, xs[n], des[n])
        for i, (xs, des) in enumerate(zip(w.x_trace, w.de_trace), 1)
        for n in sorted(xs)
    ]
    cases = (
        (cli.write_nodes_csv, ("round", "node", "x", "de"), nodes_rows),
        (cli.write_rounds_csv, RoundStats._fields, w.stats),
        (cli.write_summary_csv, Summary._fields, [summary]),
    )
    for write, header, rows in cases:
        got = tmp_path / f"{write.__name__}.csv"
        write(got, w)
        assert got.read_bytes() == _csv_module_bytes(tmp_path / "want.csv", header, rows), got
    lines = (tmp_path / "write_nodes_csv.csv").read_bytes().split(b"\r\n")
    assert lines[1:5] == [
        b'1,"a,b",0.0,-0.0',
        b"1,p,-0.0,2.5",
        b'1,"q""x",1.0,0.0',
        b'1,"two\nlines",1e-05,-0.0',
    ]


def test_run_unconnectable_overlay_exits_2(tmp_path, capsys):
    tl = "topology custom;\nnodes { a, b, c, d };\nlinks { a -> b; b -> a; c -> d; d -> c; }\n"
    scn = write_scenario(
        tmp_path,
        "topology = net.tl\nstrategy = bpd\nthresh = 2\nrounds = 5\nrepair.period.rounds = 2\n",
        tl_text=tl,
    )
    code, out, err = run_cli(["run", str(scn)], capsys)
    assert code == 2
    assert "not strongly connected" in err
    # partial measurements still land on disk
    assert (tmp_path / "out" / "rounds.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()


# five overlapping crashes on a random(2) overlay of eight peers; the cycle
# of round 19 runs while p0 is detected down and p5, crashed at 17, is not
R2_TL = "topology random(2);\nnodes { p0, p1, p2, p3, p4, p5, p6, p7 };\n"
SCN_R2_CHURN = """\
topology = net.tl
rounds = 30
seed = 8
repair.period.rounds = 6
reply.timeout.rounds = 3
detection.rounds = 3
faults.1 = 4 crash p2
faults.2 = 15 crash p0
faults.3 = 17 crash p5
faults.4 = 21 crash p6
faults.5 = 24 crash p1
"""


def test_run_reports_the_one_cycle_that_ends_split(tmp_path, capsys):
    # pins the current outcome, exit 2 for the cycle of round 19 alone;
    # whether a cycle like this one should count as a failure at all is for
    # the in-run settled check (ROADMAP item 3) to decide
    scn = write_scenario(tmp_path, SCN_R2_CHURN, tl_text=R2_TL)
    world = cli.build_world(cli.parse_scenario(scn), tmp_path)
    world.run()
    cycles = [(r.round, r.connected) for r in world.log if isinstance(r, CycleComplete)]
    assert cycles == [(1, True), (7, True), (13, True), (19, False), (25, True)]
    code, _, err = run_cli(["run", str(scn)], capsys)
    assert code == 2
    assert err.splitlines() == ["error: overlay not strongly connected after repair (rounds 19)"]


def _trace_line(record):
    """The trace line a log record stands for, None for a recovered peer's
    rejoin, which is traced as its fault alone."""
    at = f"round={record.round}"
    if isinstance(record, FaultEvent):
        return f"{at} fault {record.action} {record.node}"
    if isinstance(record, CycleComplete):
        return f"{at} cycle-complete epoch {record.epoch}"
    if record.kind == "MemberLeft":
        return f"{at} member-left {record.group} {record.node} {record.role}"
    if record.reason:
        return f"{at} join {record.group} {record.node} {record.role} {record.reason}"
    return None


@pytest.mark.parametrize("case", ["bpd_crash", "r2_churn"])
def test_trace_is_a_view_of_the_log(case, tmp_path):
    if case == "bpd_crash":
        scn = SCENARIOS / "bpd_crash.scn"
    else:
        scn = write_scenario(tmp_path, SCN_R2_CHURN, tl_text=R2_TL)
    world = cli.build_world(cli.parse_scenario(scn), scn.parent)
    lines = []
    world.trace_fn = lines.append
    world.run()
    # every line but an app delivery is one record, in log order
    rendered = [_trace_line(r) for r in world.log]
    assert [ln for ln in lines if " deliver app " not in ln] == [
        ln for ln in rendered if ln is not None
    ]
    unlined = [r for r, ln in zip(world.log, rendered) if ln is None]
    assert all(
        isinstance(r, MembershipEvent) and r.kind == "MemberJoined" and r.reason == ""
        for r in unlined
    )
    # bpd_crash's recovery of c rejoins its stashed groups; r2_churn recovers nobody
    assert bool(unlined) == (case == "bpd_crash")


def test_run_cascade_over_cap_exits_2_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simnet, "_CASCADE_CAP", 10)
    shutil.copy(SCENARIOS / "base10.tl", tmp_path / "base10.tl")
    shutil.copy(SCENARIOS / "bpd_crash.scn", tmp_path / "bpd_crash.scn")
    code, _, err = run_cli(["run", str(tmp_path / "bpd_crash.scn")], capsys)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error:") and "within 10 deliveries" in err
    assert len(err.splitlines()) == 1


# --- bpd-trace -----------------------------------------------------------------


def test_bpd_trace_join_run(tmp_path, capsys):
    tl = tmp_path / "net.tl"
    tl.write_text(BASE10_TL)
    code, out, err = run_cli(["bpd-trace", str(tl), "--thresh", "3"], capsys)
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "peers=6 edges=10 thresh=3"
    assert sum(1 for ln in lines if ln.startswith("table ")) == 6
    assert any(ln.startswith("join ") for ln in lines)
    assert "edges: 10 -> 15" in out
    assert lines[-2] == "connected: yes"
    assert lines[-1] == "bounded: yes"


def test_bpd_trace_no_updates_when_bounded(tmp_path, capsys):
    tl = tmp_path / "tri.tl"
    tl.write_text("topology custom;\nnodes { a, b, c };\nlinks { a -> b; b -> c; c -> a; }\n")
    code, out, _ = run_cli(["bpd-trace", str(tl), "--thresh", "2"], capsys)
    assert code == 0
    assert "no updates" in out
    assert "bounded: yes" in out


def test_bpd_trace_thresh_below_max_weight(tmp_path, capsys):
    tl = tmp_path / "w.tl"
    tl.write_text(
        "topology custom;\nnodes { a, b };\nlinks { a -> b weight 5; b -> a weight 5; }\n"
    )
    code, _, err = run_cli(["bpd-trace", str(tl), "--thresh", "3"], capsys)
    assert code == 1 and err.startswith("error:")


# custom_weights.tl links a -> b at 2, b -> c at 1/2 and c -> a at 7/3, so
# its table cells are fractions; these outputs were recorded before path costs
# became ints, and exact rationals must still print the same at the outputs
CUSTOM_WEIGHTS_TABLES = """\
peers=3 edges=3 thresh={thresh}
table a: b=2(g.a) c=5/2(g.a)
table b: a=17/6(g.b) c=1/2(g.b)
table c: a=7/3(g.c) b=13/3(g.c)
"""
CUSTOM_WEIGHTS_TRACES = {
    "3": """\
join g.c b receiver
edges: 3 -> 4
dist a: b=2 c=5/2
dist b: a=17/6 c=1/2
dist c: a=7/3 b=7/3
connected: yes
bounded: yes
""",
    "11/4": """\
join g.b a receiver
join g.c b receiver
edges: 3 -> 5
dist a: b=2 c=5/2
dist b: a=1/2 c=1/2
dist c: a=7/3 b=7/3
connected: yes
bounded: yes
""",
}


@pytest.mark.parametrize("thresh", sorted(CUSTOM_WEIGHTS_TRACES))
def test_bpd_trace_of_fractional_weights_prints_exact_costs(thresh, capsys):
    tl = DATA / "valid" / "custom_weights.tl"
    code, out, err = run_cli(["bpd-trace", str(tl), "--thresh", thresh], capsys)
    assert code == 0 and err == ""
    assert out == CUSTOM_WEIGHTS_TABLES.format(thresh=thresh) + CUSTOM_WEIGHTS_TRACES[thresh]


def test_manifest_prints_fractional_group_weights_exactly(capsys):
    args = ["validate", "--manifest", str(DATA / "valid" / "custom_weights.tl")]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    weights = [ln for ln in out.splitlines() if ln.startswith("  weight ")]
    assert weights == ["  weight 2", "  weight 1/2", "  weight 7/3"]


def test_bpd_trace_disconnected(tmp_path, capsys):
    tl = tmp_path / "split.tl"
    tl.write_text(
        "topology custom;\nnodes { a, b, c, d };\nlinks { a -> b; b -> a; c -> d; d -> c; }\n"
    )
    code, out, _ = run_cli(["bpd-trace", str(tl), "--thresh", "2"], capsys)
    assert code == 2
    assert "connected: no" in out


def test_bad_subcommand_usage():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])

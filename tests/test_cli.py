import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from bpdsim import cli, simnet
from bpdsim.bpd import BpdConfig, default_threshold
from bpdsim.simnet import SimConfig
from bpdsim.workloads import Gossip

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


def test_validate_manifest_deterministic(capsys):
    args = ["validate", "--manifest", str(DATA / "valid" / "random_k2.tl"), "--seed", "7"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "group g." in out1


# --- scenario parsing ---------------------------------------------------------


def test_scenario_unknown_key(tmp_path, capsys):
    scn = write_scenario(tmp_path, "topology = net.tl\nbogus = 1\n")
    code, _, err = run_cli(["run", str(scn)], capsys)
    assert code == 1 and "line 2" in err and "bogus" in err


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
        ("hop.delay.ms = -1", "per_hop_delay_ms"),
        ("rounds = -1", "n_rounds"),
        ("detection.rounds = 0", "detection_rounds"),
        ("thresh = 0", "thresh"),
        ("repair.period.rounds = 0", "repair_period_rounds"),
        ("reply.timeout.rounds = 0", "reply_timeout_rounds"),
        ("strategy = gossip\ngossip.fanout = -2", "fanout"),
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
    assert world.bpd_cfg == BpdConfig(thresh=default_threshold(len(world.roster)))


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
    cls = {"sim": SimConfig, "bpd": BpdConfig, "gossip": Gossip}[row.target]
    return {f.name: f.default for f in dataclasses.fields(cls)}[row.field]


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

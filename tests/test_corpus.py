"""A pinned corpus of generated scenarios.

Each entry is a scenario drawn by `corpus_entry` from a seed that names it:
a `random_sc_digraph` overlay of 6-20 peers with weights 1/2, 1 and 3/2, one
of the four strategies, a crash/recover schedule, a detection delay of 1-3
rounds, a repair period of 1-50 rounds, a fractional threshold and the trace
file on. `tests/data/corpus_digests.json` pins the sha256 of the three CSVs
and of the trace each run writes, and its exit code. The digests were
recorded once; no test rewrites them, so a change to any of those bytes fails
here until the file is regenerated on purpose:

    PYTHONPATH=src python tests/test_corpus.py > tests/data/corpus_digests.json
"""
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bpdsim import cli
from bpdsim.graph import random_sc_digraph

DIGESTS = Path(__file__).parent / "data" / "corpus_digests.json"
N_ENTRIES = 24
OUTPUTS = ("rounds.csv", "nodes.csv", "summary.csv", "trace.log")
STRATEGIES = ("bpd", "all-to-all", "gossip", "unmodified")
WEIGHTS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
THRESHOLDS = (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(7, 2), Fraction(9, 4))


def corpus_entry(i: int) -> tuple[str, str, str]:
    """Entry i as (name, topology text, scenario text). Every other entry
    runs `bpd`, so the protocol sees most of the draws."""
    rng = random.Random(f"bpdsim-corpus:{i}")
    n = rng.randint(6, 20)
    graph = random_sc_digraph(n, seed=i, weights=WEIGHTS, extra_p=rng.choice((0.1, 0.2, 0.3)))
    strategy = "bpd" if i % 2 == 0 else STRATEGIES[1 + (i // 2) % 3]
    rounds = rng.randint(20, 60)
    links = "".join(f"  {u} -> {v} weight {w};\n" for (u, v), w in sorted(graph.edges.items()))
    tl = f"topology custom;\nnodes {{ {', '.join(graph.nodes)} }};\nlinks {{\n{links}}};\n"
    lines = [
        "topology = net.tl",
        f"strategy = {strategy}",
        f"thresh = {rng.choice(THRESHOLDS)}",
        f"rounds = {rounds}",
        f"seed = {rng.randrange(1000)}",
        f"detection.rounds = {rng.randint(1, 3)}",
        f"repair.period.rounds = {rng.choice((1, 2, 5, 10, 25, 50))}",
        "trace.file = trace.log",
    ]
    if strategy == "gossip":
        lines.append(f"gossip.fanout = {rng.randint(1, 3)}")
    # crash up to a third of the peers, each once, and recover some of them
    # later; two crashes may fall in one repair period
    k = 0
    for node in rng.sample(graph.nodes, rng.randint(0, n // 3)):
        crash = rng.randint(1, rounds - 1)
        k += 1
        lines.append(f"faults.{k} = {crash} crash {node}")
        if rng.random() < 0.5:
            k += 1
            lines.append(f"faults.{k} = {rng.randint(crash + 1, rounds)} recover {node}")
    return f"c{i:02d}-{strategy}-n{n}", tl, "\n".join(lines) + "\n"


def run_entry(i: int, tmp_path: Path) -> tuple[str, dict]:
    """Run entry i in `tmp_path`; its name and what the corpus pins."""
    name, tl, scn = corpus_entry(i)
    (tmp_path / "net.tl").write_text(tl)
    (tmp_path / "case.scn").write_text(scn)
    out_dir = tmp_path / "out"
    code = cli.main(["run", str(tmp_path / "case.scn"), "--out", str(out_dir)])
    digests = {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in OUTPUTS}
    return name, {"exit": code, "sha256": digests}


@pytest.mark.parametrize("i", range(N_ENTRIES))
def test_corpus_entry_matches_its_digests(i, tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    name, got = run_entry(i, tmp_path)
    assert got == pinned[name]


def test_corpus_pins_every_entry_and_covers_what_it_promises():
    entries = [corpus_entry(i) for i in range(N_ENTRIES)]
    assert [name for name, _, _ in entries] == list(json.loads(DIGESTS.read_text()))
    scns = "".join(scn for _, _, scn in entries)
    assert all(f"strategy = {strategy}\n" in scns for strategy in STRATEGIES)
    assert "recover" in scns and "detection.rounds = 3\n" in scns
    assert any("weight 1/2;" in tl and "weight 3/2;" in tl for _, tl, _ in entries)


if __name__ == "__main__":
    import contextlib
    import tempfile

    out = {}
    for i in range(N_ENTRIES):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
            name, got = run_entry(i, Path(tmp))
        out[name] = got
        print(name, got["exit"], file=sys.stderr)
    print(json.dumps(out, indent=1))

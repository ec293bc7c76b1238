"""End-to-end checks of the package's measurable guarantees.

Each test covers one numbered guarantee and prints a single pass/fail line
so a plain `pytest -v` run doubles as a checklist. Tolerances are stated
inline; everything that can be exact (Fraction path costs, message counts,
CSV bytes) is checked exactly.
"""
import time
from fractions import Fraction
from pathlib import Path

from bpdsim import cli, metrics
from bpdsim.bpd import default_threshold
from bpdsim.graph import all_pairs_costs, dijkstra, is_strongly_connected
from bpdsim.simnet import FaultEvent, SimConfig, World
from bpdsim.toplink import build_graph, parse_toplink, parse_toplink_file
from bpdsim.workloads import AllToAll, Bpd, Gossip, Unmodified, true_average
from conftest import INVALID_TL, corpus_graph, repair_delays

SCENARIOS = Path(__file__).parents[1] / "scenarios"
TL_DATA = Path(__file__).parent / "data" / "toplink"

CORPUS = 100


def _report(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def base10_graph():
    return build_graph(parse_toplink_file(SCENARIOS / "base10.tl"))


def repair_world(graph, thresh, **kw):
    w = World(graph, Bpd(thresh), SimConfig(n_rounds=0, seed=0), **kw)
    w.run_repair_cycle()
    return w


def test_criterion_1_stage1_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    exact = 0
    for i in range(CORPUS):
        g = corpus_graph(i)
        w = repair_world(g, default_threshold(g.n_nodes))
        want = {
            src: {dst: c for dst, c in dijkstra(g, src).items() if dst != src}
            for src in g.nodes
        }
        got = {
            nid: {dst: w.assignment.exact(e.depth) for dst, e in node.path.items()}
            for nid, node in w.nodes.items()
        }
        exact += got == want
    elapsed = time.perf_counter() - t0
    ok = exact == CORPUS and elapsed < 10.0
    _report(capsys, 1, "discovery equals shortest-path oracle", ok,
            f"{exact}/{CORPUS} graphs exact in {elapsed:.2f}s")
    assert exact == CORPUS
    assert elapsed < 10.0


def test_criterion_2_bounded_path_postcondition(capsys):
    bounded = 0
    for i in range(CORPUS):
        g = corpus_graph(i)
        thresh = default_threshold(g.n_nodes)
        w = repair_world(g, thresh)
        eff = w.alive_effective_graph()
        dists = all_pairs_costs(eff)
        if is_strongly_connected(eff) and all(
            c <= Fraction(thresh) for row in dists.values() for c in row.values()
        ):
            bounded += 1
    # six-node structural instance with thresh 3
    w6 = repair_world(base10_graph(), Fraction(3))
    d6 = all_pairs_costs(w6.alive_effective_graph())
    six_ok = all(c <= 3 for row in d6.values() for c in row.values())
    ok = bounded == CORPUS and six_ok
    _report(capsys, 2, "one repair cycle bounds all paths", ok,
            f"{bounded}/{CORPUS} corpus graphs + 6-node/thresh-3 instance")
    assert bounded == CORPUS
    assert six_ok


def test_criterion_3_message_counts(capsys):
    g = base10_graph()

    def msgs(strategy):
        w = World(g, strategy, SimConfig(n_rounds=10, seed=42))
        w.run()
        return w, sorted({s.messages for s in w.stats})

    _, a2a = msgs(AllToAll())
    _, gsp = msgs(Gossip(3))
    _, unm = msgs(Unmodified())
    wb, bpd = msgs(Bpd(3, repair_period_rounds=50))
    added = wb.effective_edge_count() - wb.edges_initial
    ok = (
        a2a == [30]
        and gsp == [18]
        and unm == [10]
        and bpd == [10 + added]
        and added >= 1
        and bpd[-1] <= 30
    )
    _report(capsys, 3, "per-round message counts", ok,
            f"all-to-all={a2a} gossip(3)={gsp} unmodified={unm} "
            f"bpd={bpd} (10+{added} added edges)")
    assert a2a == [30] and gsp == [18] and unm == [10]
    assert added >= 1
    assert bpd == [10 + added] and bpd[-1] <= 30


def test_criterion_4_dissemination_efficiency_under_faults(capsys):
    g = base10_graph()

    def run(strategy, faults):
        w = World(g, strategy, SimConfig(n_rounds=260, seed=7), faults=faults)
        w.run()
        return w

    bpd = Bpd(3, repair_period_rounds=50)
    de1 = run(bpd, [FaultEvent(100, "crash", "c")]).stats[-1].mean_de
    de2 = run(
        bpd, [FaultEvent(100, "crash", "c"), FaultEvent(150, "crash", "e")]
    ).stats[-1].mean_de
    deu = run(Unmodified(), [FaultEvent(100, "crash", "c")]).stats[-1].mean_de

    shape = run(
        bpd, [FaultEvent(100, "crash", "c"), FaultEvent(180, "recover", "c")]
    )
    des = [s.mean_de for s in shape.stats]
    steady_before = des[98] == 1.0
    dip_at_crash = des[100] < 1.0
    recovered_fast = abs(des[102] - 5 / 6) < 0.01  # detection 1 + same-round repair
    steady_after = abs(des[150] - 5 / 6) < 0.01
    dip_at_rejoin = des[179] < 0.78
    back_to_full = des[181] > 0.99 and des[-1] > 0.99
    shape_ok = all(
        [steady_before, dip_at_crash, recovered_fast, steady_after, dip_at_rejoin, back_to_full]
    )

    ok = abs(de1 - 0.833) <= 0.01 and abs(de2 - 0.667) <= 0.01 and deu <= 0.60 and shape_ok
    _report(capsys, 4, "dissemination efficiency under crashes", ok,
            f"bpd 1-crash={de1:.4f} (0.833+-0.01), 2-crash={de2:.4f} (0.667+-0.01), "
            f"unmodified partition={deu:.4f} (<=0.60), dip/recover shape={shape_ok}")
    assert abs(de1 - 0.833) <= 0.01
    assert abs(de2 - 0.667) <= 0.01
    assert deu <= 0.60
    assert steady_before and dip_at_crash and recovered_fast
    assert steady_after and dip_at_rejoin and back_to_full


def test_criterion_5_consensus_ordering(capsys):
    g = base10_graph()

    # exact-mean convergence for the uniform direct-mesh case
    w = World(g, AllToAll(), SimConfig(n_rounds=200, seed=3))
    w.run()
    opt = true_average(w.x0)
    first = next(
        (k for k, xs in enumerate(w.x_trace, 1) if all(abs(v - opt) <= 1e-9 for v in xs.values())),
        None,
    )
    mesh_ok = first is not None and first <= 200

    wins = 0
    for seed in range(20):
        bands = {}
        for name, strat in [
            ("bpd", Bpd(3, repair_period_rounds=50)),
            ("unmod", Unmodified()),
        ]:
            wr = World(g, strat, SimConfig(n_rounds=300, seed=seed))
            wr.run()
            band = metrics.iterations_to_band(wr.x_trace, true_average(wr.x0))
            bands[name] = float("inf") if band is None else band
        wins += bands["bpd"] <= bands["unmod"]

    ok = mesh_ok and wins >= 15
    _report(capsys, 5, "consensus reaches band sooner with repair", ok,
            f"mesh exact mean at round {first} (<=200), bpd<=unmodified in {wins}/20 seeds (need 15)")
    assert mesh_ok
    assert wins >= 15


def test_criterion_6_fault_recovery_connectivity(capsys):
    import random

    from conftest import random_sc_digraph

    failures = []
    delays = []

    def run_case(idx, double):
        n = 6 + idx % 5
        g = random_sc_digraph(n, idx)
        thresh = default_threshold(n)
        rng = random.Random(f"faults:{idx}:{double}")
        victims = rng.sample(sorted(g.nodes), 2 if double else 1)
        faults = [FaultEvent(30, "crash", victims[0])]
        if double:
            faults.append(FaultEvent(45, "crash", victims[1]))
        w = World(
            g,
            Bpd(thresh, repair_period_rounds=1000),
            SimConfig(n_rounds=60, seed=idx),
            faults=faults,
        )
        w.run()
        w.run_repair_cycle()
        eff = w.alive_effective_graph()
        good = is_strongly_connected(eff) and all(
            c <= Fraction(thresh) for row in all_pairs_costs(eff).values() for c in row.values()
        )
        if not good:
            failures.append(("double" if double else "single", idx, victims))
        delays.extend(repair_delays(w.log))

    for idx in range(50):
        run_case(idx, False)
    for idx in range(25):
        run_case(idx, True)

    mean_delay = sum(delays) / len(delays) if delays else 0.0
    ok = not failures and mean_delay <= 2.0
    _report(capsys, 6, "repair restores connectivity and bound", ok,
            f"{75 - len(failures)}/75 scenarios good, mean repair delay "
            f"{mean_delay:.2f} rounds over {len(delays)} repairs (<=2)")
    assert failures == []
    assert mean_delay <= 2.0


def test_criterion_7_deterministic_csv_output(capsys, tmp_path):
    names = ["bpd_crash.scn", "alltoall.scn", "gossip.scn"]
    identical = 0
    for name in names:
        scn = SCENARIOS / name
        outs = []
        for rep in range(2):
            out = tmp_path / f"{name}.{rep}"
            code = cli.main(["run", str(scn), "--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            outs.append(out)
        if all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
            for f in ("rounds.csv", "nodes.csv", "summary.csv")
        ):
            identical += 1
    capsys.readouterr()  # swallow the CLI's own status lines
    ok = identical == len(names)
    _report(capsys, 7, "byte-identical CSVs across reruns", ok,
            f"{identical}/{len(names)} scenarios byte-identical (3 files each)")
    assert identical == len(names)


def test_criterion_8_parser_corpus(capsys):
    valid = sorted((TL_DATA / "valid").glob("*.tl"))
    invalid = sorted((TL_DATA / "invalid").glob("*.tl"))
    parsed = 0
    for path in valid:
        parse_toplink(path.read_text())
        parsed += 1
    designated = 0
    for path in invalid:
        cls_name, line, _ = INVALID_TL[path.name]
        try:
            parse_toplink(path.read_text())
        except Exception as exc:
            if type(exc).__name__ == cls_name and getattr(exc, "line", None) == line:
                designated += 1
    ok = parsed >= 12 and len(invalid) >= 8 and designated == len(invalid)
    _report(capsys, 8, "topology parser corpus", ok,
            f"{parsed} valid parsed (>=12), {designated}/{len(invalid)} invalid "
            f"hit designated error and line (>=8)")
    assert parsed >= 12
    assert len(invalid) >= 8
    assert designated == len(invalid)

"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from bpdsim import cli  # noqa: E402
from bpdsim.simnet import FaultEvent, validate_schedule  # noqa: E402

import scenarios  # noqa: E402
from tracer import PATCHES, Tracer, resolve  # noqa: E402


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_generator_is_a_pure_function_of_the_seed(workload, tmp_path):
    for seed in (0, 1, 7):
        a = scenarios.write_inputs(scenarios.WORKLOADS[workload](seed), tmp_path / "a")
        b = scenarios.write_inputs(scenarios.WORKLOADS[workload](seed), tmp_path / "b")
        for name in ("topo.tl", "scenario.scn"):
            assert (a.parent / name).read_bytes() == (b.parent / name).read_bytes()
    assert scenarios.instances(workload, 1) == scenarios.instances(workload, 1)
    assert scenarios.WORKLOADS[workload](1).scn != scenarios.WORKLOADS[workload](2).scn


@pytest.mark.parametrize("seed", range(30))
def test_churn_schedule_is_valid(seed, tmp_path):
    inputs = scenarios.bpd_churn(seed)
    scn = scenarios.write_inputs(inputs, tmp_path)
    names = [f"p{i:02d}" for i in range(40)]
    schedule = scenarios.churn_faults(seed, names, 300, 25)
    faults = [FaultEvent(rnd, action, node) for rnd, action, node in schedule]
    validate_schedule(faults, set(names))
    assert len(faults) == 16
    assert not {f.round for f in faults if f.action == "crash"} & set(inputs.cycle_rounds)
    data = cli.parse_scenario(scn)
    assert [data[f"faults.{i}"] for i in range(1, 17)] == [
        f"{rnd} {action} {node}" for rnd, action, node in schedule
    ]


_READS_PROBE = """
import json, sys
from pathlib import Path
import worker
reads = set()
def hook(event, args):
    if event == "open" and isinstance(args[0], str) and args[1] in (None, "r", "rb"):
        reads.add(str(Path(args[0]).resolve()))
sys.addaudithook(hook)
worker.run_scenario(Path(sys.argv[2]), worker.WORKLOADS[sys.argv[1]](1), 1, False)
print(json.dumps(sorted(reads)))
"""


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_program_reads_only_the_generated_files(workload, tmp_path):
    scn = scenarios.write_inputs(scenarios.WORKLOADS[workload](1), tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", _READS_PROBE, workload, str(tmp_path)],
        cwd=BENCH,
        env={"PYTHONPATH": f"{BENCH}:{ROOT / 'src'}"},
        capture_output=True,
        text=True,
        check=True,
    )
    reads = set(json.loads(proc.stdout.splitlines()[-1]))
    out = tmp_path.resolve() / "out"
    program_reads = {p for p in reads if Path(p).parent != out}
    assert program_reads == {str(scn.resolve()), str((tmp_path / "topo.tl").resolve())}


def _tiny_run(tmp_path: Path) -> None:
    (tmp_path / "topo.tl").write_text("topology ring;\nnodes { a, b, c, d, e, f };\n")
    scn = tmp_path / "s.scn"
    scn.write_text("topology = topo.tl\nstrategy = bpd\nrounds = 4\nrepair.period.rounds = 2\n")
    world = cli.build_world(cli.parse_scenario(scn), tmp_path)
    for _ in range(world.cfg.n_rounds):
        world.step_round()
    cli.write_rounds_csv(tmp_path / "rounds.csv", world)


def _originals():
    out = {}
    for module, attr_path, _ in PATCHES:
        owner, name = resolve(module, attr_path)
        out[(module, attr_path)] = (owner, name, vars(owner)[name])
    return out


def test_tracer_restores_every_patched_attribute(tmp_path):
    before = _originals()
    with Tracer() as tracer:
        for owner, name, original in before.values():
            assert vars(owner)[name] is not original
        _tiny_run(tmp_path)
    for owner, name, original in before.values():
        assert vars(owner)[name] is original
    spans = tracer.summary()
    assert spans["simnet.step_round"]["calls"] == 4
    assert spans["bpd.on_discover"]["calls"] > 0
    assert tracer.nesting_problems() == []


def test_nesting_check_catches_a_span_outside_its_parent(tmp_path):
    with Tracer() as tracer:
        _tiny_run(tmp_path)
    child = next(i for i, p in enumerate(tracer.span_parent) if p >= 0)
    tracer.span_end[child] = tracer.span_end[tracer.span_parent[child]] + 1.0
    assert len(tracer.nesting_problems()) == 1


def test_tracer_restores_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    for owner, name, original in before.values():
        assert vars(owner)[name] is original


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring-cycle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_run_reports_failures_when_no_repetition_finishes(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src" / "bpdsim").mkdir(parents=True)
    (tmp_path / "src" / "bpdsim" / "__init__.py").write_text("raise RuntimeError('broken')\n")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bpd-churn", "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_tracer_leaves_nothing_patched_when_a_name_is_missing(monkeypatch):
    import tracer

    before = _originals()
    monkeypatch.setattr(tracer, "PATCHES", PATCHES + (("bpdsim.cli", "no_such_name", "x"),))
    with pytest.raises(KeyError):
        Tracer().install()
    for owner, name, original in before.values():
        assert vars(owner)[name] is original

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def _run_experiments() -> list[str]:
    proc = subprocess.run(
        [
            sys.executable,
            "scripts/run_experiments.py",
            "--seeds", "1",
            "--rounds", "30",
            "--repair-cases", "5",
        ],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_experiments_smoke():
    # drives World, run_repair_cycle and the config defaults through the library API
    lines = [line.strip() for line in _run_experiments()]
    assert "connected and bounded after repair: 5/5" in lines
    # the delays come from each world's log: a repair join's round minus the
    # round of the latest crash before it
    assert "repair delay rounds: mean 1.00, max 1, n=24" in lines


def test_run_experiments_strategy_table_is_pinned():
    # the figures summary.csv reports, per strategy, for one seed of 30 rounds
    assert _run_experiments()[:6] == [
        "strategy comparison, 1 seeds x 30 rounds",
        "strategy      msgs/rd  kB/s/node    dev %  to-band",
        "all-to-all       30.0      35.20    0.000      4.0",
        "gossip(3)        18.0      22.40    0.088      4.0",
        "unmodified       10.0      13.87   24.764     30.0",
        "bpd              15.0      20.69   31.358     30.0",
    ]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.split()) == 2


def test_bench_pairs_stops_before_any_run_when_bench_differs(tmp_path):
    marker = tmp_path / "ran"
    spec = (ROOT / "BENCHMARK.json").read_text()
    for side, golden in (("parent", "{}\n"), ("change", "{ }\n")):
        bench = tmp_path / side / "bench"
        (bench / "__pycache__").mkdir(parents=True)
        # a cache that differs between the sides does not count
        (bench / "__pycache__" / "run.pyc").write_text(side)
        (bench / "run.py").write_text(f"open({str(marker)!r}, 'w').close()\n")
        (bench / "golden.json").write_text(golden)
        (tmp_path / side / "BENCHMARK.json").write_text(spec)
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "bench_pairs.py"),
            str(tmp_path / "parent"),
            str(tmp_path / "change"),
            "--out", str(tmp_path / "out.json"),
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines() == [
        f"{tmp_path / 'parent'} and {tmp_path / 'change'} differ in bench/golden.json:"
        " both must hold the same bench/"
    ]
    assert not marker.exists() and not (tmp_path / "out.json").exists()


def _bench_pairs():
    """scripts/bench_pairs.py as a module, loaded from its file."""
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TIGHT = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]  # IQR 0.15


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        # 10/10 pairs won and the medians 1.0 apart, past the IQR of 0.15
        (TIGHT, [v - 1 for v in TIGHT], "lower", "gain"),
        (TIGHT, [v + 1 for v in TIGHT], "higher", "gain"),
        # 9/10 pairs are enough
        (TIGHT, [v - 1 for v in TIGHT[:9]] + [11.0], "lower", "gain"),
        # 8/10 pairs are not, and 1.0 better is within a 0.25 bound
        (TIGHT, [v - 1 for v in TIGHT[:8]] + [11.0, 11.0], "lower", "within bound"),
        # 10/10 pairs won by less than the IQR
        (TIGHT, [v - 0.1 for v in TIGHT], "lower", "within bound"),
        # the change's median 30 % worse, past the 25 % bound
        (TIGHT, [v * 1.3 for v in TIGHT], "lower", "worse"),
        (TIGHT, [v * 0.7 for v in TIGHT], "higher", "worse"),
        # 20 % worse stays within the bound
        (TIGHT, [v * 1.2 for v in TIGHT], "lower", "within bound"),
        # the parent's IQR (5.5 around a median of 10) is wider than the bound
        (
            [5.0, 15.0, 7.0, 13.0, 6.0, 14.0, 8.0, 12.0, 10.0, 10.0],
            [14.0, 6.0, 12.0, 8.0, 15.0, 5.0, 10.0, 10.0, 13.0, 7.0],
            "lower",
            "unresolved",
        ),
        # an IQR of 7.5, but every change run beats every parent run: 0.1 better
        # than the parent's fastest run is no gain, but it is resolved
        (
            [10.0] * 7 + [20.0, 30.0, 40.0],
            [9.9] * 10,
            "lower",
            "within bound",
        ),
    ],
)
def test_bench_pairs_verdicts(parent, change, better, expected):
    bench_pairs = _bench_pairs()
    summary = bench_pairs.summarize(parent, change, better, 0.25)
    assert summary["verdict"] == expected

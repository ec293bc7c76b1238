import os
import subprocess
import sys
from pathlib import Path

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

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_run_experiments_smoke():
    # drives World, run_repair_cycle and the config defaults through the library API
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
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert "connected and bounded after repair: 5/5" in lines


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

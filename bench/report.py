"""Print every benchmark metric, by name and with its unit, for every workload.

    python3 bench/report.py [--seed N] [--seconds S]

Runs `bench/run.py` on each workload of BENCHMARK.json twice, untraced for
the end-to-end metrics and traced for the per-layer ones, and prints them
with the interpreter, CPU count, platform, and why each workload is there.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from scenarios import DEFAULT_SEED

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    print(f"python {platform.python_version()} ({platform.python_implementation()})")
    print(f"cpus {os.cpu_count()}")
    print(f"platform {platform.platform()}")
    status = 0
    for workload in spec["workloads"]:
        print(f"\n{workload['name']}: {workload['why']}")
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    *spec["command"],
                    f"--workload={workload['name']}",
                    f"--seed={args.seed}",
                    f"--seconds={args.seconds}",
                    f"--trace={trace}",
                ],
                cwd=ROOT,
                capture_output=True,
                text=True,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"  trace={trace}: failed with exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(
                f"  trace={trace}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            for name, metric in result["metrics"].items():
                print(f"    {name:40s} {metric['value']:>16.6g} {metric['unit']}")
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())

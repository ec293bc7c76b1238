#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs; write a JSON record.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_6.json

Each of 10 pairs runs `bench/run.py` once per workload in each checkout, at
seed 1 and the run length of BENCHMARK.json. The parent runs
first in even pairs and the change first in odd ones, so drift in the host's
speed falls on both sides alike. For every end-to-end metric of
BENCHMARK.json the record keeps each run's value, each side's median and
quartiles, the number of pairs the change won (ties win for neither) and a
verdict, the first of these that holds:

- `gain`: the change won at least 9 of the 10 pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
- `worse`: the change's median is worse than the parent's by more than the
  metric's relative `bound` in BENCHMARK.json;
- `unresolved`: the parent's interquartile range is wider than that bound
  (relative to the parent's median), and some change run does not beat
  every parent run;
- `within bound`: any other case.

One traced run per checkout and workload adds the exact delivery and
message counts. Both checkouts must hold the same `bench/`, byte for byte
(`__pycache__` aside): the script stops before any run, naming the first file
that differs, if they do not. Each checkout writes its own `.bench_build/`.

Both sides run with the same bytecode caches. Each side's runs, workers
included, read and write bytecode only under a fresh, empty directory of
its own (`PYTHONPYCACHEPREFIX`), so a `__pycache__` left in one checkout
does not count, and the traced runs, which come first, fill it before any
timed run. A process that compiles its sources at import peaks about 1 MB
higher than one that loads them from a cache.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

COUNTS = (
    "simnet.ctrl_deliveries",
    "simnet.app_messages",
    "simnet.ctrl_messages",
    "bpd.on_update.calls",
    "bpd.on_discover.calls",
    "bpd.joins.update",
    "bpd.joins.repair",
    "simnet.edges_after",
)
PAIRS = 10
# pairs the change must win for a gain
GAIN_WINS = 9
SEED = 1


def side_env(pycache: Path) -> dict:
    """This process's environment, with bytecode read and written only under `pycache`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def bench(checkout: Path, env: dict, workload: str, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, "bench/run.py", f"--workload={workload}", f"--seed={SEED}",
           f"--seconds={seconds}", f"--trace={int(trace)}"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} failed: {proc.stderr.strip()[-300:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} not correct: {proc.stdout.strip()[-300:]}")
    return result


def first_bench_difference(parent: Path, change: Path) -> str | None:
    """The first path, in sorted order, under `bench/` that the two checkouts
    do not hold byte for byte alike (missing on one side counts); None if none."""
    def files(root: Path) -> set[Path]:
        return {f.relative_to(root) for f in root.rglob("*")
                if f.is_file() and "__pycache__" not in f.relative_to(root).parts}

    a, b = parent / "bench", change / "bench"
    for rel in sorted(files(a) | files(b)):
        if not ((a / rel).is_file() and (b / rel).is_file()
                and (a / rel).read_bytes() == (b / rel).read_bytes()):
            return f"bench/{rel.as_posix()}"
    return None


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(parent: dict, change: dict, won: int, better: str, bound: float) -> str:
    """How the record reads one metric (see the module docstring), from both
    sides' `spread` and the pairs the change won."""
    sign = 1 if better == "lower" else -1
    base = parent["median"]
    gain = sign * (base - change["median"])  # > 0: the change's median is better
    iqr = parent["q3"] - parent["q1"]
    if won >= GAIN_WINS and gain > iqr:
        return "gain"
    if -gain > bound * base:
        return "worse"
    beats_all = max(sign * v for v in change["runs"]) < min(sign * v for v in parent["runs"])
    if iqr > bound * base and not beats_all:
        return "unresolved"
    return "within bound"


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides' spread, the pairs the change won, pair i against pair i,
    and the verdict."""
    won = sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))
    sides = {"parent": spread(parent), "change": spread(change)}
    return {**sides, "change_better_in": won,
            "verdict": verdict(sides["parent"], sides["change"], won, better, bound)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    differs = first_bench_difference(args.parent, args.change)
    if differs is not None:
        raise SystemExit(f"{args.parent} and {args.change} differ in {differs}:"
                         " both must hold the same bench/")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_pycache_") as tmp:
        envs = {side: side_env(Path(tmp) / side) for side in sides}
        traced = {w: {side: bench(sides[side], envs[side], w, 0, trace=True)["metrics"]
                      for side in sides}
                  for w in workloads}
        runs = {w: {side: [] for side in sides} for w in workloads}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                for side in order:
                    metrics = bench(sides[side], envs[side], w, seconds, trace=False)["metrics"]
                    runs[w][side].append({k: v["value"] for k, v in metrics.items()})
                print(f"pair {i + 1}/{PAIRS} {w} done", file=sys.stderr)
    record = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": SEED,
        "seconds": seconds,
        "pairs": PAIRS,
        "bytecode_cache": "a fresh PYTHONPYCACHEPREFIX per side, filled by its traced runs"
                          " before the timed ones",
        "workloads": {},
    }
    for w in workloads:
        record["workloads"][w] = {
            "end_to_end": {
                m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                            **summarize([r[m["name"]] for r in runs[w]["parent"]],
                                        [r[m["name"]] for r in runs[w]["change"]],
                                        m["better"], m["bound"])}
                for m in spec["end_to_end"]
            },
            "counts": {side: {c: traced[w][side][c]["value"] for c in COUNTS} for side in sides},
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark workloads: each one turns a seed into topology and scenario text.

The generator is a pure function of its seed, so two runs with one seed hand
the simulator byte-identical inputs. The simulator sees nothing but the
files written here.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
# scenarios drawn from one seed; a run averages over them, because the cost
# of one bpd-churn scenario depends on its draw nearly as much as on the code
INSTANCES = 8


@dataclass(frozen=True)
class Inputs:
    tl: str
    scn: str
    # rounds whose step runs a discovery + update cycle; the overlay is
    # checked after each of them
    cycle_rounds: tuple[int, ...]
    thresh: int | None


def _nodes(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:02d}" for i in range(n)]


def _tl(preset: str, names: list[str]) -> str:
    return f"topology {preset};\nnodes {{ {', '.join(names)} }};\n"


def _scn(lines: dict[str, object]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def _cycles(rounds: int, period: int) -> tuple[int, ...]:
    return tuple(r for r in range(1, rounds + 1) if (r - 1) % period == 0)


def ring_cycle(seed: int) -> Inputs:
    """One discovery + update cycle on a 48-node unit ring at the default thresh."""
    n = 48
    tl = _tl("ring", _nodes("n", n))
    scn = _scn({"topology": "topo.tl", "strategy": "bpd", "rounds": 1, "seed": seed})
    return Inputs(tl, scn, _cycles(1, 200), math.ceil((n - 1) / 2))


def alltoall_steady(seed: int) -> Inputs:
    """300 all-to-all rounds on 40 peers; the overlay protocol never runs."""
    tl = _tl("random(3)", _nodes("p", 40))
    scn = _scn(
        {"topology": "topo.tl", "strategy": "all-to-all", "rounds": 300, "seed": seed}
    )
    return Inputs(tl, scn, (), None)


def churn_faults(seed: int, names: list[str], rounds: int, period: int) -> list[tuple[int, str, str]]:
    """Eight crash/recover pairs on distinct peers, drawn from the seed.

    No crash lands on a cycle round: a peer that crashes in the round of a
    cycle is still counted alive by the protocol until the next round, so
    the overlay check after that cycle would test a state the protocol
    cannot know about.
    """
    rng = random.Random(f"bench:bpd-churn:{seed}")
    events = []
    for node in rng.sample(names, 8):
        while True:
            crash = rng.randint(2, rounds - 60)
            if (crash - 1) % period:
                break
        events.append((crash, "crash", node))
        events.append((crash + rng.randint(10, 50), "recover", node))
    events.sort()
    return events


def bpd_churn(seed: int) -> Inputs:
    """Twelve repair cycles on a random(3) overlay of 40 peers under churn."""
    names = _nodes("p", 40)
    rounds, period, thresh = 300, 25, 4
    keys: dict[str, object] = {
        "topology": "topo.tl",
        "strategy": "bpd",
        "thresh": thresh,
        "rounds": rounds,
        "seed": seed,
        "repair.period.rounds": period,
    }
    for i, (rnd, action, node) in enumerate(churn_faults(seed, names, rounds, period), 1):
        keys[f"faults.{i}"] = f"{rnd} {action} {node}"
    return Inputs(_tl("random(3)", names), _scn(keys), _cycles(rounds, period), thresh)


WORKLOADS = {
    "ring-cycle": ring_cycle,
    "alltoall-steady": alltoall_steady,
    "bpd-churn": bpd_churn,
}


def instances(workload: str, seed: int) -> list[Inputs]:
    """The scenarios of one run: instance j is generated from seed * INSTANCES + j."""
    return [WORKLOADS[workload](seed * INSTANCES + j) for j in range(INSTANCES)]


def write_inputs(inputs: Inputs, directory: Path) -> Path:
    """Write topo.tl and scenario.scn into directory; return the .scn path."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "topo.tl").write_text(inputs.tl)
    scn = directory / "scenario.scn"
    scn.write_text(inputs.scn)
    return scn

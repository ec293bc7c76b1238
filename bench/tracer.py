"""Per-layer tracing of bpdsim from outside the program.

`Tracer` replaces public functions of the simulator's modules with timing
wrappers, patched where each name is looked up (a function imported into
`bpdsim.simnet` is patched there, a method on its class). Every wrapped call
records one span: name, parent span, start and end. Spans stay in compact
arrays in memory and are written out once, after the run. Self time is a
span's duration minus the durations of its direct children, so the self
times of all spans under a root span add up to the root's duration as long
as every span lies inside its parent, which `nesting_problems` checks.

The wrappers are installed only for a traced run, and `restore` puts every
original object back.
"""
from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute path, span name); the first part of a span name is the
# layer the function belongs to, whichever module looks it up
PATCHES = (
    ("bpdsim.cli", "parse_scenario", "cli.parse_scenario"),
    ("bpdsim.cli", "build_world", "cli.build_world"),
    ("bpdsim.cli", "write_rounds_csv", "cli.write_rounds_csv"),
    ("bpdsim.cli", "write_nodes_csv", "cli.write_nodes_csv"),
    ("bpdsim.cli", "write_summary_csv", "cli.write_summary_csv"),
    ("bpdsim.cli", "parse_toplink_file", "toplink.parse"),
    ("bpdsim.cli", "build_graph", "toplink.build_graph"),
    ("bpdsim.toplink", "is_strongly_connected", "toplink.draw"),
    ("bpdsim.simnet", "is_strongly_connected", "graph.is_strongly_connected"),
    ("bpdsim.simnet", "World.step_round", "simnet.step_round"),
    ("bpdsim.simnet", "form_groups", "groups.form_groups"),
    ("bpdsim.simnet", "effective_graph", "groups.effective_graph"),
    ("bpdsim.simnet", "join_group", "groups.join_group"),
    ("bpdsim.simnet", "leave_all", "groups.leave_all"),
    ("bpdsim.bpd", "leader_group", "groups.leader_group"),
    ("bpdsim.groups", "GroupAssignment.send_groups", "groups.send_groups"),
    ("bpdsim.groups", "GroupAssignment.recv_groups", "groups.recv_groups"),
    ("bpdsim.simnet", "strategy_emit", "workloads.strategy_emit"),
    ("bpdsim.simnet", "consensus_step", "workloads.consensus_step"),
    ("bpdsim.metrics", "record_receipt", "metrics.record_receipt"),
    ("bpdsim.metrics", "purge", "metrics.purge"),
    ("bpdsim.metrics", "dissemination_efficiency", "metrics.dissemination_efficiency"),
    ("bpdsim.bpd", "BpdNode.start_discovery", "bpd.start_discovery"),
    ("bpdsim.bpd", "BpdNode.update_targets", "bpd.update_targets"),
    ("bpdsim.bpd", "BpdNode.start_update", "bpd.start_update"),
    ("bpdsim.bpd", "BpdNode.on_discover", "bpd.on_discover"),
    ("bpdsim.bpd", "BpdNode.on_update", "bpd.on_update"),
    ("bpdsim.bpd", "BpdNode.on_member_left", "bpd.on_member_left"),
    ("bpdsim.bpd", "BpdNode.on_grp_qry", "bpd.on_grp_qry"),
    ("bpdsim.bpd", "BpdNode.on_grp_ans", "bpd.on_grp_ans"),
    ("bpdsim.bpd", "BpdNode.on_join_req", "bpd.on_join_req"),
    ("bpdsim.bpd", "BpdNode.on_join_rep", "bpd.on_join_rep"),
    ("bpdsim.bpd", "BpdNode.poll", "bpd.poll"),
    ("bpdsim.bpd", "BpdNode.take_retries", "bpd.take_retries"),
)

# handlers the simulator calls once per delivered control message
DELIVERY_HANDLERS = (
    "bpd.on_discover",
    "bpd.on_update",
    "bpd.on_grp_qry",
    "bpd.on_grp_ans",
    "bpd.on_join_req",
    "bpd.on_join_rep",
)
REPAIR_HANDLERS = (
    "bpd.on_member_left",
    "bpd.on_grp_qry",
    "bpd.on_grp_ans",
    "bpd.on_join_req",
    "bpd.on_join_rep",
    "bpd.poll",
    "bpd.take_retries",
)


def resolve(module: str, attr_path: str):
    """(owner, attribute name) for a dotted attribute path inside a module."""
    owner = importlib.import_module(module)
    *outer, name = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def _discover_probe(args):
    node, msg = args[0], args[1]
    before = node.path.get(msg.origin)
    return lambda result: ("useful", node.path.get(msg.origin) is not before)


def _update_probe(args):
    return lambda result: ("forward", bool(result.emissions))


def _join_probe(args):
    return lambda result: ("applied", result is not None)


PROBES = {
    "bpd.on_discover": _discover_probe,
    "bpd.on_update": _update_probe,
    "groups.join_group": _join_probe,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        try:
            for module, attr_path, span in PATCHES:
                owner, name = resolve(module, attr_path)
                original = vars(owner)[name]
                self._patched.append((owner, name, original))
                setattr(owner, name, self._wrap(span, original))
        except BaseException:
            # a name the program no longer has: leave nothing half patched
            self.restore()
            raise

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        ids, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        probe = PROBES.get(span)
        joins_of = span.startswith("bpd.")

        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            check = probe(args) if probe else None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if check is not None:
                key, hit = check(result)
                counts[f"{span}.{key}"] += hit
            if joins_of and result is not None and hasattr(result, "joins"):
                for intent in result.joins:
                    counts["bpd.joins." + intent.reason.split(":", 1)[0]] += 1
            return result

        return wrapper

    def _self_times(self) -> tuple[array, array]:
        dur = array("d", (e - s for s, e in zip(self.span_start, self.span_end)))
        own = array("d", dur)
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds."""
        _, own = self._self_times()
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.span_name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += own[i]
        return out

    def nesting_problems(self) -> list[str]:
        """Spans that are still open or that do not lie inside their parent."""
        problems = [] if self._stack == [-1] else [f"{len(self._stack) - 1} spans left open"]
        starts, ends = self.span_start, self.span_end
        for i, p in enumerate(self.span_parent):
            if p >= 0 and not (starts[p] <= starts[i] <= ends[i] <= ends[p]):
                name, parent = self.names[self.span_name[i]], self.names[self.span_name[p]]
                problems.append(f"span {i} ({name}) is not inside its parent ({parent})")
                if len(problems) >= 5:
                    break
        return problems

    def dump(self, directory: Path) -> None:
        """Write the spans: names as JSON, the four columns as raw arrays."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "spans.json").write_text(
            json.dumps(
                {
                    "names": self.names,
                    "columns": {
                        "name": "i",
                        "parent": "i",
                        "start": "d",
                        "end": "d",
                    },
                    "count": len(self.span_start),
                }
            )
        )
        with (directory / "spans.bin").open("wb") as fh:
            for col in (self.span_name, self.span_parent, self.span_start, self.span_end):
                col.tofile(fh)


# the per-layer self times that together cover the round loop; the worker
# checks that they add up to it, so a span left out of them shows
LOOP_SELF_METRICS = (
    "simnet.step_round.self_s",
    "graph.is_strongly_connected.self_s",
    "groups.lookup.self_s",
    "groups.effective_graph.self_s",
    "groups.join_group.self_s",
    "groups.leave_all.self_s",
    "bpd.on_discover.self_s",
    "bpd.on_update.self_s",
    "bpd.repair.self_s",
    "bpd.stage_start.self_s",
    "workloads.strategy_emit.self_s",
    "workloads.consensus_step.self_s",
    "metrics.de.self_s",
)


def layer_metrics(spans: dict, counts: dict, outputs: dict) -> dict[str, float]:
    """Per-layer metrics of one traced scenario.

    spans is `Tracer.summary()`, counts is `Tracer.counts`, outputs holds the
    totals read back from the CSVs. A ratio reads 1.0 when there was nothing
    to attempt.
    """

    def calls(name: str) -> int:
        return spans[name]["calls"]

    def self_s(*names: str) -> float:
        return sum(spans[n]["self_s"] for n in names)

    def ratio(hits: int, attempts: int) -> float:
        return hits / attempts if attempts else 1.0

    draws = calls("toplink.draw")
    return {
        "toplink.parse.self_s": self_s("toplink.parse"),
        # a random(k) draw is paid for by its connectivity check
        "toplink.build_graph.self_s": self_s("toplink.build_graph", "toplink.draw"),
        "toplink.build_graph.draws": draws,
        "toplink.build_graph.useful_ratio": ratio(calls("toplink.build_graph"), draws),
        "graph.is_strongly_connected.calls": calls("graph.is_strongly_connected"),
        "graph.is_strongly_connected.self_s": self_s("graph.is_strongly_connected"),
        "groups.form_groups.self_s": self_s("groups.form_groups"),
        "groups.send_groups.calls": calls("groups.send_groups"),
        "groups.recv_groups.calls": calls("groups.recv_groups"),
        "groups.lookup.self_s": self_s(
            "groups.send_groups", "groups.recv_groups", "groups.leader_group"
        ),
        "groups.effective_graph.calls": calls("groups.effective_graph"),
        "groups.effective_graph.self_s": self_s("groups.effective_graph"),
        "groups.join_group.calls": calls("groups.join_group"),
        "groups.join_group.self_s": self_s("groups.join_group"),
        "groups.join_group.applied_ratio": ratio(
            counts["groups.join_group.applied"], calls("groups.join_group")
        ),
        "groups.leave_all.calls": calls("groups.leave_all"),
        "groups.leave_all.self_s": self_s("groups.leave_all"),
        "groups.leader_group.calls": calls("groups.leader_group"),
        "bpd.on_discover.calls": calls("bpd.on_discover"),
        "bpd.on_discover.self_s": self_s("bpd.on_discover"),
        "bpd.on_discover.useful_ratio": ratio(
            counts["bpd.on_discover.useful"], calls("bpd.on_discover")
        ),
        "bpd.on_update.calls": calls("bpd.on_update"),
        "bpd.on_update.self_s": self_s("bpd.on_update"),
        "bpd.on_update.forward_ratio": ratio(
            counts["bpd.on_update.forward"], calls("bpd.on_update")
        ),
        "bpd.on_member_left.calls": calls("bpd.on_member_left"),
        "bpd.on_grp_qry.calls": calls("bpd.on_grp_qry"),
        "bpd.on_grp_ans.calls": calls("bpd.on_grp_ans"),
        "bpd.on_join_req.calls": calls("bpd.on_join_req"),
        "bpd.on_join_rep.calls": calls("bpd.on_join_rep"),
        "bpd.repair.self_s": self_s(*REPAIR_HANDLERS),
        "bpd.stage_start.self_s": self_s(
            "bpd.start_discovery", "bpd.update_targets", "bpd.start_update"
        ),
        "bpd.joins.update": counts["bpd.joins.update"],
        "bpd.joins.repair": counts["bpd.joins.repair"],
        "simnet.step_round.calls": calls("simnet.step_round"),
        "simnet.step_round.self_s": self_s("simnet.step_round"),
        "simnet.ctrl_deliveries": sum(calls(n) for n in DELIVERY_HANDLERS),
        "simnet.ctrl_messages": outputs["ctrl_messages"],
        "simnet.app_messages": outputs["app_messages"],
        "simnet.edges_before": outputs["edges_before"],
        "simnet.edges_after": outputs["edges_after"],
        "workloads.strategy_emit.calls": calls("workloads.strategy_emit"),
        "workloads.strategy_emit.self_s": self_s("workloads.strategy_emit"),
        "workloads.consensus_step.self_s": self_s("workloads.consensus_step"),
        "metrics.record_receipt.calls": calls("metrics.record_receipt"),
        "metrics.de.self_s": self_s(
            "metrics.record_receipt", "metrics.purge", "metrics.dissemination_efficiency"
        ),
        "cli.parse_scenario.self_s": self_s("cli.parse_scenario"),
        "cli.build_world.self_s": self_s("cli.build_world"),
        "cli.write_csv.self_s": self_s(
            "cli.write_rounds_csv", "cli.write_nodes_csv", "cli.write_summary_csv"
        ),
        "cli.nodes_rows": outputs["nodes_rows"],
    }

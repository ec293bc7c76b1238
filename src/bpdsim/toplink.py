"""TopLink: a small declarative language for peer communication topologies.

A description names the application parts, declares peers (optionally pinned
to hosts), and either picks a generated preset or lists explicit weighted
links::

    app smartgrid;
    actor meter;
    component averager;
    topology custom;
    nodes { n1 = 10.0.0.1, n2, n3 };
    links {
        n1 -> n2;
        n2 -> n3 weight 2;
        n3 -> n1;
    };
    leaders on;

Presets: ``ring`` (each peer links to the next in declaration order),
``random(k)`` (each peer gets k distinct out-neighbours, resampled until the
digraph is strongly connected), and ``custom`` (links listed explicitly).
``//`` starts a comment; whitespace is free-form. Statements end with ``;``
(optional after a closing brace and at end of file). Only ``topology`` and
``nodes`` are mandatory.

Link weights are positive rationals, parsed exactly (``weight 0.5`` becomes
Fraction(1, 2)).
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import DirectedGraph, NodeId, is_strongly_connected

MAX_BUILD_ATTEMPTS = 1000

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")
# integer, decimal, or exact rational p/q
_NUM_RE = re.compile(r"^[0-9]+(\.[0-9]+)?$|^[0-9]+/[0-9]+$")


class TopLinkError(Exception):
    """Base for description-file problems; carries the offending position."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line
        self.column = column


class TopLinkSyntaxError(TopLinkError):
    pass


class UnknownKeywordError(TopLinkError):
    pass


class DuplicatePeerError(TopLinkError):
    pass


class UnknownPeerError(TopLinkError):
    pass


class NonPositiveWeightError(TopLinkError):
    pass


class PresetMismatchError(TopLinkError):
    """links block present/absent contradicts the chosen preset."""


class InvalidFanoutError(TopLinkError):
    pass


class DuplicateLinkError(TopLinkError):
    pass


class SelfLinkError(TopLinkError):
    pass


class EmptyTopologyError(ValueError):
    pass


class NotConnectableError(RuntimeError):
    """random preset failed to produce a strongly connected digraph."""


@dataclass(frozen=True)
class PeerDecl:
    name: NodeId
    host: str | None = None


@dataclass(frozen=True)
class LinkDef:
    src: NodeId
    dst: NodeId
    weight: Fraction = Fraction(1)


@dataclass(frozen=True)
class TopologySpec:
    preset: str  # "ring" | "random" | "custom"
    peers: tuple[PeerDecl, ...]
    links: tuple[LinkDef, ...] = ()
    fanout: int | None = None
    app_name: str = ""
    actor_name: str = ""
    component_name: str = ""
    leaders_enabled: bool = False

    def peer_names(self) -> tuple[NodeId, ...]:
        return tuple(p.name for p in self.peers)


# --- tokenizer ---------------------------------------------------------------

@dataclass(frozen=True)
class _Tok:
    kind: str  # "word" | "punct" | "eof"
    text: str
    line: int
    col: int


_PUNCT = {"{", "}", ";", ",", "=", "(", ")"}


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            toks.append(_Tok("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            toks.append(_Tok("punct", ch, line, col))
            i += 1
            col += 1
            continue
        # word: host names, peer names, keywords, numbers; '-' allowed unless
        # it opens an arrow
        start = i
        start_col = col
        while i < n:
            c = text[i]
            if c in " \t\r\n" or c in _PUNCT or text.startswith("->", i) or text.startswith("//", i):
                break
            i += 1
            col += 1
        toks.append(_Tok("word", text[start:i], line, start_col))
    toks.append(_Tok("eof", "", line, col))
    return toks


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect_punct(self, text: str) -> _Tok:
        t = self.next()
        if t.kind != "punct" or t.text != text:
            raise TopLinkSyntaxError(f"expected {text!r}, got {t.text!r}", t.line, t.col)
        return t

    def expect_word(self, what: str) -> _Tok:
        t = self.next()
        if t.kind != "word":
            raise TopLinkSyntaxError(f"expected {what}, got {t.text!r}", t.line, t.col)
        return t

    def end_statement(self, after_brace: bool = False) -> None:
        t = self.peek()
        if t.kind == "punct" and t.text == ";":
            self.next()
            return
        if after_brace or t.kind == "eof":
            return
        raise TopLinkSyntaxError(f"expected ';', got {t.text!r}", t.line, t.col)

    def parse(self) -> TopologySpec:
        fields: dict[str, object] = {}
        seen: dict[str, int] = {}
        while True:
            t = self.peek()
            if t.kind == "eof":
                break
            if t.kind != "word":
                raise TopLinkSyntaxError(f"expected statement, got {t.text!r}", t.line, t.col)
            if t.text in seen:
                raise TopLinkSyntaxError(f"duplicate {t.text!r} statement", t.line, t.col)
            handler = {
                "app": self._stmt_name,
                "actor": self._stmt_name,
                "component": self._stmt_name,
                "topology": self._stmt_topology,
                "nodes": self._stmt_nodes,
                "links": self._stmt_links,
                "leaders": self._stmt_leaders,
            }.get(t.text)
            if handler is None:
                raise UnknownKeywordError(f"unknown keyword {t.text!r}", t.line, t.col)
            seen[t.text] = t.line
            handler(fields)

        if "nodes" not in seen:
            last = self.toks[-1]
            raise TopLinkSyntaxError("missing 'nodes' statement", last.line)
        if "topology" not in seen:
            last = self.toks[-1]
            raise TopLinkSyntaxError("missing 'topology' statement", last.line)

        preset = fields["preset"]
        peers: tuple[PeerDecl, ...] = fields["peers"]  # type: ignore[assignment]
        known = {p.name for p in peers}
        links_out: list[LinkDef] = []
        for src, dst, weight in fields.get("_links", []):  # type: ignore[union-attr]
            for tok in (src, dst):
                if tok.text not in known:
                    raise UnknownPeerError(
                        f"link references undeclared peer {tok.text!r}", tok.line, tok.col
                    )
            links_out.append(LinkDef(src.text, dst.text, weight))
        links = tuple(links_out)
        if preset == "custom" and not links:
            raise PresetMismatchError(
                "preset 'custom' requires a non-empty links block", seen["topology"]
            )
        if preset != "custom" and links:
            raise PresetMismatchError(
                f"preset {preset!r} does not accept explicit links", seen["links"]
            )
        fanout = fields.get("fanout")
        if preset == "random" and fanout is not None and fanout > len(peers) - 1:
            raise InvalidFanoutError(
                f"fanout {fanout} needs at least {fanout + 1} peers, got {len(peers)}",
                seen["topology"],
            )
        return TopologySpec(
            preset=preset,  # type: ignore[arg-type]
            peers=peers,
            links=links,
            fanout=fanout,  # type: ignore[arg-type]
            app_name=fields.get("app", ""),  # type: ignore[arg-type]
            actor_name=fields.get("actor", ""),  # type: ignore[arg-type]
            component_name=fields.get("component", ""),  # type: ignore[arg-type]
            leaders_enabled=fields.get("leaders", False),  # type: ignore[arg-type]
        )

    def _stmt_name(self, fields: dict) -> None:
        key = self.next().text
        val = self.expect_word(f"{key} name")
        fields[key] = val.text
        self.end_statement()

    def _stmt_leaders(self, fields: dict) -> None:
        self.next()
        val = self.expect_word("'on' or 'off'")
        if val.text not in ("on", "off"):
            raise TopLinkSyntaxError(f"expected 'on' or 'off', got {val.text!r}", val.line, val.col)
        fields["leaders"] = val.text == "on"
        self.end_statement()

    def _stmt_topology(self, fields: dict) -> None:
        self.next()
        t = self.expect_word("preset name")
        if t.text not in ("ring", "random", "custom"):
            raise UnknownKeywordError(f"unknown preset {t.text!r}", t.line, t.col)
        fields["preset"] = t.text
        if t.text == "random":
            self.expect_punct("(")
            num = self.expect_word("fanout")
            if not num.text.isdigit():
                raise TopLinkSyntaxError(f"fanout must be an integer, got {num.text!r}", num.line, num.col)
            fanout = int(num.text)
            if fanout < 1:
                raise InvalidFanoutError(f"fanout must be >= 1, got {fanout}", num.line, num.col)
            fields["fanout"] = fanout
            self.expect_punct(")")
        self.end_statement()

    def _stmt_nodes(self, fields: dict) -> None:
        self.next()
        self.expect_punct("{")
        peers: list[PeerDecl] = []
        names: set[str] = set()
        while True:
            t = self.expect_word("peer name")
            if not _NAME_RE.match(t.text):
                raise TopLinkSyntaxError(f"invalid peer name {t.text!r}", t.line, t.col)
            host: str | None = None
            if self.peek().text == "=" and self.peek().kind == "punct":
                self.next()
                host = self.expect_word("host").text
            if t.text in names:
                raise DuplicatePeerError(f"peer {t.text!r} declared twice", t.line, t.col)
            names.add(t.text)
            peers.append(PeerDecl(t.text, host))
            nxt = self.next()
            if nxt.kind == "punct" and nxt.text == ",":
                continue
            if nxt.kind == "punct" and nxt.text == "}":
                break
            raise TopLinkSyntaxError(f"expected ',' or '}}', got {nxt.text!r}", nxt.line, nxt.col)
        fields["peers"] = tuple(peers)
        self.end_statement(after_brace=True)

    def _stmt_links(self, fields: dict) -> None:
        self.next()
        self.expect_punct("{")
        links: list[tuple[_Tok, _Tok, Fraction]] = []
        seen_pairs: set[tuple[str, str]] = set()
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text == "}":
                self.next()
                break
            src = self.expect_word("peer name")
            self.expect_punct("->")
            dst = self.expect_word("peer name")
            weight = Fraction(1)
            nxt = self.peek()
            if nxt.kind == "word" and nxt.text == "weight":
                self.next()
                num = self.expect_word("weight value")
                if not _NUM_RE.match(num.text):
                    if num.text.startswith("-") and _NUM_RE.match(num.text[1:]):
                        raise NonPositiveWeightError(
                            f"weight must be positive, got {num.text}", num.line, num.col
                        )
                    raise TopLinkSyntaxError(f"expected a number, got {num.text!r}", num.line, num.col)
                try:
                    weight = Fraction(num.text)
                except ZeroDivisionError:
                    raise TopLinkSyntaxError(f"bad rational {num.text!r}", num.line, num.col) from None
                if weight <= 0:
                    raise NonPositiveWeightError(f"weight must be positive, got {num.text}", num.line, num.col)
            if src.text == dst.text:
                raise SelfLinkError(f"link from {src.text!r} to itself", src.line, src.col)
            if (src.text, dst.text) in seen_pairs:
                raise DuplicateLinkError(f"duplicate link {src.text} -> {dst.text}", src.line, src.col)
            seen_pairs.add((src.text, dst.text))
            links.append((src, dst, weight))
            self.end_statement()
        fields["_links"] = links
        self.end_statement(after_brace=True)


def parse_toplink(text: str) -> TopologySpec:
    """Parse a TopLink document; raises a TopLinkError subclass on bad input."""
    return _Parser(text).parse()


def parse_toplink_file(path) -> TopologySpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_toplink(fh.read())


def _fmt_weight(w: Fraction) -> str:
    if w.denominator == 1:
        return str(w.numerator)
    return f"{w.numerator}/{w.denominator}"


def pretty_print(spec: TopologySpec) -> str:
    """Canonical text form; parse(pretty_print(s)) == s."""
    out: list[str] = []
    if spec.app_name:
        out.append(f"app {spec.app_name};")
    if spec.actor_name:
        out.append(f"actor {spec.actor_name};")
    if spec.component_name:
        out.append(f"component {spec.component_name};")
    if spec.preset == "random":
        out.append(f"topology random({spec.fanout});")
    else:
        out.append(f"topology {spec.preset};")
    decls = ", ".join(p.name if p.host is None else f"{p.name} = {p.host}" for p in spec.peers)
    out.append(f"nodes {{ {decls} }};")
    if spec.links:
        out.append("links {")
        for ln in spec.links:
            if ln.weight == 1:
                out.append(f"    {ln.src} -> {ln.dst};")
            else:
                out.append(f"    {ln.src} -> {ln.dst} weight {_fmt_weight(ln.weight)};")
        out.append("};")
    out.append(f"leaders {'on' if spec.leaders_enabled else 'off'};")
    return "\n".join(out) + "\n"


def build_graph(spec: TopologySpec, seed: int = 0) -> DirectedGraph:
    """Expand a description into a concrete digraph.

    ring: peer i links to peer i+1 in declaration order, weight 1.
    random(k): every peer gets k distinct out-neighbours drawn from the seeded
    generator; the draw is repeated (bounded) until strongly connected.
    custom: the declared links, verbatim.
    """
    names = list(spec.peer_names())
    if not names:
        raise EmptyTopologyError("topology has no peers")
    if spec.preset == "custom":
        edges = {(l.src, l.dst): l.weight for l in spec.links}
        return DirectedGraph(tuple(names), edges)
    if spec.preset == "ring":
        if len(names) < 2:
            raise NotConnectableError("ring needs at least 2 peers")
        edges = {}
        for i, name in enumerate(names):
            edges[(name, names[(i + 1) % len(names)])] = Fraction(1)
        return DirectedGraph(tuple(names), edges)
    if spec.preset == "random":
        k = spec.fanout or 1
        if k > len(names) - 1:
            raise NotConnectableError(f"fanout {k} impossible with {len(names)} peers")
        rng = random.Random(seed)
        for _ in range(MAX_BUILD_ATTEMPTS):
            edges = {}
            for name in names:
                others = [m for m in names if m != name]
                for dst in rng.sample(others, k):
                    edges[(name, dst)] = Fraction(1)
            g = DirectedGraph(tuple(names), edges)
            if is_strongly_connected(g):
                return g
        raise NotConnectableError(
            f"no strongly connected draw within {MAX_BUILD_ATTEMPTS} attempts"
        )
    raise ValueError(f"unknown preset {spec.preset!r}")


def export_manifest(assignment, spec: TopologySpec) -> str:
    """Deployment manifest: per peer its host, roles, and group memberships.

    Line-oriented `key value` text with fixed ordering, so repeated exports of
    the same assignment are byte-identical.
    """
    lines: list[str] = ["manifest-version 1"]
    for key, val in (
        ("app", spec.app_name),
        ("actor", spec.actor_name),
        ("component", spec.component_name),
    ):
        if val:
            lines.append(f"{key} {val}")
    preset = f"random({spec.fanout})" if spec.preset == "random" else spec.preset
    lines.append(f"topology {preset}")
    lines.append(f"peers {len(spec.peers)}")
    lines.append(f"groups {len(assignment.groups)}")
    hosts = {p.name: p.host for p in spec.peers}
    for peer in spec.peer_names():
        lines.append("")
        lines.append(f"peer {peer}")
        if hosts.get(peer):
            lines.append(f"  host {hosts[peer]}")
        sends = sorted(g.gid for g in assignment.send_groups(peer))
        recvs = sorted(g.gid for g in assignment.recv_groups(peer))
        if sends:
            lines.append("  sends " + " ".join(sends))
        if recvs:
            lines.append("  receives " + " ".join(recvs))
    for gid in sorted(assignment.groups):
        grp = assignment.groups[gid]
        lines.append("")
        lines.append(f"group {gid}")
        lines.append(f"  weight {_fmt_weight(grp.weight)}")
        if grp.senders:
            lines.append("  senders " + " ".join(sorted(grp.senders)))
        if grp.receivers:
            lines.append("  receivers " + " ".join(sorted(grp.receivers)))
        if spec.leaders_enabled:
            alive = set(grp.senders) | set(grp.receivers)
            if alive:
                lines.append(f"  leader {min(alive)}")
    return "\n".join(lines) + "\n"

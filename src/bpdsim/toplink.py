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
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .graph import DirectedGraph, NodeId, is_strongly_connected

MAX_BUILD_ATTEMPTS = 1000

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")
# integer, decimal, or exact rational p/q
_NUM_RE = re.compile(r"^[0-9]+(\.[0-9]+)?$|^[0-9]+/[0-9]+$")
# a fanout: ASCII digits, as in a weight (str.isdigit also takes '²' and '٣')
_INT_RE = re.compile(r"^[0-9]+$")


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


class PeerDecl(NamedTuple):
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

class _Tok(NamedTuple):
    kind: str  # "word" | "punct" | "eof"
    text: str
    line: int
    col: int


# Every character but blanks (space, tab, carriage return) starts exactly one
# of these, so the scanner skips blanks by searching past them and matches
# only comments, newlines and tokens; a newline still moves the line, so each
# token keeps its line and column. A word runs up to a blank, a newline,
# punctuation, an arrow or a comment; it may hold '-' and '/' otherwise (host
# names, rationals such as 1/2). No word's text is ever a punctuation text.
_TOKEN_RE = re.compile(
    r"(?P<comment>//[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<punct>->|[{};,=()])"
    r"|(?P<word>(?:[^ \t\r\n{};,=()/-]|-(?!>)|/(?!/))+)"
)

# builds a token or a peer declaration from all its fields, in order, without
# NamedTuple's Python-level __new__
_new = tuple.__new__


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    append = toks.append
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind != "comment":
            append(_new(_Tok, (kind, m[0], line, m.start() - line_start + 1)))
    append(_new(_Tok, ("eof", "", line, len(text) - line_start + 1)))
    return toks


# --- parser ------------------------------------------------------------------
# A punctuation token is recognised by its text alone: no word and not the
# end of file carries one.

class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect_punct(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise TopLinkSyntaxError(f"expected {text!r}, got {t.text!r}", t.line, t.col)
        return t

    def expect_word(self, what: str) -> _Tok:
        t = self.next()
        if t.kind != "word":
            raise TopLinkSyntaxError(f"expected {what}, got {t.text!r}", t.line, t.col)
        return t

    def end_statement(self, after_brace: bool = False) -> None:
        t = self.toks[self.pos]
        if t.text == ";":
            self.pos += 1
        elif not after_brace and t.kind != "eof":
            raise TopLinkSyntaxError(f"expected ';', got {t.text!r}", t.line, t.col)

    def parse(self) -> TopologySpec:
        fields: dict[str, object] = {}
        seen: dict[str, int] = {}
        handlers = {
            "app": self._stmt_name,
            "actor": self._stmt_name,
            "component": self._stmt_name,
            "topology": self._stmt_topology,
            "nodes": self._stmt_nodes,
            "links": self._stmt_links,
            "leaders": self._stmt_leaders,
        }
        while (t := self.toks[self.pos]).kind != "eof":
            self.pos += 1
            if t.kind != "word":
                raise TopLinkSyntaxError(f"expected statement, got {t.text!r}", t.line, t.col)
            if t.text in seen:
                raise TopLinkSyntaxError(f"duplicate {t.text!r} statement", t.line, t.col)
            if t.text not in handlers:
                raise UnknownKeywordError(f"unknown keyword {t.text!r}", t.line, t.col)
            seen[t.text] = t.line
            handlers[t.text](fields, t.text)

        for required in ("nodes", "topology"):
            if required not in seen:
                raise TopLinkSyntaxError(f"missing {required!r} statement", self.toks[-1].line)

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

    def _stmt_name(self, fields: dict, key: str) -> None:
        val = self.expect_word(f"{key} name")
        fields[key] = val.text
        self.end_statement()

    def _stmt_leaders(self, fields: dict, key: str) -> None:
        val = self.expect_word("'on' or 'off'")
        if val.text not in ("on", "off"):
            raise TopLinkSyntaxError(f"expected 'on' or 'off', got {val.text!r}", val.line, val.col)
        fields["leaders"] = val.text == "on"
        self.end_statement()

    def _stmt_topology(self, fields: dict, key: str) -> None:
        t = self.expect_word("preset name")
        if t.text not in ("ring", "random", "custom"):
            raise UnknownKeywordError(f"unknown preset {t.text!r}", t.line, t.col)
        fields["preset"] = t.text
        if t.text == "random":
            self.expect_punct("(")
            num = self.expect_word("fanout")
            if not _INT_RE.match(num.text):
                raise TopLinkSyntaxError(f"fanout must be an integer, got {num.text!r}", num.line, num.col)
            fanout = int(num.text)
            if fanout < 1:
                raise InvalidFanoutError(f"fanout must be >= 1, got {fanout}", num.line, num.col)
            fields["fanout"] = fanout
            self.expect_punct(")")
        self.end_statement()

    def _stmt_nodes(self, fields: dict, key: str) -> None:
        self.expect_punct("{")
        # one peer declaration per turn, read by index from the token list:
        # `name [= host]` and then ',' or '}'
        toks, i = self.toks, self.pos
        valid_name = _NAME_RE.match
        peers: list[PeerDecl] = []
        names: set[str] = set()
        while True:
            kind, name, line, col = toks[i]
            if kind != "word":
                raise TopLinkSyntaxError(f"expected peer name, got {name!r}", line, col)
            if not valid_name(name):
                raise TopLinkSyntaxError(f"invalid peer name {name!r}", line, col)
            host: str | None = None
            nxt = toks[i + 1]
            if nxt.text == "=":
                t = toks[i + 2]
                if t.kind != "word":
                    raise TopLinkSyntaxError(f"expected host, got {t.text!r}", t.line, t.col)
                host = t.text
                i += 2
                nxt = toks[i + 1]
            if name in names:
                raise DuplicatePeerError(f"peer {name!r} declared twice", line, col)
            names.add(name)
            peers.append(_new(PeerDecl, (name, host)))
            i += 2
            if nxt.text == ",":
                continue
            if nxt.text == "}":
                break
            raise TopLinkSyntaxError(f"expected ',' or '}}', got {nxt.text!r}", nxt.line, nxt.col)
        self.pos = i
        fields["peers"] = tuple(peers)
        self.end_statement(after_brace=True)

    def _stmt_links(self, fields: dict, key: str) -> None:
        self.expect_punct("{")
        links: list[tuple[_Tok, _Tok, Fraction]] = []
        seen_pairs: set[tuple[str, str]] = set()
        while True:
            if self.toks[self.pos].text == "}":
                self.pos += 1
                break
            src = self.expect_word("peer name")
            self.expect_punct("->")
            dst = self.expect_word("peer name")
            weight = Fraction(1)
            if self.toks[self.pos].text == "weight":
                self.pos += 1
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
                out.append(f"    {ln.src} -> {ln.dst} weight {ln.weight};")
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
    one = Fraction(1)  # one weight object shared by every generated edge
    if spec.preset == "custom":
        edges = {(l.src, l.dst): l.weight for l in spec.links}
        return DirectedGraph(tuple(names), edges)
    if spec.preset == "ring":
        if len(names) < 2:
            raise NotConnectableError("ring needs at least 2 peers")
        edges = {(name, names[(i + 1) % len(names)]): one for i, name in enumerate(names)}
        return DirectedGraph(tuple(names), edges)
    if spec.preset == "random":
        k = spec.fanout or 1
        if k > len(names) - 1:
            raise NotConnectableError(f"fanout {k} impossible with {len(names)} peers")
        rng = random.Random(seed)
        # each peer's candidates, made once: a draw samples the same lists in
        # the same order as if it built them afresh
        pools = [(name, [m for m in names if m != name]) for name in names]
        for _ in range(MAX_BUILD_ATTEMPTS):
            edges = {(name, dst): one for name, others in pools for dst in rng.sample(others, k)}
            g = DirectedGraph(tuple(names), edges)
            if is_strongly_connected(g):
                return g
        # one out-link each: only a draw that is one cycle through every peer
        # is strongly connected, a share of (n-1)!/(n-1)^n of the draws
        hint = (
            "; a random(1) draw is strongly connected only when it is one cycle"
            " through every peer, which is what topology ring builds"
        ) if k == 1 else ""
        raise NotConnectableError(
            f"no strongly connected draw within {MAX_BUILD_ATTEMPTS} attempts{hint}"
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
        sends = [g.gid for g in assignment.send_groups(peer)]
        recvs = [g.gid for g in assignment.recv_groups(peer)]
        if sends:
            lines.append("  sends " + " ".join(sends))
        if recvs:
            lines.append("  receives " + " ".join(recvs))
    for gid in sorted(assignment.groups):
        grp = assignment.groups[gid]
        lines.append("")
        lines.append(f"group {gid}")
        lines.append(f"  weight {assignment.exact(grp.weight)}")
        if grp.senders:
            lines.append("  senders " + " ".join(sorted(grp.senders)))
        if grp.receivers:
            lines.append("  receivers " + " ".join(sorted(grp.receivers)))
        if spec.leaders_enabled and grp.members:
            lines.append(f"  leader {min(grp.members)}")
    return "\n".join(lines) + "\n"

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bpdsim.toplink as tl
from bpdsim.graph import is_strongly_connected
from bpdsim.toplink import (
    EmptyTopologyError,
    LinkDef,
    PeerDecl,
    TopLinkError,
    TopologySpec,
    build_graph,
    export_manifest,
    parse_toplink,
    parse_toplink_file,
    pretty_print,
)
from bpdsim.groups import form_groups
from conftest import INVALID_TL

DATA = Path(__file__).parent / "data" / "toplink"


# --- corpus ------------------------------------------------------------


@pytest.mark.parametrize("path", sorted((DATA / "valid").glob("*.tl")), ids=lambda p: p.name)
def test_valid_corpus_parses_and_roundtrips(path):
    spec = parse_toplink_file(path)
    assert spec.peers
    again = parse_toplink(pretty_print(spec))
    assert again == spec


@pytest.mark.parametrize("name", sorted(INVALID_TL), ids=str)
def test_invalid_corpus_designations(name):
    cls_name, line, column = INVALID_TL[name]
    with pytest.raises(TopLinkError) as exc_info:
        parse_toplink_file(DATA / "invalid" / name)
    exc = exc_info.value
    assert type(exc).__name__ == cls_name
    assert (exc.line, exc.column) == (line, column)
    assert f"line {line}:" in str(exc)


def test_corpus_sizes():
    assert len(list((DATA / "valid").glob("*.tl"))) >= 12
    assert len(list((DATA / "invalid").glob("*.tl"))) >= 8
    assert set(INVALID_TL) == {p.name for p in (DATA / "invalid").glob("*.tl")}


# --- parsing details ---------------------------------------------------


def test_weights_parse_exactly():
    spec = parse_toplink_file(DATA / "valid" / "custom_weights.tl")
    weights = {(l.src, l.dst): l.weight for l in spec.links}
    assert weights[("a", "b")] == Fraction(2)
    assert weights[("b", "c")] == Fraction(1, 2)
    assert weights[("c", "a")] == Fraction(7, 3)


def test_default_weight_is_one():
    spec = parse_toplink(
        "topology custom;\nnodes { a, b };\nlinks { a -> b; b -> a; };"
    )
    assert all(l.weight == Fraction(1) for l in spec.links)


def test_hosts_recorded():
    spec = parse_toplink_file(DATA / "valid" / "ring_hosts.tl")
    assert spec.peers[0] == PeerDecl("alpha", "10.0.0.1")


def test_header_fields_and_leaders():
    spec = parse_toplink_file(DATA / "valid" / "full_header.tl")
    assert (spec.app_name, spec.actor_name, spec.component_name) == (
        "telemetry",
        "averager",
        "fieldbus",
    )
    assert spec.leaders_enabled


def test_duplicate_statement_rejected():
    with pytest.raises(TopLinkError):
        parse_toplink("topology ring;\ntopology ring;\nnodes { a, b };")


def test_links_before_nodes_validated():
    spec = parse_toplink_file(DATA / "valid" / "links_first.tl")
    assert {l.src for l in spec.links} == {"u", "v"}


def test_error_carries_position():
    for text, position in (
        ("topology ring;\nnodes { a, b, a };", (2, 15)),
        # end of file after a comment: the column past the comment's last character
        ("topology ring;\nnodes { a, b // c", (2, 18)),
    ):
        with pytest.raises(TopLinkError) as ei:
            parse_toplink(text)
        assert (ei.value.line, ei.value.column) == position


@given(st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=8, unique=True))
@settings(max_examples=30, deadline=None)
def test_ring_roundtrip_property(names):
    text = "topology ring;\nnodes { " + ", ".join(names) + " };"
    spec = parse_toplink(text)
    assert parse_toplink(pretty_print(spec)) == spec
    assert [p.name for p in spec.peers] == names


# --- graph construction ------------------------------------------------


def test_ring_build_follows_declaration_order():
    spec = parse_toplink("topology ring;\nnodes { c, a, b };")
    g = build_graph(spec)
    assert set(g.edges) == {("c", "a"), ("a", "b"), ("b", "c")}
    assert all(w == Fraction(1) for w in g.edges.values())


def test_ring_build_needs_two_peers():
    spec = TopologySpec(preset="ring", peers=(PeerDecl("only"),))
    with pytest.raises(tl.NotConnectableError):
        build_graph(spec)


def test_custom_build_verbatim():
    spec = parse_toplink_file(DATA / "valid" / "custom_weights.tl")
    g = build_graph(spec)
    assert g.edges[("c", "a")] == Fraction(7, 3)
    assert g.n_edges == 3


def test_random_build_sc_and_seeded():
    spec = parse_toplink_file(DATA / "valid" / "random_k2.tl")
    g1 = build_graph(spec, seed=5)
    g2 = build_graph(spec, seed=5)
    g3 = build_graph(spec, seed=6)
    assert g1.edges == g2.edges
    assert is_strongly_connected(g1)
    assert all(sum(u == n for u, _ in g1.edges) == 2 for n in g1.nodes)
    assert g3.edges != g1.edges  # overwhelmingly likely and frozen by the seed


def test_empty_topology_rejected():
    with pytest.raises(EmptyTopologyError):
        build_graph(TopologySpec(preset="ring", peers=()))


# --- manifest ----------------------------------------------------------


def test_manifest_deterministic_and_complete():
    spec = parse_toplink_file(DATA / "valid" / "full_header.tl")
    g = build_graph(spec)
    asg = form_groups(g)
    m1 = export_manifest(asg, spec)
    m2 = export_manifest(asg, spec)
    assert m1 == m2
    assert "manifest-version 1" in m1
    assert "app telemetry" in m1
    assert "peers 4" in m1
    assert "leader" in m1  # leaders on -> leaders listed


def test_manifest_hides_leaders_when_off():
    spec = parse_toplink_file(DATA / "valid" / "ring_min.tl")
    g = build_graph(spec)
    m = export_manifest(form_groups(g), spec)
    assert "leader" not in m

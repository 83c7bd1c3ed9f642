import hashlib
import json
import pathlib
import random
import sys
from collections import Counter

import pytest

from classicdl.descriptions import (
    CLASSIC_THING,
    HOST_THING,
    Individual,
    NamedRef,
    THING,
)
from classicdl.graph import (
    DescriptionGraph,
    GraphNode,
    INF,
    merge_graphs,
    merge_nodes,
    REdge,
    to_jsonable,
    translate,
)
from classicdl.kb import KnowledgeBase
from classicdl.normalize import canonicalize
from classicdl.parsing import parse_description
from classicdl.randgen import random_pair
from oracles import ast_size, graph_size, isomorphic

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def test_merge_nodes_atoms_union():
    n1 = GraphNode(atoms={CLASSIC_THING})
    n2 = GraphNode(atoms={"GAME"})
    merged = merge_nodes(n1, n2)
    assert merged.atoms == {CLASSIC_THING, "GAME"}
    assert merged.dom is None


def test_merge_nodes_dom_intersection():
    p, q, r = Individual("P"), Individual("Q"), Individual("R")
    n1 = GraphNode(atoms={CLASSIC_THING}, dom=frozenset({p, q}))
    n2 = GraphNode(atoms={CLASSIC_THING}, dom=frozenset({q, r}))
    assert merge_nodes(n1, n2).dom == frozenset({q})
    # universal marker is the identity
    n3 = GraphNode(atoms={CLASSIC_THING}, dom=None)
    assert merge_nodes(n1, n3).dom == frozenset({p, q})


def test_merge_nodes_keeps_duplicate_redges(parse):
    g1 = translate(parse("at-least(1, r)"))
    g2 = translate(parse("at-least(2, r)"))
    merged = merge_nodes(g1.root_node, g2.root_node)
    # duplicates are retained as a bag; normalization merges them later
    assert len(merged.r_edges) == 2


def test_merge_graphs_thing_thing(parse):
    g = merge_graphs(translate(parse("thing")), translate(parse("thing")))
    assert len(g.nodes) == 1
    assert g.root_node.atoms == {THING}


def test_merge_graphs_node_count(parse):
    g1 = translate(parse("same-as((coach),(captain,father))"))
    g2 = translate(parse("all(coach, GAME)"))
    # merging moves the inputs, so their sizes are read first
    expected = len(g1.nodes) + len(g2.nodes) - 1
    assert len(merge_graphs(g1, g2).nodes) == expected


def test_merge_graphs_is_nary(parse):
    parts = [translate(parse(t)) for t in
             ("GAME", "at-least(2, r)", "same-as((coach),(captain))",
              "all(r, PERSON)")]
    expected = sum(len(g.nodes) for g in parts) - len(parts) + 1
    merged = merge_graphs(*parts)
    assert len(merged.nodes) == expected
    root = merged.root_node
    assert root.atoms == {"GAME", CLASSIC_THING}
    assert sorted((e.role, e.min) for e in root.r_edges) == \
        [("r", 0), ("r", 2)]
    assert sorted(e.attr for e in merged.a_edges
                  if e.src == merged.root) == ["captain", "coach"]
    assert isomorphic(
        canonicalize(merged),
        canonicalize(translate(parse(
            "and(GAME, at-least(2, r), same-as((coach),(captain)), "
            "all(r, PERSON))"))))


def test_merge_game_atleast(parse):
    merged = merge_graphs(translate(parse("GAME")),
                          translate(parse("at-least(4, participants)")))
    assert len(merged.nodes) == 1
    root = merged.root_node
    assert root.atoms == {"GAME", CLASSIC_THING}
    (edge,) = root.r_edges
    assert (edge.role, edge.min, edge.max) == ("participants", 4, INF)
    assert edge.restriction.root_node.atoms == {THING}


def test_figure_structure(parse):
    g = translate(parse("and(GAME, all(participants, PERSON), "
                        "same-as((coach),(captain,father)))"))
    assert len(g.nodes) == 3
    assert len(g.a_edges) == 3
    assert {e.attr for e in g.a_edges} == {"coach", "captain", "father"}
    root = g.root_node
    assert "GAME" in root.atoms
    (edge,) = root.r_edges
    assert (edge.role, edge.min, edge.max) == ("participants", 0, INF)
    assert len(edge.restriction.nodes) == 1
    assert edge.restriction.root_node.atoms == {"PERSON"}


def test_figure_golden(parse):
    g = translate(parse("and(GAME, all(participants, PERSON), "
                        "same-as((coach),(captain,father)))"))
    expected = json.loads((GOLDENS / "figure1.json").read_text())
    assert to_jsonable(g) == expected


def test_one_of_translation(parse):
    g = translate(parse("one-of(P, Q)"))
    assert len(g.nodes) == 1
    assert g.root_node.atoms == {CLASSIC_THING}
    assert g.root_node.dom == frozenset({Individual("P"), Individual("Q")})


def test_one_of_host_translation(parse):
    g = translate(parse("one-of(4, 7)"))
    assert g.root_node.atoms == {HOST_THING}


def test_attribute_fill_translation(parse):
    g = translate(parse("fills(coach, Pat)"))
    assert len(g.nodes) == 2
    (edge,) = g.a_edges
    assert edge.attr == "coach"
    assert g.nodes[edge.dst].dom == {Individual("Pat")}
    assert to_jsonable(g)["aedges"][0]["fillers"] == ["Pat"]
    assert g.nodes[edge.dst].atoms == {CLASSIC_THING}


def test_role_fill_translation(parse):
    g = translate(parse("fills(r, Pat)"))
    (edge,) = g.root_node.r_edges
    assert edge.fillers == {Individual("Pat")}
    assert (edge.min, edge.max) == (0, INF)


def test_same_as_single_link_chains(parse):
    # both chains of length one attach straight to the shared end node
    g = translate(parse("same-as((coach),(captain))"))
    assert len(g.nodes) == 2
    assert len(g.a_edges) == 2
    assert {e.src for e in g.a_edges} == {g.root}
    (dst,) = {e.dst for e in g.a_edges}
    assert g.nodes[dst].atoms == {THING}


def test_nothing_translates_incoherent(parse):
    g = translate(parse("nothing"))
    assert g.incoherent and len(g.nodes) == 1


def test_translate_requires_expansion():
    with pytest.raises(ValueError, match="expanded"):
        translate(NamedRef("X"))


def test_size_linear(parse):
    texts = [
        "and(GAME, at-least(4, participants), all(participants, PERSON))",
        "same-as((coach,father),(captain,father,coach))",
        "and(one-of(P,Q), fills(r, Pat), at-most(3, s), all(f, nothing))",
        "all(r, all(s, all(r, and(GAME, PERSON, TALL))))",
    ]
    for text in texts:
        d = parse(text)
        assert graph_size(translate(d)) <= 6 * ast_size(d)


def test_role_edges_are_cut_edges(parse):
    # nested restriction graphs share no node ids with their parents
    def all_ids(g, acc):
        acc.update(g.nodes)
        for node in g.nodes.values():
            for e in node.r_edges:
                sub = set()
                all_ids(e.restriction, sub)
                assert not (sub & set(g.nodes))
                acc.update(sub)

    g = translate(parse("and(all(r, and(GAME, at-least(1, s))), "
                        "at-most(2, s), all(f, PERSON))"))
    all_ids(g, set())


def test_isomorphic_ignores_ids(parse):
    d = parse("and(GAME, all(participants, PERSON))")
    assert isomorphic(translate(d), translate(d))
    assert not isomorphic(translate(d), translate(parse("GAME")))


def test_dump_is_deterministic(parse):
    d = parse("and(GAME, same-as((coach),(captain,father)), "
              "fills(r, Pat), one-of(P, Q))")
    assert to_jsonable(translate(d)) == to_jsonable(translate(d))


# Raw graphs in which one node has several a-edges for one attribute, so
# that their dumps depend on the order ``traversal_ranks`` gives ties.
TIED_TEXTS = (
    "and(all(f, A), all(f, B))",
    "and(fills(f, P), all(f, A), same-as((f, g), (h)))",
    "and(same-as((f), (g)), same-as((f, h), (g)))",
    "all(r, and(all(f, all(g, A)), all(f, B), fills(f, Q)))",
)
RAW_DUMP_DIGEST = \
    "8aca3a7aaac6b29c778b5480860c1262a3743280a23245ad5c65e3b1a27a69e2"


def test_raw_graph_dumps_match_digest(parse):
    # The translated subsumees of the first 3,000 seed-0 pairs, then the
    # texts above; 218 of those graphs and all four texts have a tie.
    rng = random.Random(0)
    descs = [random_pair(rng)[1] for _ in range(3000)]
    descs += [parse(text) for text in TIED_TEXTS]
    digest, tied = hashlib.sha256(), 0
    for d in descs:
        g = translate(d)
        tied += any(n > 1 for sub in g.subgraphs()
                    for n in Counter((e.src, e.attr)
                                     for e in sub.a_edges).values())
        digest.update(json.dumps(to_jsonable(g), sort_keys=True).encode())
        digest.update(b"\n")
    assert tied > 100
    assert digest.hexdigest() == RAW_DUMP_DIGEST


def figure1_canonical(parse):
    return canonicalize(translate(parse(
        "and(GAME, all(participants, PERSON), "
        "same-as((coach),(captain,father)))")))


def test_edge_lookups_on_figure1(parse):
    g = figure1_canonical(parse)
    coach = g.attr_edge(g.root, "coach")
    captain = g.attr_edge(g.root, "captain")
    assert coach is not None and captain is not None
    end, mid = coach.dst, captain.dst
    assert g.attr_edge(mid, "father").dst == end
    assert g.attr_edge(g.root, "father") is None
    assert g.attr_edge(g.root, "participants") is None
    part = g.role_edge(g.root, "participants")
    assert "PERSON" in part.restriction.root_node.atoms
    assert g.role_edge(g.root, "coach") is None
    assert g.role_edge(mid, "participants") is None
    assert g.follow(g.root, ("captain", "father")) == (end, 2)
    assert g.follow(g.root, ()) == (g.root, 0)
    # a broken chain stops at the last node reached
    assert g.follow(g.root, ("captain", "coach", "father")) == (mid, 1)


# The deep shapes of the scaling families: n-ary and, same-as chain, and
# nested all.  Names are inferred (no KB).
def _and_shape(n: int) -> str:
    items = []
    for i in range(n):
        items.append(("A%d" % i, "at-least(%d, r%d)" % (1 + i % 3, i),
                      "same-as((f%d),(g%d))" % (i, i))[i % 3])
    return "and(%s)" % ", ".join(items)


def _chain_shape(n: int) -> str:
    parts = ["same-as((a%d),(b%d))" % (i, i) for i in range(1, n + 1)]
    parts += ["same-as((a%d),(a%d))" % (i, i + 1) for i in range(1, n)]
    return "and(%s)" % ", ".join(parts)


def _nested_shape(n: int) -> str:
    text = "X0"
    for k in range(1, n + 1):
        text = "all(r, and(X%d, at-least(1, r), %s))" % (k, text)
    return text


DEEP_SHAPES = [_and_shape(256), _chain_shape(128), _nested_shape(64)]
DEEP_IDS = ["and-256", "chain-128", "nested-64"]


@pytest.fixture
def clone_calls(monkeypatch):
    calls = []
    original = GraphNode.clone

    def counted(node):
        calls.append(node)
        return original(node)

    monkeypatch.setattr(GraphNode, "clone", counted)
    return calls


@pytest.mark.parametrize("text", DEEP_SHAPES, ids=DEEP_IDS)
def test_translate_clones_no_node(text, clone_calls):
    d = parse_description(text)
    translate(d)
    assert clone_calls == []


def thawed(g):
    """A copy of ``g`` canonical under no knowledge base: every graph in
    it is copied but the shared {THING} restriction, canonical under every
    one, so ``canonicalize`` runs every rule on the copy again."""
    return g._clones(object())[0]


@pytest.mark.parametrize("text", DEEP_SHAPES, ids=DEEP_IDS)
def test_canonicalize_clones_each_frozen_node_once(text, clone_calls):
    # A fresh graph is normalized in place, with no node cloned.  Each
    # node of a graph frozen under another knowledge base is cloned
    # exactly once; no node of a graph canonical under every one, such as
    # the shared {THING} restriction, is cloned.
    g = translate(parse_description(text))
    assert canonicalize(g) is g
    assert clone_calls == []
    kb = KnowledgeBase.empty()
    nodes = [n for sub in g.subgraphs() if not sub.canonical_under(kb)
             for n in sub.nodes.values()]
    canonicalize(g, kb)
    assert Counter(map(id, clone_calls)) == Counter(map(id, nodes))


def test_canonicalize_shares_frozen_restrictions(clone_calls):
    # As classify does with told names: a canonical graph merged with a
    # new clause.  The merge copied the canonical graph's nodes, so it is
    # normalized in place; the canonical graph's restriction graphs are
    # shared, not copied.
    told = canonicalize(translate(parse_description(
        "and(A, all(r, and(B, all(s, C))), same-as((f),(g)))")))
    g = merge_graphs(told, translate(parse_description("D")))
    before = to_jsonable(told)
    clone_calls.clear()
    out = canonicalize(g)
    assert out is g
    assert clone_calls == []
    assert out.role_edge(out.root, "r").restriction is \
        told.role_edge(told.root, "r").restriction
    assert to_jsonable(told) == before


def test_merge_graphs_copies_a_frozen_input():
    # A frozen graph is a value: a merge copies its nodes and r-edges, so
    # normalizing the merge, in place, leaves it unchanged.
    told = canonicalize(translate(parse_description(
        "and(A, all(r, and(B, all(s, C))), same-as((f),(g)))")))
    before = to_jsonable(told)
    g = merge_graphs(told, translate(parse_description(
        "and(D, at-most(0, r), all(f, E))")))
    nodes = [n for sub in (told, g) for n in sub.nodes.values()]
    edges = [e for n in nodes for e in n.r_edges]
    assert len(set(map(id, nodes))) == len(nodes)
    assert len(set(map(id, edges))) == len(edges)
    canonicalize(g)
    assert to_jsonable(told) == before


def _preorder(g):
    """The recursive reference walk ``subgraphs`` must agree with."""
    out = [g]
    for node in g.nodes.values():
        for e in node.r_edges:
            out += _preorder(e.restriction)
    return out


def test_subgraphs_order_matches_recursive_preorder():
    rng = random.Random(0)
    for _ in range(500):
        for d in random_pair(rng):
            for g in (translate(d), canonicalize(translate(d))):
                assert [id(s) for s in g.subgraphs()] == \
                    [id(s) for s in _preorder(g)]


def _hand_built_chain(depth):
    """Graphs nested ``depth`` deep through r-edges, innermost first.
    Built by hand: translate still recurses per level."""
    chain = []
    inner = None
    for _ in range(depth):
        g = DescriptionGraph()
        g.root = g.add_node(GraphNode(atoms={"A"}))
        if inner is not None:
            g.root_node.r_edges.append(REdge("r", 0, INF, inner))
        chain.append(g)
        inner = g
    return chain


def test_subgraphs_has_no_depth_ceiling():
    chain = _hand_built_chain(3 * sys.getrecursionlimit())
    assert [id(s) for s in chain[-1].subgraphs()] == \
        [id(s) for s in reversed(chain)]


def test_canonicalize_has_no_depth_ceiling():
    depth = 3 * sys.getrecursionlimit()
    chain = _hand_built_chain(depth)
    out = list(canonicalize(chain[-1]).subgraphs())
    assert len(out) == depth
    assert all(s.root_node.atoms == {"A", CLASSIC_THING} for s in out)
    # The fresh chain was normalized in place.
    assert [id(s) for s in out] == [id(s) for s in reversed(chain)]

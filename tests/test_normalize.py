import contextlib
import random

import pytest

from classicdl import graph, normalize
from classicdl.descriptions import CLASSIC_THING, Individual, NOTHING, host_int
from classicdl.graph import to_jsonable, translate
from classicdl.kb import DEFAULT_LATTICE, expand
from classicdl.normalize import canonical_graph, canonicalize
from classicdl.parsing import parse_description, parse_kb
from classicdl.randgen import corpus_kb, random_pair
from oracles import graph_shape, isomorphic, rule_order
from test_canonical_goldens import golden_kb
from test_graph import DEEP_SHAPES, thawed


def canon(parse, text, kb=None):
    return canonicalize(translate(parse(text)), kb)


def _order(reverse):
    """The engine's rule order, or, for ``reverse``, the passes and the
    nodes in reverse, with another round after any change."""
    return (rule_order(reversed(normalize._PASSES), reverse_nodes=True)
            if reverse else contextlib.nullcontext())


def test_min_above_max_is_incoherent(parse):
    g = canon(parse, "and(at-least(2, r), at-most(1, r))")
    assert g.incoherent
    assert g.root_node.atoms == {NOTHING}
    assert len(g.nodes) == 1


def test_zero_max_marks_restriction_only(parse):
    g = canon(parse, "and(at-most(0, r), all(r, GAME))")
    assert not g.incoherent
    (edge,) = g.root_node.r_edges
    assert edge.max == 0
    assert edge.restriction.incoherent


def test_incoherent_restriction_zeroes_max(parse):
    g = canon(parse, "all(r, nothing)")
    (edge,) = g.root_node.r_edges
    assert edge.max == 0 and edge.restriction.incoherent
    assert not g.incoherent


def test_nothing_under_attribute_sinks_graph(parse):
    # attributes are total, so an empty value set empties the whole concept
    assert canon(parse, "all(f, nothing)").incoherent


def test_host_closure(parse):
    g = canon(parse, "INTEGER")
    assert g.root_node.atoms == {
        "INTEGER", "REAL", "COMPLEX", "NUMBER", "HOST-THING"}


def test_realm_conflict(parse):
    assert canon(parse, "and(GAME, INTEGER)").incoherent
    assert canon(parse, "and(classic-thing, host-thing)").incoherent


def test_incomparable_host_types(parse):
    assert canon(parse, "and(INTEGER, STRING)").incoherent
    assert not canon(parse, "and(INTEGER, NUMBER)").incoherent


def test_chain_family_collapse(parse):
    n = 5
    parts = ["same-as((a%d),(b%d))" % (i, i) for i in range(1, n + 1)]
    parts += ["same-as((a%d),(a%d))" % (i, i + 1) for i in range(1, n)]
    g = canon(parse_description, "and(%s)" % ", ".join(parts))
    assert len(g.nodes) == 2


def test_merge_r_edges_componentwise(parse):
    g = canon(parse, "and(at-least(1, r), all(r, GAME), at-most(3, r))")
    (edge,) = g.root_node.r_edges
    assert (edge.min, edge.max) == (1, 3)
    assert "GAME" in edge.restriction.root_node.atoms
    assert len(edge.restriction.nodes) == 1


def test_merge_r_edges_idempotent_bounds(parse):
    once = "and(at-least(2, r), at-most(5, r))"
    g = canon(parse, "and(%s, %s)" % (once, once))
    (edge,) = g.root_node.r_edges
    assert (edge.min, edge.max) == (2, 5)
    assert isomorphic(g, canon(parse, once))


def test_merge_r_edges_unions_fillers(parse):
    g = canon(parse, "and(fills(r, P), fills(r, Q))")
    (edge,) = g.root_node.r_edges
    assert edge.fillers == {Individual("P"), Individual("Q")}


def test_merge_a_edges_basic(parse):
    g = canon(parse, "and(all(f, GAME), all(f, PERSON))")
    assert len(g.nodes) == 2
    (edge,) = g.a_edges
    assert {"GAME", "PERSON"} <= g.nodes[edge.dst].atoms


def test_merge_a_edges_same_target(parse):
    # same-as((f),(f)) translates to two f-edges into one shared end node
    raw = translate(parse("same-as((f),(f))"))
    assert len(raw.a_edges) == 2 and len(raw.nodes) == 2
    g = canonicalize(raw)
    assert len(g.a_edges) == 1 and len(g.nodes) == 2


def test_self_loop_collapse(parse):
    g = canon(parse_description,
              "and(all(friend, TALL), same-as((friend),(friend,friend)))")
    assert len(g.nodes) == 2
    loops = [e for e in g.a_edges if e.src == e.dst]
    assert len(loops) == 1
    hub = g.nodes[loops[0].dst]
    assert "TALL" in hub.atoms and CLASSIC_THING in hub.atoms


def test_cascade_reduces_node_count(parse):
    # two target collapses, each removing exactly one node
    raw = translate(parse("and(same-as((f),(g)), same-as((f),(h)), "
                          "same-as((g),(h)))"))
    out = canonicalize(raw)
    assert len(raw.nodes) == 4
    assert len(out.nodes) == 2


def test_attr_fill_conflict(parse, kb):
    g = canonicalize(
        translate(parse("and(fills(coach, Pat), fills(coach, Kim))")), kb)
    assert g.incoherent


def test_one_of_fillers_pushed_into_edge(parse, kb):
    g = canonicalize(
        translate(parse("and(all(r, one-of(P, Q)), at-least(2, r))")), kb)
    (edge,) = g.root_node.r_edges
    assert edge.fillers == {Individual("P"), Individual("Q")}
    assert edge.min == 2 and edge.max == 2


def test_max_capped_by_dom(parse, kb):
    g = canonicalize(translate(parse("all(r, one-of(P, Q))")), kb)
    (edge,) = g.root_node.r_edges
    assert edge.max == 2


def test_empty_dom_incoherent(parse, kb):
    g = canonicalize(
        translate(parse("and(one-of(P), one-of(Q))")), kb)
    assert g.incoherent


def test_host_value_dom_typing(parse):
    # string value cannot inhabit an INTEGER-atom node
    g = canonicalize(translate(parse('and(one-of(4, "x"), INTEGER)')))
    (node,) = g.nodes.values()
    assert node.dom == frozenset({Individual("4", "INTEGER", 4)})


def test_host_test_atom_admits_every_host_value(parse, kb):
    # an opaque host test is a black box: dom typing keeps every value
    g = canonicalize(
        translate(expand(parse("and(test(f, host), one-of(1, 2))"), kb)), kb)
    assert sorted(ind.name for ind in g.root_node.dom) == ["1", "2"]


@pytest.mark.parametrize("atom, admits", [
    ("THING", True), ("HOST-THING", True), ("NOTHING", False),
    ("CLASSIC-THING", False), ("A", False), ("@test:host:f", True),
    ("INTEGER", True), ("STRING", False),
])
def test_atom_admits_host_value(atom, admits):
    assert normalize._atom_admits_host_value(
        atom, host_int(4), DEFAULT_LATTICE) is admits


@pytest.mark.parametrize("body", ["A", "classic-thing"])
def test_classic_node_admits_no_host_filler(parse, kb, body):
    # the fillers P and 1 fill both places under at-most(2, r), so the
    # filler 1 joins a classic node, which no host value inhabits
    g = canon(parse, "and(fills(r, P), fills(r, 1), at-most(2, r), "
              "all(r, %s))" % body, kb)
    assert g.incoherent


def test_attr_filler_outside_target_dom(parse, kb):
    g = canonicalize(
        translate(parse("and(fills(coach, Pat), all(coach, one-of(Kim)))")),
        kb)
    assert g.incoherent


def test_single_dom_becomes_attr_filler(parse, kb):
    g = canonicalize(translate(parse("all(coach, one-of(Pat))")), kb)
    (edge,) = g.a_edges
    assert to_jsonable(g)["aedges"][0]["fillers"] == ["Pat"]


def test_attr_filler_narrows_target_dom(parse, kb):
    # The filler edge and the one-of edge merge; whichever rule runs first,
    # the merged target can only be the filler.
    g = translate(parse(
        "and(all(coach, one-of(Pat, Kim, P)), fills(coach, Pat))"))
    for reverse in (False, True):
        with _order(reverse):
            c = canonicalize(g, kb)
        (edge,) = c.a_edges
        assert to_jsonable(c)["aedges"][0]["fillers"] == ["Pat"]
        assert c.nodes[edge.dst].dom == frozenset({Individual("Pat")})


def test_role_filler_outside_dom(parse, kb):
    g = canonicalize(
        translate(parse("and(fills(r, Pat), all(r, one-of(P, Q)))")), kb)
    assert g.incoherent


def test_idempotent(parse, kb):
    for text in [
        "and(GAME, all(participants, PERSON), "
        "same-as((coach),(captain,father)))",
        "and(all(r, one-of(P, Q)), at-least(2, r), fills(coach, Pat))",
        "and(at-most(0, r), all(r, GAME))",
        "nothing",
    ]:
        c1 = canonicalize(translate(parse(text)), kb)
        assert isomorphic(c1, canonicalize(thawed(c1), kb))


def test_two_schedules_agree(parse, kb):
    for text in [
        "and(GAME, all(participants, PERSON), "
        "same-as((coach),(captain,father)))",
        "and(all(r, one-of(P, Q)), at-least(2, r), at-most(3, r))",
        "and(same-as((f),(g)), same-as((f),(h)), all(f, TALL))",
    ]:
        g = translate(parse(text))
        with _order(True):
            reversed_form = canonicalize(g, kb)
        assert isomorphic(canonicalize(g, kb), reversed_form)


def test_disjointness_hook():
    kb = parse_kb("role r\ndisjoint MALE FEMALE")
    g = canonicalize(translate(parse_description("and(MALE, FEMALE)", kb)),
                     kb)
    assert g.incoherent
    g = canonicalize(
        translate(parse_description("all(r, and(MALE, FEMALE))", kb)), kb)
    (edge,) = g.root_node.r_edges
    assert edge.max == 0 and edge.restriction.incoherent
    # no group hit twice: untouched
    g2 = canonicalize(translate(parse_description("and(MALE, GAME)", kb)), kb)
    assert not g2.incoherent


def test_apply_disjointness_standalone():
    # disjointness applies to a graph already canonical without the kb
    kb = parse_kb("role r\ndisjoint MALE FEMALE")
    g = canonicalize(translate(parse_description("and(MALE, FEMALE)", kb)))
    assert not g.incoherent  # canonicalized without the kb
    assert canonicalize(g, kb).incoherent
    assert not g.incoherent  # the input is not modified


def test_canonical_unique_edges(parse, kb):
    g = canonicalize(
        translate(parse("and(at-least(1, r), at-most(3, r), all(r, GAME), "
                        "same-as((f),(g)), same-as((f),(g,h)))")), kb)
    for sub in g.subgraphs():
        seen = set()
        for e in sub.a_edges:
            assert (e.src, e.attr) not in seen
            seen.add((e.src, e.attr))
        for node in sub.nodes.values():
            roles = [e.role for e in node.r_edges]
            assert len(roles) == len(set(roles))


def test_typed_filler_against_host_concept_target(parse, kb):
    g = canonicalize(translate(parse("and(fills(coach, 4), "
                                     "all(coach, STRING))")), kb)
    assert g.incoherent
    g = canonicalize(translate(parse("and(fills(coach, 4), "
                                     "all(coach, INTEGER))")), kb)
    assert not g.incoherent


def test_distinct_literals_never_conflate(parse, kb):
    # 4 and 4.0 are different host objects with disjoint extensions
    g = canonicalize(translate(parse("and(one-of(4), one-of(4.0))")), kb)
    assert g.incoherent


def test_dom_typing_keeps_compatible_values(parse, kb):
    g = canonicalize(translate(parse('and(one-of(1, 2.5, "x"), NUMBER)')),
                     kb)
    assert sorted(i.name for i in g.root_node.dom) == ["1", "2.5"]


def _nested_all(depth: int) -> str:
    text = "X0"
    for k in range(1, depth + 1):
        text = "all(r, and(X%d, at-least(1, r), %s))" % (k, text)
    return text


@pytest.mark.parametrize("depth", [20, 40, 80])
def test_normalize_calls_grow_linearly_on_nested_all(depth, monkeypatch):
    # each restriction graph is normalized once, and again only where a
    # merge or a narrowed dom changes it
    calls = []
    original = normalize._normalize_graph

    def counted(g, *rest):
        calls.append(g)
        return original(g, *rest)

    monkeypatch.setattr(normalize, "_normalize_graph", counted)
    canonicalize(translate(parse_description(_nested_all(depth))))
    assert len(calls) <= 4 * depth


# Each case needs a restriction graph normalized again after its parent's
# rules changed it: a merge of two restrictions on r, and a dom narrowed
# to the filler "a" that INTEGER does not admit.
RENORMALIZED_CASES = [
    'and(fills(r, "a"), at-most(1, r), all(r, INTEGER))',
    "and(all(r, TALL), all(r, SMALL), at-least(1, r))",
]


def _disjoint_kb():
    kb = corpus_kb()
    kb.disjoint_groups.append(frozenset({"TALL", "SMALL"}))
    return kb


ORDERS = pytest.mark.parametrize("reverse", [False, True],
                                 ids=["standard", "alternate"])


@ORDERS
@pytest.mark.parametrize("text", RENORMALIZED_CASES)
def test_renormalized_restrictions_are_incoherent(text, reverse):
    kb = _disjoint_kb()
    with _order(reverse):
        g = canonicalize(translate(parse_description(text, kb)), kb)
    assert g.incoherent


@ORDERS
def test_every_restriction_graph_is_canonical(reverse):
    kb = _disjoint_kb()
    rng = random.Random(3)
    descriptions = [parse_description(t, kb) for t in RENORMALIZED_CASES]
    for _ in range(300):
        descriptions.extend(random_pair(rng))
    with _order(reverse):
        for d in descriptions:
            g = canonicalize(translate(d), kb)
            for sub in g.subgraphs():
                assert isomorphic(sub, canonicalize(thawed(sub), kb))


@pytest.fixture(scope="module")
def canonical_corpus():
    """(graph, kb, reverse) for the canonical forms of the golden random
    corpus and of the deep shapes, in the engine's rule order and in the
    reverse one (``_order``)."""
    kb = golden_kb()
    descriptions = [(d, kb) for seed in (0, 1, 2)
                    for rng in [random.Random(seed)] for _ in range(500)
                    for d in random_pair(rng)]
    descriptions += [(parse_description(text), None) for text in DEEP_SHAPES]
    corpus = []
    for reverse in (False, True):
        with _order(reverse):
            corpus += [(canonicalize(translate(d), dkb), dkb, reverse)
                       for d, dkb in descriptions]
    return corpus


@pytest.mark.parametrize("rule_pass", [
    normalize._node_local_pass, normalize._redge_pass,
    normalize._aedge_pass, normalize._individual_pass,
], ids=lambda p: p.__name__)
def test_each_pass_is_a_fixpoint_on_canonical_graphs(rule_pass,
                                                     canonical_corpus):
    # Pins the passes' early returns: on a canonical graph every pass finds
    # nothing to rewrite, whether or not it returns before its scan.
    for g, kb, reverse in canonical_corpus:
        step = -1 if reverse else 1
        for sub in g.subgraphs():
            work = thawed(sub)
            before = to_jsonable(work)
            node_order = list(work.nodes)[::step]
            assert not rule_pass(work, node_order, kb)
            assert to_jsonable(work) == before


def test_shared_thing_restriction_stays_thing(canonical_corpus):
    # Every at-least, at-most and fills(role, ...) shares one frozen
    # {THING} restriction; canonicalizing the corpus in both rule orders
    # runs each rule that changes a restriction graph on it.
    assert canonical_corpus
    assert graph._THING_RESTRICTION.canonical_kb is graph.ANY_KB
    assert to_jsonable(graph._THING_RESTRICTION) == {
        "root": 0, "incoherent": False, "aedges": [],
        "nodes": [{"id": 0, "atoms": ["THING"], "dom": "*", "redges": []}]}


def test_canonical_input_is_returned_itself(canonical_corpus):
    for g, kb, _ in canonical_corpus:
        assert canonicalize(g, kb) is g
        assert all(sub.canonical_under(kb) for sub in g.subgraphs())


def test_canonicalize_leaves_its_input_unchanged():
    # canonicalize copies its input up front and normalizes the copy;
    # canonical_graph normalizes a fresh translation in place, to the
    # same canonical form.
    kb = corpus_kb()
    rng = random.Random(5)
    for _ in range(300):
        for d in random_pair(rng):
            g = translate(d)
            before = ([list(sub.nodes) for sub in g.subgraphs()],
                      graph_shape(g))
            canon = canonicalize(g, kb)
            assert canon is not g
            assert ([list(sub.nodes) for sub in g.subgraphs()],
                    graph_shape(g)) == before
            assert not any(sub.frozen for sub in g.subgraphs()
                           if sub is not graph._THING_RESTRICTION)
            assert to_jsonable(canonical_graph(d, kb)) == to_jsonable(canon)


def test_copy_is_keyword_only():
    # A third positional argument would otherwise bind to ``copy`` and be
    # taken as true.
    g = translate(parse_description("all(r, A)"))
    with pytest.raises(TypeError):
        canonicalize(g, None, "alternate")
    assert canonicalize(g, None, copy=True) is not g


def test_same_as_cascade_merges_in_linear_time():
    # Two same-as chains that share a k-long attribute prefix: the merge
    # cascades k levels, each merging two nodes.
    k = 1000
    f_chain = ",".join(["f"] * k)
    g = canonicalize(translate(parse_description(
        "and(same-as((%s),(g)), same-as((%s),(h)))" % (f_chain, f_chain))))
    end, taken = g.follow(g.root, ("f",) * k)
    assert taken == k
    assert g.follow(g.root, ("g",)) == (end, 1) == g.follow(g.root, ("h",))
    assert len(g.nodes) == k + 1

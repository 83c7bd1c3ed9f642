"""Normalization rounds: a graph takes another round only when a pass that
unsettles an earlier one fired, and reaches the same canonical form as the
reference loop in ``oracles``, which runs another round after any change
and normalizes every r-edge merge it builds, and as every order of the
rule passes, over the nodes forward or reversed."""

import itertools
import random

import pytest

from classicdl import normalize
from classicdl.graph import to_jsonable, translate
from classicdl.kb import _told_graphs, expand
from classicdl.normalize import canonicalize
from classicdl.parsing import parse_description, parse_kb
from classicdl.randgen import corpus_kb, random_pair
from oracles import reference_normalization, rule_order
from test_canonical_goldens import golden_kb
from test_kb import _taxonomy_kbs, oracle_kb_text
from test_small_scope import KB_TEXT, size2_corpus
from test_translate import _deep_descriptions


def _same_canonical_forms(descriptions, kb):
    """Canonicalize a fresh translation of each expanded description with
    the engine and with the reference loop, and compare dumps and
    incoherent flags."""
    with reference_normalization():
        expected = [canonicalize(translate(d), kb) for d in descriptions]
    for d, ref in zip(descriptions, expected):
        got = canonicalize(translate(d), kb)
        assert got.incoherent == ref.incoherent
        assert to_jsonable(got) == to_jsonable(ref)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_subsumees_match_the_reference_loop(seed):
    rng = random.Random(seed)
    descriptions = [random_pair(rng)[1] for _ in range(2000)]
    _same_canonical_forms(descriptions, corpus_kb())


def test_deep_ladders_match_the_reference_loop():
    _same_canonical_forms(_deep_descriptions(), None)


def _size2_corpus():
    kb = parse_kb(KB_TEXT)
    return kb, [expand(parse_description(text, kb), kb)
                for text in size2_corpus()]


def _random_corpus():
    kb = golden_kb()
    rng = random.Random(0)
    return kb, [d for _ in range(500) for d in random_pair(rng)]


@pytest.mark.parametrize("corpus, interacting", [
    (_size2_corpus, 14),
    (_random_corpus, 61),
], ids=["size2", "random"])
def test_every_rule_order_gives_the_engines_canonical_form(corpus,
                                                          interacting):
    # 24 orders of the four passes, times the nodes forward or reversed.
    kb, descriptions = corpus()
    expected = [to_jsonable(canonicalize(translate(d), kb))
                for d in descriptions]
    mismatches = []
    for passes in itertools.permutations(normalize._PASSES):
        for reverse_nodes in (False, True):
            with rule_order(passes, reverse_nodes):
                mismatches += [
                    (i, [p.__name__ for p in passes], reverse_nodes)
                    for i, (d, want) in enumerate(zip(descriptions, expected))
                    if to_jsonable(canonicalize(translate(d), kb)) != want]
    assert mismatches == []
    # The power of the check: the descriptions on which two or more
    # distinct passes change a graph, nested graphs included, so their
    # order could matter.
    fired = []

    def recorded(rule_pass):
        def run_pass(g, node_order, run):
            if rule_pass(g, node_order, run):
                fired[-1].add(rule_pass)
                return True
            return False
        return run_pass

    with rule_order(map(recorded, normalize._PASSES)):
        for d in descriptions:
            fired.append(set())
            canonicalize(translate(d), kb)
    assert sum(len(passes) >= 2 for passes in fired) == interacting


@pytest.mark.parametrize("text", [
    *(oracle_kb_text(seed, 100) for seed in range(3)),
    *_taxonomy_kbs(0),
])
def test_told_graphs_match_the_reference_loop(text):
    with reference_normalization():
        _, _, expected = _told_graphs(parse_kb(text))
    _, _, canon = _told_graphs(parse_kb(text))
    for name, ref in expected.items():
        assert canon[name].incoherent == ref.incoherent, name
        assert to_jsonable(canon[name]) == to_jsonable(ref), name


def test_redge_merge_alone_takes_one_round(count_rounds):
    # The merge of all(r, A) with at-least(1, r) is {A} with THING at its
    # root, canonical without another normalization.
    g, rounds = count_rounds(canonicalize, translate(
        parse_description("and(all(r, A), at-least(1, r))")))
    assert rounds[g] == 1
    (edge,) = g.root_node.r_edges
    assert edge.restriction not in rounds


def test_aedge_collapse_takes_two_rounds(count_rounds):
    g, rounds = count_rounds(canonicalize, translate(
        parse_description("and(fills(f, P), all(f, TALL))", corpus_kb())))
    assert rounds[g] == 2
    assert len(g.nodes) == 2


def test_dom_typing_to_one_realm_is_a_conflict_in_one_call(monkeypatch):
    # The bookkeeping narrows the restriction's dom to {P, 3}; dom typing
    # drops 3, which STRING does not admit, and leaves a classic dom on a
    # host node, so the restriction, and with it the graph, is incoherent.
    dropped = []
    real = normalize._dom_typing

    def recorded(node, lattice):
        before = node.dom
        if real(node, lattice):
            dropped.append(before - node.dom)
            return True
        return False

    monkeypatch.setattr(normalize, "_dom_typing", recorded)
    kb = corpus_kb()
    c = parse_description(
        "and(all(r, STRING), fills(r, P), fills(r, 3), at-most(2, r))", kb)
    assert canonicalize(translate(c), kb).incoherent
    assert [{ind.name for ind in d} for d in dropped] == [{"3"}]
    dropped.clear()
    with rule_order(reversed(normalize._PASSES), reverse_nodes=True):
        assert canonicalize(translate(c), kb).incoherent
    assert [{ind.name for ind in d} for d in dropped] == [{"3"}]

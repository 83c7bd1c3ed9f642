"""Exhaustive small-scope check: every pair of small descriptions.

Random pairs miss corner cases; listing every small input finds them
(the small-scope hypothesis).  The corpus is built from 20 leaves over
the vocabulary ``role r; attribute f, g; individual P, Q``: each leaf,
``all(r, x)`` and ``all(f, x)`` for each leaf x, and ``and(x, y)`` for
each two distinct leaves, 250 descriptions in all.  Every one of the
62,500 ordered pairs is answered; every "no" must come with a verified
counter-model, except in the documented host-type corner (README, "Notes
on scope and known envelope"), where the builder must say so; the worlds
built match a recorded digest, and every steering rule runs.  The
bounded model search finds a world exactly for the coherent graphs,
``covers_everything`` answers as the test against the THING graph, and a
knowledge base that names every description is classified as the n^2
reference classifies it.
"""

import hashlib
import itertools
import json

import pytest

from classicdl import countermodel, normalize, worlds
from classicdl.countermodel import (
    CounterModelError,
    construct_graphical_world,
    interpret_rest,
)
from classicdl.descriptions import (
    And,
    CLASSIC_THING,
    ClassicThing,
    ConceptName,
    HostConcept,
    SameAs,
    THING,
    Thing,
    to_text,
)
from classicdl.graph import _THING_RESTRICTION, to_jsonable, translate
from classicdl.kb import classify, expand
from classicdl.normalize import canonicalize
from classicdl.parsing import parse_description, parse_kb
from classicdl.subsume import covers_everything, explain, subsumes_graph
from classicdl.worlds import eval_description
from oracles import bounded_model_search, rule_order
from test_graph import thawed
from test_kb import assert_root_index_agrees, reference_classify

KB_TEXT = "role r\nattribute f\nattribute g\nindividual P\nindividual Q\n"

LEAVES = (
    "A", "B", "thing", "classic-thing", "host-thing", "nothing", "INTEGER",
    "at-least(1, r)", "at-least(2, r)", "at-most(0, r)", "at-most(1, r)",
    "fills(r, P)", "fills(r, 1)", "fills(f, P)", "fills(f, 1)",
    "one-of(P)", "one-of(P, Q)", "one-of(1)",
    "same-as((f), (g))", "same-as((f), (f, g))",
)

HOST_CORNER = "every admissible host value lies in"

# sha256 over the ``worlds.to_jsonable`` dumps (keys sorted) of every
# counter-model the corpus builds, in pair order: a change to the steering
# that moves any world, even to another valid one, changes it.
WORLD_DIGEST = \
    "756bdea70ed0479e68757c65329788a777e1be8d7fdde874b1e5fbbbc6a0df59"


def size2_corpus() -> list[str]:
    """The leaves, then ``all(r, x)``, ``all(f, x)`` and ``and(x, y)``."""
    return [*LEAVES,
            *("all(r, %s)" % x for x in LEAVES),
            *("all(f, %s)" % x for x in LEAVES),
            *("and(%s, %s)" % xy for xy in itertools.combinations(LEAVES, 2))]


@pytest.fixture(scope="module")
def corpus():
    """(kb, [(text, expanded description, canonical graph)])."""
    kb = parse_kb(KB_TEXT)
    out = []
    for text in size2_corpus():
        d = expand(parse_description(text, kb), kb)
        out.append((text, d, canonicalize(translate(d), kb)))
    return kb, out


def _record_steering(monkeypatch) -> set:
    """Record the class of every clause the builder steers against, and
    for a same-as clause whose prefixes end at one node with a tail
    missing, whether that node is classic."""
    seen = set()

    def recording(steer):
        def steer_and_record(failure, *args):
            d, g = failure.clause, failure.graph
            seen.add(type(d))
            if type(d) is SameAs:
                l_pre, l_taken = g.follow(failure.node, d.left[:-1])
                r_pre, r_taken = g.follow(failure.node, d.right[:-1])
                if (l_pre == r_pre and l_taken == len(d.left) - 1
                        and r_taken == len(d.right) - 1
                        and None in (g.attr_edge(l_pre, d.left[-1]),
                                     g.attr_edge(r_pre, d.right[-1]))):
                    seen.add(("same-as at one node",
                              CLASSIC_THING in g.nodes[l_pre].atoms))
            steer(failure, *args)
        return steer_and_record

    for cls, steer in countermodel._STEER.items():
        monkeypatch.setitem(countermodel._STEER, cls, recording(steer))
    return seen


def test_every_no_gets_a_counter_model(corpus, monkeypatch):
    kb, descs = corpus
    steered = _record_steering(monkeypatch)
    digest = hashlib.sha256()
    yes = no = 0
    corner = []
    for (d_text, d, _), (c_text, c, g) in itertools.product(descs, descs):
        if subsumes_graph(d, g):
            yes += 1
            continue
        no += 1
        try:
            world, elem = construct_graphical_world(g, steering=d, kb=kb)
        except CounterModelError as exc:
            assert HOST_CORNER in str(exc), (d_text, c_text, str(exc))
            corner.append((d_text, c_text))
            continue
        digest.update(json.dumps(worlds.to_jsonable(world, elem),
                                 sort_keys=True).encode())
        interpret_rest(world, c)
        assert eval_description(c, world, {elem}), (d_text, c_text)
        assert not eval_description(d, world, {elem}), (d_text, c_text)
    assert (yes, no) == (20_603, 41_897)
    assert len(corner) == 65
    assert digest.hexdigest() == WORLD_DIGEST
    # Every steering rule runs, and same-as at one prefix node runs on a
    # classic node and on a non-classic one.
    assert steered == {*countermodel._STEER,
                       ("same-as at one node", True),
                       ("same-as at one node", False)}


def test_canonical_forms_are_fixpoints_under_both_schedules(corpus):
    kb, descs = corpus
    for text, d, g in descs:
        dump = to_jsonable(g)
        assert to_jsonable(canonicalize(thawed(g), kb)) == dump, text
        with rule_order(reversed(normalize._PASSES), reverse_nodes=True):
            assert to_jsonable(canonicalize(translate(d), kb)) == dump, text


@pytest.mark.parametrize("who", ["P", "1"])
def test_attribute_fill_is_a_one_of_restriction(corpus, who):
    # An attribute has one value, so the two denote the same set.
    kb, _ = corpus

    def canon(text):
        d = expand(parse_description(text, kb), kb)
        return to_jsonable(canonicalize(translate(d), kb))

    assert canon("fills(f, %s)" % who) == \
        canon("all(f, one-of(%s))" % who)


def test_bounded_search_finds_a_world_exactly_for_coherent_graphs(corpus):
    _, descs = corpus
    assert sum(g.incoherent for _, _, g in descs) == 73
    for text, _, g in descs:
        assert (bounded_model_search(g, k=2) is None) == g.incoherent, text
    # One classic element is too few for at-least(2, r) or one-of(P, Q).
    wrong = [text for text, _, g in descs
             if (bounded_model_search(g, k=1) is None) != g.incoherent]
    assert len(wrong) == 33
    assert {"at-least(2, r)", "one-of(P, Q)"} <= set(wrong)


def test_covers_everything_is_the_test_against_thing(corpus):
    # On every corpus description, and on THING spelled as an atom and as
    # a host concept, alone and in nested conjunctions with ``thing``,
    # ``covers_everything`` answers as the structural test against the
    # one-node THING graph.
    atoms = (ConceptName(THING), HostConcept(THING))
    covering = [*atoms, And(atoms),
                *(And((Thing(), And((a, Thing())))) for a in atoms)]
    descriptions = [d for _, d, _ in corpus[1]] + covering + [
        And((ClassicThing(), atoms[0]))]
    for d in descriptions:
        assert covers_everything(d) == (
            explain(d, _THING_RESTRICTION) is None), to_text(d)
    assert [d for d in descriptions if covers_everything(d)] == [
        Thing(), *covering]


@pytest.fixture(scope="module")
def named_kb():
    """The corpus named D0 ... D249, and 50 told conjunctions
    ``T_i := and(D_i, D_(7i+3 mod 250))``."""
    texts = size2_corpus()
    n = len(texts)
    return parse_kb(KB_TEXT + "".join(
        "concept D%d := %s\n" % it for it in enumerate(texts)) + "".join(
        "concept T%d := and(D%d, D%d)\n" % (i, i, (7 * i + 3) % n)
        for i in range(0, n, 5)))


def test_classify_names_every_description(named_kb):
    assert len(named_kb.named) == 300
    got = json.dumps(classify(named_kb).to_jsonable())
    assert got == json.dumps(reference_classify(named_kb).to_jsonable())


def test_root_index_agrees_on_every_leaf(named_kb):
    assert assert_root_index_agrees(named_kb) >= len(LEAVES)

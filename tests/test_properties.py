"""Law-style properties over the seeded random corpus."""

import random

from hypothesis import given, settings, strategies as st

from classicdl.descriptions import And, to_text
from classicdl.graph import (
    merge_graphs,
    to_jsonable,
    translate,
)
from classicdl.kb import expand
from classicdl.normalize import canonicalize
from classicdl.parsing import parse_description
from classicdl import normalize, randgen
from classicdl.randgen import (
    corpus_kb,
    random_description,
    random_pair,
    soundness_run,
)
from classicdl.subsume import subsumes, subsumes_graph
from classicdl.worlds import (
    eval_description,
    eval_graph,
    sample_interpretation,
    signature_of_description,
)
from oracles import graph_size, isomorphic, rule_order
from test_graph import thawed

KB = corpus_kb()

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def desc(seed, depth=4):
    return random_description(random.Random(seed), depth)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_print_parse_round_trip(seed):
    d = desc(seed)
    assert parse_description(to_text(d), KB) == d


@given(st.text(max_size=60))
@settings(max_examples=150, deadline=None)
def test_parser_total_on_arbitrary_text(text):
    from classicdl.parsing import ParseError

    try:
        parse_description(text, KB)
    except ParseError as exc:
        assert exc.pos >= 0


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_subsumes_reflexive(seed):
    d = desc(seed)
    assert subsumes(d, d, KB)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_subsumes_transitive(seed):
    rng = random.Random(seed)
    base = random_description(rng, depth=2)
    mid = And((base, random_description(rng, depth=2)))
    low = And((mid, random_description(rng, depth=2)))
    if subsumes(base, mid, KB) and subsumes(mid, low, KB):
        assert subsumes(base, low, KB)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_conjunction_decomposition(seed):
    rng = random.Random(seed)
    c1 = random_description(rng, depth=2)
    c2 = random_description(rng, depth=2)
    g = canonicalize(translate(expand(random_description(rng), KB)), KB)
    d = And((c1, c2))
    assert subsumes_graph(d, g) == \
        (subsumes_graph(c1, g) and subsumes_graph(c2, g))


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_node_merge_is_extension_intersection(seed):
    rng = random.Random(seed)
    d1 = expand(random_description(rng, depth=2), KB)
    d2 = expand(random_description(rng, depth=2), KB)
    # merging moves its inputs, so the parts it is checked against are
    # translated afresh
    merged = merge_graphs(translate(d1), translate(d2))
    g1, g2 = translate(d1), translate(d2)
    sig = signature_of_description(d1).merge(signature_of_description(d2))
    for w in range(3):
        world = sample_interpretation(sig, seed=seed % 99991 + w)
        assert eval_graph(merged, world) == \
            eval_graph(g1, world) & eval_graph(g2, world)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_merge_node_counts(seed):
    rng = random.Random(seed)
    g1 = translate(expand(random_description(rng), KB))
    g2 = translate(expand(random_description(rng), KB))
    if g1.incoherent or g2.incoherent:
        return
    # merging moves its inputs, so their sizes are read first
    expected = len(g1.nodes) + len(g2.nodes) - 1
    assert len(merge_graphs(g1, g2).nodes) == expected


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_translate_preserves_extension(seed):
    d = expand(desc(seed), KB)
    g = translate(d)
    sig = signature_of_description(d)
    for w in range(3):
        world = sample_interpretation(sig, seed=seed % 99991 + 7 * w)
        assert eval_graph(g, world) == eval_description(d, world)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_canonicalize_preserves_extension(seed):
    d = expand(desc(seed), KB)
    g = translate(d)
    cg = canonicalize(g, KB)
    sig = signature_of_description(d)
    for w in range(3):
        world = sample_interpretation(sig, seed=seed % 99991 + 13 * w)
        assert eval_graph(cg, world) == eval_graph(g, world)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_canonicalize_idempotent_and_confluent(seed):
    g = translate(expand(desc(seed), KB))
    c1 = canonicalize(g, KB)
    assert isomorphic(c1, canonicalize(thawed(c1), KB))
    with rule_order(reversed(normalize._PASSES), reverse_nodes=True):
        assert isomorphic(c1, canonicalize(g, KB))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_graph_size_linear(seed):
    from oracles import ast_size

    d = expand(desc(seed), KB)
    assert graph_size(translate(d)) <= 6 * ast_size(d)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_soundness_sampled(seed):
    rng = random.Random(seed)
    d, c = random_pair(rng)
    if not subsumes(d, c, KB):
        return
    de, ce = expand(d, KB), expand(c, KB)
    sig = signature_of_description(de).merge(signature_of_description(ce))
    for w in range(5):
        world = sample_interpretation(sig, seed=seed % 99991 + 3 * w)
        assert eval_description(ce, world) <= eval_description(de, world)


def test_soundness_run_counts_nonvacuous_worlds():
    # the seed-3 corpus: 300 pairs, 20 worlds per positive case
    stats = soundness_run(3, 300, worlds_per_case=20)
    assert soundness_run(3, 300, worlds_per_case=20) == stats
    assert stats.violations == 0
    assert stats.nonvacuous_cases <= stats.positives
    assert (stats.nonvacuous_cases <= stats.nonvacuous_worlds
            <= 20 * stats.nonvacuous_cases)
    assert (stats.positives, stats.nonvacuous_cases,
            stats.nonvacuous_worlds) == (194, 140, 1827)


def test_soundness_run_catches_every_wrong_yes(monkeypatch):
    # With every pair answered yes, many containments fail.  Checking D
    # only inside ext(C) must find as many as comparing ext(C) with the
    # whole of ext(D) found on the same run: 23.
    monkeypatch.setattr(randgen, "subsumes_graph", lambda d, g: True)
    stats = soundness_run(3, 60, worlds_per_case=10)
    assert stats.positives == 60
    assert stats.violations == 23


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_completeness_sampled(seed):
    from classicdl.countermodel import construct_graphical_world

    rng = random.Random(seed)
    d, c = random_pair(rng)
    de, ce = expand(d, KB), expand(c, KB)
    canon = canonicalize(translate(ce), KB)
    if subsumes_graph(de, canon) or canon.incoherent:
        return
    world, elem = construct_graphical_world(canon, steering=de, kb=KB)
    assert elem in eval_graph(canon, world)
    assert elem not in eval_description(de, world)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_translated_nodes_carry_atoms(seed):
    g = translate(expand(desc(seed), KB))
    for sub in g.subgraphs():
        for node in sub.nodes.values():
            assert node.atoms


def _flattened(d: And) -> And:
    """``d``'s top-level conjunction as one n-ary and: nested top-level
    ands are spliced in."""
    items = []
    for item in d.items:
        items.extend(_flattened(item).items if isinstance(item, And)
                     else (item,))
    return And(tuple(items))


def _pairwise(d: And) -> And:
    """``d``'s top-level conjunction re-nested pairwise, as in
    and(and(a, b), c)."""
    items = _flattened(d).items
    out = And(items[:2])
    for item in items[2:]:
        out = And((out, item))
    return out


def test_canonical_form_ignores_and_nesting():
    # one n-ary merge and a chain of pairwise merges build the same
    # canonical graph
    rng = random.Random(3)
    renested = 0
    for _ in range(300):
        for d in random_pair(rng):
            if not isinstance(d, And):
                continue
            want = to_jsonable(canonicalize(translate(d), KB))
            for variant in (_flattened(d), _pairwise(d)):
                if variant != d:
                    renested += 1
                assert to_jsonable(canonicalize(translate(variant), KB)) == \
                    want, to_text(d)
    assert renested > 100

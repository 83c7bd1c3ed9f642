import random
from collections import Counter

import pytest

from classicdl.countermodel import (
    CounterModelError,
    construct_graphical_world,
    interpret_rest,
)
from classicdl.descriptions import walk
from classicdl.graph import translate
from classicdl.kb import KnowledgeBase, expand
from classicdl.normalize import canonicalize
from classicdl.parsing import infer_attr_names, parse_description, parse_kb
from classicdl.randgen import corpus_kb, random_pair
from classicdl.subsume import subsumes_graph
from classicdl.worlds import (
    HostElement,
    Interpretation,
    eval_description,
    eval_graph,
)


def build(parse, kb, subsumee_text, steering_text=None):
    g = canonicalize(translate(expand(parse(subsumee_text), kb)), kb)
    steering = expand(parse(steering_text), kb) if steering_text else None
    world, elem = construct_graphical_world(g, steering=steering, kb=kb)
    assert elem in eval_graph(g, world)
    if steering is not None:
        assert elem not in eval_description(steering, world)
    return world, elem


def test_unsteered_membership(parse, kb):
    for text in [
        "and(GAME, at-least(2, r))",
        "and(all(r, one-of(P, Q)), at-least(2, r))",
        "same-as((coach),(captain,father))",
        "and(fills(coach, Pat), fills(r, P), at-most(3, s))",
        "one-of(4, 7)",
        "INTEGER",
        "thing",
        "and(at-most(0, r), all(r, GAME))",
        "and(all(friend, TALL), same-as((friend),(friend,friend)))",
    ]:
        build(parse, kb, text)


def test_incoherent_rejected(parse, kb):
    g = canonicalize(translate(parse("nothing")), kb)
    with pytest.raises(ValueError, match="incoherent"):
        construct_graphical_world(g, kb=kb)


def test_positive_subsumption_rejected(parse, kb):
    g = canonicalize(translate(parse("and(GAME, at-least(4, r))")), kb)
    with pytest.raises(ValueError, match="no counter-model"):
        construct_graphical_world(g, steering=parse("at-least(2, r)"), kb=kb)


def test_fewer_fillers_than_demanded(parse, kb):
    world, elem = build(parse, kb, "and(GAME, at-least(2, r))",
                        "at-least(3, r)")
    fillers = world.role_fillers("r", elem)
    assert world.count_non_congruent(fillers) == 2


def test_more_fillers_than_allowed(parse, kb):
    world, elem = build(parse, kb, "at-least(2, r)", "at-most(2, r)")
    assert world.count_non_congruent(world.role_fillers("r", elem)) == 3


def test_missing_role_edge_cases(parse, kb):
    build(parse, kb, "GAME", "at-least(2, r)")
    build(parse, kb, "GAME", "at-most(0, r)")
    build(parse, kb, "GAME", "all(r, PERSON)")
    build(parse, kb, "GAME", "fills(r, P)")


def test_dom_pick_escapes_enumeration(parse, kb):
    world, elem = build(parse, kb, "one-of(P, Q)", "one-of(P)")
    assert elem in world.indiv_ext["Q"]
    assert elem not in world.indiv_ext.get("P", set())


def test_wrong_realm_for_universal_body(parse, kb):
    # the subsumee admits host elements, where the role does not apply
    world, elem = build(parse, kb, "thing", "all(r, thing)")
    assert elem not in world.classic


def test_value_restriction_counterexample_in_filler(parse, kb):
    world, elem = build(parse, kb, "and(at-least(1, r), all(r, PERSON))",
                        "all(r, and(PERSON, TALL))")
    fillers = world.role_fillers("r", elem)
    assert any(f not in eval_description(expand(parse("TALL"), kb), world)
               for f in fillers)


def test_attribute_chain_cases(parse, kb):
    # shared prefix, different tails
    build(parse, kb, "same-as((f),(g))", "same-as((f),(h))")
    # same tails, non-classic junction
    build(parse, kb, "same-as((f),(g))", "same-as((f,h),(g,h))")
    # missing prefix breaks through the host sink
    build(parse, kb, "GAME", "same-as((f),(g))")
    build(parse, kb, "all(f, GAME)", "same-as((f,g,h),(f,g,h))")
    # distinct prefix ends
    build(parse, kb, "and(all(f, GAME), all(g, PERSON))",
          "same-as((f,h),(g,h))")


@pytest.mark.parametrize("subsumer, subsumee", [
    ("same-as((f),(f,g))", "fills(f, 1)"),
    ("same-as((f,g),(f))", "fills(f, 1)"),
    ("same-as((f,g),(h))", "fills(f, 1)"),
    ("same-as((f,g),(h))", 'fills(f, "a")'),
])
def test_same_as_chain_through_a_host_value(subsumer, subsumee):
    # The prefixes end at distinct nodes and the missing tail starts at a
    # host value, where no attribute is defined: the builder makes that
    # node host instead of planning an attribute value off it.
    kb = parse_kb("attribute f\nattribute g\nattribute h")
    d, c = (expand(parse_description(t, kb), kb) for t in (subsumer, subsumee))
    g = canonicalize(translate(c), kb)
    world, elem = construct_graphical_world(g, steering=d, kb=kb)
    interpret_rest(world, c)
    assert elem in eval_description(c, world)
    assert elem not in eval_description(d, world)


def test_narrowed_host_dom_gets_a_counter_model():
    # at-most(1, r) narrows the restriction's dom to the host value 1; its
    # realm marker makes the filler a host element, outside classic-thing
    kb = parse_kb("role r\nindividual P")
    d, c = (expand(parse_description(t, kb), kb)
            for t in ("all(r, classic-thing)",
                      "and(at-most(1, r), fills(r, 1))"))
    g = canonicalize(translate(c), kb)
    world, elem = construct_graphical_world(g, steering=d, kb=kb)
    assert elem in eval_description(c, world)
    assert elem not in eval_description(d, world)


def test_filler_membership_cases(parse, kb):
    build(parse, kb, "and(all(r, one-of(P, Q)), at-least(1, r))",
          "fills(r, V)")
    build(parse, kb, "fills(r, P)", "fills(r, Q)")
    build(parse, kb, "fills(coach, Pat)", "fills(coach, Kim)")
    build(parse, kb, "all(coach, one-of(Pat, Kim))", "fills(coach, Pat)")
    build(parse, kb, "GAME", "fills(coach, Pat)")


def test_filler_coverage_with_counter_world(parse, kb):
    # the steering filler world must coexist with mandatory filler coverage
    world, elem = build(
        parse, kb,
        "and(all(r, one-of(P, Q, V)), at-least(2, r), fills(r, P))",
        "all(r, one-of(P, Q))")
    fillers = world.role_fillers("r", elem)
    assert any(f in world.indiv_ext["P"] for f in fillers)
    assert any(f in world.indiv_ext.get("V", set()) for f in fillers)


def test_atom_cases(parse, kb):
    build(parse, kb, "and(GAME, PERSON)", "TALL")
    build(parse, kb, "INTEGER", "STRING")
    build(parse, kb, "INTEGER", "GAME")
    build(parse, kb, "thing", "classic-thing")
    build(parse, kb, "thing", "host-thing")
    build(parse, kb, "GAME", "host-thing")
    build(parse, kb, "INTEGER", "classic-thing")
    build(parse, kb, "one-of(4, 7)", "STRING")


def test_conjunction_picks_failing_branch(parse, kb):
    build(parse, kb, "and(GAME, at-least(2, r))",
          "and(GAME, at-least(3, r))")
    build(parse, kb, "and(GAME, at-least(2, r))",
          "and(TALL, at-least(1, r))")


def test_host_dom_gap_raises(parse, kb):
    # a host-valued dom can pin the element's built-in type memberships;
    # the structural test still answers no, and no counter-world exists
    g = canonicalize(translate(expand(parse("one-of(4, 7)"), kb)), kb)
    d = expand(parse("INTEGER"), kb)
    assert not subsumes_graph(d, g)
    with pytest.raises(CounterModelError):
        construct_graphical_world(g, steering=d, kb=kb)


def test_world_invariants_hold(parse, kb):
    world, _ = build(parse, kb,
                     "and(all(r, one-of(P, Q)), at-least(2, r), "
                     "fills(coach, Pat))",
                     "at-least(3, r)")
    world.check()


def test_steering_recurses_through_attribute_edge(parse, kb):
    # the counter lives at the a-edge target; the world is re-pointed at
    # the original root
    world, elem = build(parse, kb, "all(coach, PERSON)",
                        "all(coach, and(PERSON, TALL))")
    target = world.attr_value("coach", elem)
    assert target in eval_description(expand(parse("PERSON"), kb), world)
    assert target not in eval_description(expand(parse("TALL"), kb), world)


def test_steering_through_nested_roles(parse, kb):
    build(parse, kb, "all(r, all(s, GAME))",
          "all(r, all(s, and(GAME, PERSON)))")
    build(parse, kb, "and(at-least(1, r), all(r, at-least(1, s)))",
          "all(r, at-least(2, s))")


@pytest.mark.parametrize("steering", [
    None, "all(r, one-of(1))", "all(r, INTEGER)", "at-least(3, r)"])
@pytest.mark.parametrize("subsumee", [
    "fills(r, 2)", 'fills(r, "s")', "and(fills(r, 2), at-least(2, r))"])
def test_host_filler_on_thing_only_restriction(parse, kb, subsumee,
                                               steering):
    # the restriction node carries no classic atom, so the element that
    # realizes a host filler is that host value
    world, elem = build(parse, kb, subsumee, steering)
    assert any(isinstance(f, HostElement) and not f.is_anon
               for f in world.role_fillers("r", elem))


def test_wrong_realm_fillers_for_missing_edges(parse, kb):
    # host-realm bodies are escaped with classic fillers and vice versa
    build(parse, kb, "GAME", "all(r, host-thing)")
    build(parse, kb, "GAME", "all(r, INTEGER)")
    build(parse, kb, "GAME", "all(coach, host-thing)")
    build(parse, kb, "and(GAME, all(coach, classic-thing))",
          "all(coach, INTEGER)")
    build(parse, kb, "GAME", "fills(coach, 4)")


def test_host_filler_keeps_its_host_test_membership(parse, kb):
    # all(r, test(f, host)) makes the filler's node host; the filler is a
    # fresh host value outside INTEGER, and the opaque test atom holds of it
    world, elem = build(parse, kb,
                        "and(at-least(1, r), all(r, test(f, host)))",
                        "all(r, INTEGER)")
    (filler,) = world.role_fillers("r", elem)
    assert isinstance(filler, HostElement)
    assert world.concept_ext["@test:host:f"] == {filler}


# The benchmark's ladders: an n-ary conjunction of atoms, at-least and
# same-as clauses; a same-as chain; n levels of nested ``all``.  The "no"
# query's subsumer has one conjunct more, in the nested ladder at its
# innermost level.

def _and_text(n, extra=False):
    items = [("A%d" % i, "at-least(%d, r%d)" % (1 + i % 3, i),
              "same-as((f%d),(g%d))" % (i, i))[i % 3] for i in range(n)]
    return "and(%s)" % ", ".join(items + ["EXTRA"] * extra)


def _chain_text(n, extra=False):
    parts = ["same-as((a%d),(b%d))" % (i, i) for i in range(1, n + 1)]
    parts += ["same-as((a%d),(a%d))" % (i, i + 1) for i in range(1, n)]
    return "and(%s)" % ", ".join(parts + ["same-as((a1),(z1))"] * extra)


def _nested_text(n, extra=False):
    text = "and(X0, EXTRA)" if extra else "X0"
    for k in range(1, n + 1):
        text = "all(r, and(X%d, at-least(1, r), %s))" % (k, text)
    return text


def _ladder_no_query(make, n):
    """(D, canonical graph of C) for the ladder's "no" query, parsed the
    way the CLI parses two descriptions without a knowledge base."""
    d_text, c_text = make(n, extra=True), make(n)
    attrs = infer_attr_names(d_text, c_text)
    d, c = (parse_description(t, None, inferred_attrs=set(attrs))
            for t in (d_text, c_text))
    kb = KnowledgeBase.empty()
    return expand(d, kb), canonicalize(translate(expand(c, kb)), kb)


@pytest.mark.parametrize("subsumee, steering", [
    # an r-edge's planned filler count, and fresh fillers for a role with
    # no edge: both are checked before any filler is built
    ("at-least(1, r)", "at-least(1000000000, r)"),
    ("GAME", "at-most(1000000000, r)"),
])
def test_planned_counts_past_the_element_limit_fail(parse, kb, subsumee,
                                                    steering):
    with pytest.raises(CounterModelError, match="size limit"):
        build(parse, kb, subsumee, steering)


def test_nested_at_least_ladder_stops_at_the_element_limit():
    # Each level copies its restriction island per filler, so the world
    # doubles per level: 16 levels would take 2^17 elements.
    g = canonicalize(translate(parse_description(_nested_text(16))))
    with pytest.raises(CounterModelError, match="size limit"):
        construct_graphical_world(g)


def test_within_agrees_in_counter_model_worlds(within_agrees):
    # the worlds the membership check runs in: ladder and corpus "no" cases
    rng = random.Random(0)
    queries = [_ladder_no_query(make, n) for make, sizes in (
        (_and_text, (8, 32)), (_chain_text, (4, 16)),
        (_nested_text, (4, 8))) for n in sizes]
    kb = corpus_kb()
    for seed in range(800):
        d, c = random_pair(random.Random(seed))
        g = canonicalize(translate(c), kb)
        if not subsumes_graph(d, g):
            queries.append((d, g))
    built = checks = 0
    for d, g in queries:
        try:
            world, _ = construct_graphical_world(g, steering=d, kb=kb)
        except CounterModelError:
            continue
        built += 1
        for sub in dict.fromkeys(walk(d)):
            checks += within_agrees(sub, world, rng)
    assert built > 250 and checks > 4000, (built, checks)


@pytest.mark.parametrize("make, sizes", [(_and_text, (64, 128, 256)),
                                         (_nested_text, (16, 32, 64))])
def test_counter_model_check_is_linear(monkeypatch, make, sizes):
    # The check evaluates D at the distinguished element, and each conjunct
    # only at the candidates the earlier ones left, so the world lookups of
    # one construction grow linearly with the ladder; evaluating every
    # clause over the whole world made them grow with |D| times the world.
    calls = Counter()
    for name in ("attr_value", "count_non_congruent"):
        real = getattr(Interpretation, name)

        def counted(self, *args, real=real, name=name):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(Interpretation, name, counted)
    for n in sizes:
        d, g = _ladder_no_query(make, n)
        calls.clear()
        construct_graphical_world(g, steering=d)
        assert sum(calls.values()) <= 4 * n, (n, calls)

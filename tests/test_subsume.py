import random

import pytest

from classicdl import descriptions
from classicdl.descriptions import (
    AllRole,
    And,
    AtLeast,
    ClassicThing,
    ConceptName,
    REALM_HOST,
    THING,
    Thing,
    walk,
)
from classicdl.countermodel import construct_graphical_world
from classicdl.graph import translate
from classicdl.normalize import canonicalize
from classicdl.parsing import parse_description
from classicdl.randgen import random_pair
from classicdl.subsume import (
    covers_everything,
    equivalent,
    explain,
    subsumes,
    subsumes_graph,
)


def test_participants_example(parse, kb):
    d = parse("and(GAME, at-least(2, participants))")
    c = parse("and(GAME, at-least(4, participants), "
              "all(participants, and(PERSON, fills(f, Pat))))")
    assert subsumes(d, c, kb)
    assert not subsumes(c, d, kb)


def test_arbitrary_depth_same_as(parse, kb):
    c = parse("and(all(friend, TALL), same-as((friend),(friend,friend)))")
    for k in range(1, 11):
        text = "TALL"
        for _ in range(k):
            text = "all(friend, %s)" % text
        assert subsumes(parse(text), c, kb)


def test_all_subsumes_at_most_zero(parse, kb):
    assert subsumes(parse("all(r, GAME)"), parse("at-most(0, r)"), kb)


def test_same_filler_does_not_imply_equality(parse, kb):
    # identity of chain values is required; shared individuals are not enough
    d = parse("same-as((coach),(captain))")
    c = parse("and(fills(coach, Arctic), fills(captain, Arctic))")
    assert not subsumes(d, c, kb)


def test_jaded_person_envelope(parse, kb):
    body = parse('all(wantsToVisit, and(one-of(Arctic, Antarctic), '
                 'all(hasPenguins, one-of("Yes"))))')
    assert not subsumes(parse("at-most(1, wantsToVisit)"), body, kb)
    # the dom does cap the count at two
    assert subsumes(parse("at-most(2, wantsToVisit)"), body, kb)


def test_incoherent_below_everything(parse, kb):
    for text in ["GAME", "at-least(3, r)", "one-of(P)",
                 "same-as((f),(g))", "INTEGER"]:
        assert subsumes(parse(text), parse("nothing"), kb)
        assert subsumes(parse(text),
                        parse("and(at-least(2, r), at-most(1, r))"), kb)


def test_chain_extension_needs_classic_end(parse, kb):
    # the shared-tail rule applies only when the joint prefix node is
    # classic; a bare equality leaves the end node realm-open
    d = parse("same-as((f,h),(g,h))")
    assert not subsumes(d, parse("same-as((f),(g))"), kb)
    assert subsumes(d, parse("and(same-as((f),(g)), all(f, classic-thing))"),
                    kb)


def test_fills_from_dom_squeeze(parse, kb):
    assert subsumes(parse("fills(r, P)"),
                    parse("and(all(r, one-of(P)), at-least(1, r))"), kb)


def test_thing_conditions(parse, kb):
    assert subsumes(parse("thing"), parse("GAME"), kb)
    assert subsumes(parse("and(thing, thing)"), parse("one-of(4)"), kb)
    assert not subsumes(parse("GAME"), parse("thing"), kb)
    assert not subsumes(parse("classic-thing"), parse("thing"), kb)


def test_realm_conditions(parse, kb):
    assert subsumes(parse("classic-thing"), parse("GAME"), kb)
    assert subsumes(parse("host-thing"), parse("INTEGER"), kb)
    assert not subsumes(parse("classic-thing"), parse("INTEGER"), kb)
    assert subsumes(parse("NUMBER"), parse("INTEGER"), kb)
    assert not subsumes(parse("INTEGER"), parse("NUMBER"), kb)


def test_universal_restriction_over_classic(parse, kb):
    # a body covering everything needs only the applicability of the role
    assert subsumes(parse("all(r, thing)"), parse("GAME"), kb)
    assert subsumes(parse("all(coach, thing)"), parse("GAME"), kb)
    assert not subsumes(parse("all(r, thing)"), parse("INTEGER"), kb)
    assert not subsumes(parse("all(r, thing)"), parse("thing"), kb)


def test_number_conditions(parse, kb):
    c = parse("and(at-least(2, r), at-most(3, r))")
    assert subsumes(parse("at-least(1, r)"), c, kb)
    assert subsumes(parse("at-least(2, r)"), c, kb)
    assert not subsumes(parse("at-least(3, r)"), c, kb)
    assert subsumes(parse("at-most(3, r)"), c, kb)
    assert subsumes(parse("at-most(4, r)"), c, kb)
    assert not subsumes(parse("at-most(2, r)"), c, kb)
    assert not subsumes(parse("at-least(1, s)"), c, kb)


def test_value_restriction_recursion(parse, kb):
    assert subsumes(parse("all(r, GAME)"),
                    parse("all(r, and(GAME, PERSON))"), kb)
    assert not subsumes(parse("all(r, and(GAME, PERSON))"),
                        parse("all(r, GAME)"), kb)


def test_attribute_conditions(parse, kb):
    assert subsumes(parse("all(coach, PERSON)"),
                    parse("all(coach, and(PERSON, TALL))"), kb)
    assert subsumes(parse("fills(coach, Pat)"),
                    parse("and(fills(coach, Pat), GAME)"), kb)
    assert not subsumes(parse("fills(coach, Pat)"),
                        parse("fills(coach, Kim)"), kb)
    assert not subsumes(parse("fills(coach, Pat)"),
                        parse("fills(captain, Pat)"), kb)


def test_role_filler_condition(parse, kb):
    assert subsumes(parse("fills(r, P)"), parse("fills(r, P)"), kb)
    assert not subsumes(parse("fills(r, P)"), parse("fills(r, Q)"), kb)
    assert not subsumes(parse("fills(r, P)"), parse("at-least(3, r)"), kb)


def test_one_of_condition(parse, kb):
    assert subsumes(parse("one-of(P, Q)"), parse("one-of(P)"), kb)
    assert not subsumes(parse("one-of(P)"), parse("one-of(P, Q)"), kb)
    assert not subsumes(parse("one-of(P)"), parse("GAME"), kb)
    assert subsumes(parse("one-of(4, 7)"), parse("one-of(4)"), kb)


def test_same_as_path_conditions(parse, kb):
    c = parse("same-as((coach),(captain,father))")
    assert subsumes(parse("same-as((coach),(captain,father))"), c, kb)
    assert not subsumes(parse("same-as((coach),(captain))"), c, kb)
    assert not subsumes(parse("same-as((coach),(father,captain))"), c, kb)


def test_conjunction_decomposition(parse, kb):
    d1 = parse("GAME")
    d2 = parse("at-least(2, r)")
    c = parse("and(GAME, at-least(4, r), PERSON)")
    g = canonicalize(translate(c), kb)
    both = subsumes_graph(parse("and(GAME, at-least(2, r))"), g)
    assert both == (subsumes_graph(d1, g) and subsumes_graph(d2, g))


def test_equivalences(parse, kb):
    assert equivalent(parse("at-most(0, r)"), parse("all(r, nothing)"), kb)
    assert equivalent(parse("and(GAME, PERSON)"),
                      parse("and(PERSON, GAME)"), kb)
    assert not equivalent(parse("at-least(1, r)"),
                          parse("at-least(2, r)"), kb)
    assert equivalent(parse("fills(coach, Pat)"),
                      parse("all(coach, one-of(Pat))"), kb)


def test_reflexivity(parse, kb):
    texts = [
        "GAME", "thing", "classic-thing", "host-thing", "nothing",
        "INTEGER", "one-of(P, Q)", "fills(r, P)", "fills(coach, Pat)",
        "at-least(2, r)", "at-most(0, r)", "same-as((f),(g,h))",
        "and(GAME, all(r, and(PERSON, at-least(1, s))))",
        'one-of("a", "b")',
    ]
    for text in texts:
        d = parse(text)
        assert subsumes(d, d, kb), text


def test_expansion_errors_propagate():
    from classicdl.descriptions import NamedRef
    from classicdl.kb import KbError, KnowledgeBase

    broken = KnowledgeBase.empty()
    broken.named["X"] = NamedRef("missing")
    with pytest.raises(KbError, match="unknown named concept"):
        subsumes(parse_description("X", broken), Thing(), broken)


def test_unexpanded_part_is_rejected_where_reached():
    # A nested test(...) that the structural test reaches is the same
    # ValueError as a top-level one, not an unknown class.
    test = descriptions.Test("even", REALM_HOST)
    g = canonicalize(translate(And((ConceptName("A"), AtLeast(1, "r")))))
    for d in (test, And((ConceptName("A"), test)), AllRole("r", test)):
        with pytest.raises(ValueError,
                           match="must be expanded before subsumption"):
            explain(d, g)


def test_trivial_equality_is_classic_thing(parse, kb):
    # f(d) = f(d) holds for every classic element, and only there
    assert equivalent(parse("same-as((f),(f))"), parse("classic-thing"), kb)
    assert subsumes(parse("same-as((f),(f))"), parse("GAME"), kb)
    assert not subsumes(parse("same-as((f),(f))"), parse("INTEGER"), kb)


def test_nested_zero_bound_equivalences(parse, kb):
    assert equivalent(parse("all(r, at-most(0, s))"),
                      parse("all(r, all(s, nothing))"), kb)
    assert subsumes(parse("all(r, all(s, GAME))"),
                    parse("all(r, at-most(0, s))"), kb)


def test_host_string_fill_equivalence(parse, kb):
    assert equivalent(parse('fills(coach, "hi")'),
                      parse('all(coach, one-of("hi"))'), kb)


def _thing_graph_test(d):
    return subsumes_graph(d, canonicalize(translate(Thing())))


def test_covers_everything_matches_thing_graph():
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(1500):
        for side in random_pair(rng):
            for sub in walk(side):
                got = covers_everything(sub)
                assert got == _thing_graph_test(sub), sub
                seen[got] += 1
    assert seen[True] > 100 and seen[False] > 100


def test_covers_everything_built_cases():
    thing_atom = ConceptName(THING)
    cases = {
        Thing(): True,
        thing_atom: True,
        And((Thing(), And((thing_atom, Thing())))): True,
        AllRole("r", Thing()): False,
        And((Thing(), ClassicThing())): False,
    }
    # a subsumer equivalent to THING is above graphs whose root does not
    # carry the THING atom
    others = [canonicalize(translate(parse_description(t)))
              for t in ("GAME", "at-least(1, r)", "same-as((f),(g))")]
    for d, want in cases.items():
        assert covers_everything(d) is want, d
        assert _thing_graph_test(d) is want, d
        if want:
            assert all(subsumes_graph(d, g) for g in others), d


def _nested_all(depth: int, extra: bool = False) -> str:
    # With ``extra`` the subsumer has one more conjunct at the innermost
    # level, so a "no" is found only at the bottom of the recursion.
    text = "and(X0, EXTRA)" if extra else "X0"
    for k in range(1, depth + 1):
        text = "all(r, and(X%d, at-least(1, r), %s))" % (k, text)
    return text


def test_nested_all_yes_query_makes_linear_calls(count_steps):
    # Each level costs the and, its three conjuncts and no THING re-check.
    depth = 80
    d = parse_description(_nested_all(depth))
    g = canonicalize(translate(d))
    yes, steps = count_steps(subsumes_graph, d, g)
    assert yes
    assert steps <= 4 * depth + 1


@pytest.mark.parametrize("depth", (20, 40, 80))
def test_nested_all_counter_model_steps_equal_one_test(count_steps, depth):
    # The counter-model follows the test's failure down the ladder instead
    # of re-testing every conjunct at every level.
    d = parse_description(_nested_all(depth, extra=True))
    g = canonicalize(translate(parse_description(_nested_all(depth))))
    yes, test_steps = count_steps(subsumes_graph, d, g)
    assert not yes
    assert test_steps == 4 * depth + 3
    _, steps = count_steps(construct_graphical_world, g, d)
    assert steps == test_steps

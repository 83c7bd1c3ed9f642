import random
import sys

import pytest

from classicdl.descriptions import (
    AllAttr,
    AllRole,
    And,
    AtLeast,
    AtMost,
    ConceptName,
    FillsAttr,
    HostConcept,
    Individual,
    NamedRef,
    OneOf,
    Primitive,
    SameAs,
    Thing,
    host_real,
    to_text,
    walk,
)
from classicdl.kb import KbError, expand
from classicdl.parsing import ParseError, parse_description, parse_kb
from classicdl.randgen import random_pair


def test_simple_conjunction(parse):
    d = parse("and(GAME, at-least(4, participants))")
    assert d == And((ConceptName("GAME"), AtLeast(4, "participants")))


def test_figure_source_description(parse):
    d = parse("and(GAME, all(participants, PERSON), "
              "same-as((coach),(captain,father)))")
    assert d == And((
        ConceptName("GAME"),
        AllRole("participants", ConceptName("PERSON")),
        SameAs(("coach",), ("captain", "father")),
    ))


def test_role_in_same_as_rejected(parse):
    with pytest.raises(ParseError, match="attributes only"):
        parse("same-as((friend),(participants))")


def test_attribute_in_number_restriction_rejected(parse):
    with pytest.raises(ParseError, match="role"):
        parse("at-least(2, coach)")


def test_heterogeneous_one_of_rejected(parse):
    with pytest.raises(ParseError, match="all host values or all classic"):
        parse("one-of(Pat, 4)")


def test_host_literals(parse):
    d = parse('one-of(4, 4.5, "abc")')
    assert isinstance(d, OneOf)
    kinds = [(m.host_type, m.value) for m in d.members]
    assert kinds == [("INTEGER", 4), ("REAL", 4.5), ("STRING", "abc")]


def test_string_escapes_round_trip():
    d = parse_description('fills(f, "a\\"b\\\\c")',
                          inferred_attrs={"f"})
    assert isinstance(d, FillsAttr)
    assert d.who.value == 'a"b\\c'
    assert parse_description(to_text(d), inferred_attrs={"f"}) == d


def test_real_literals_round_trip_without_exponents():
    # repr writes 1e-05 and 1e+16, which the grammar does not read.
    rng = random.Random(0)
    values = [10.0 ** k for k in range(-30, 31)]
    values += [rng.uniform(1, 10) * 10.0 ** rng.randint(-30, 30)
               for _ in range(500)]
    for x in values:
        name = host_real(x).name
        assert "e" not in name, name
        text = "one-of(%s)" % name
        d = parse_description(text)
        (member,) = d.members
        assert member.value == x, text
        assert to_text(d) == text


def test_an_overflowing_real_literal_is_a_parse_error():
    text = "one-of(%s.0)" % ("9" * 400)
    with pytest.raises(ParseError, match="out of range") as exc:
        parse_description(text)
    assert exc.value.pos == len("one-of(")


def test_at_least_zero_rejected(parse):
    with pytest.raises(ParseError, match="positive"):
        parse("at-least(0, r)")


def test_at_most_zero_allowed(parse):
    assert parse("at-most(0, r)") == AtMost(0, "r")


def test_reserved_atom_spelling_rejected(parse):
    with pytest.raises(ParseError, match="reserved"):
        parse("and(THING, GAME)")


def test_unknown_role_with_kb_rejected(parse):
    with pytest.raises(ParseError, match="unknown role or attribute"):
        parse("all(undeclared, GAME)")


def test_positioned_error():
    try:
        parse_description("and(GAME, ,)")
    except ParseError as exc:
        assert exc.pos == 10
    else:
        pytest.fail("no error raised")


def test_inference_without_kb():
    # same-as names become attributes; other pnames default to roles
    d = parse_description("and(all(participants, PERSON), "
                          "same-as((coach),(captain)), all(coach, TALL))")
    conjuncts = d.items
    assert isinstance(conjuncts[0], AllRole)
    assert isinstance(conjuncts[2], AllAttr)


def test_host_concept_names(parse):
    assert parse("INTEGER") == HostConcept("INTEGER")
    assert parse_description("REAL") == HostConcept("REAL")


def test_kb_declarations_and_expansion():
    kb = parse_kb("role participants\nattribute coach\n"
                  "concept E := at-least(1, participants)\nconcept F := E")
    assert kb.kind_of("participants") == "role"
    assert kb.kind_of("coach") == "attribute"
    assert expand(NamedRef("F"), kb) == AtLeast(1, "participants")


def test_kb_forward_reference():
    kb = parse_kb("role r\nconcept F := E\nconcept E := at-least(1, r)")
    assert expand(NamedRef("F"), kb) == AtLeast(1, "r")


def test_kb_recursion_rejected():
    with pytest.raises(KbError, match="recursive"):
        parse_kb("concept A := B\nconcept B := A")


def test_kb_redeclaration_rejected():
    with pytest.raises(ParseError, match="already declared"):
        parse_kb("role r\nattribute r")


def test_kb_host_types():
    kb = parse_kb("host-type TEMPERATURE subtype-of REAL")
    assert kb.lattice.leq("TEMPERATURE", "NUMBER")
    with pytest.raises(ParseError, match="unknown parent"):
        parse_kb("host-type A subtype-of B\nhost-type B")


def test_kb_comments_and_blank_lines():
    kb = parse_kb("# a comment\n\nrole r  # trailing comment\n")
    assert kb.kind_of("r") == "role"


def test_disjoint_declaration():
    kb = parse_kb("disjoint MALE FEMALE")
    assert frozenset({"MALE", "FEMALE"}) in kb.disjoint_groups


@pytest.mark.parametrize("declaration, name, kind", [
    ("concept TALL := primitive(thing, tall)", "TALL", "concept"),
    ("role TALL", "TALL", "role"),
    ("attribute TALL", "TALL", "attribute"),
    ("individual TALL", "TALL", "individual"),
    ("host-type TALL", "TALL", "host-type"),
    ("role r", "INTEGER", "host-type"),
])
def test_disjoint_rejects_declared_names(declaration, name, kind):
    # the group comes first: names are checked once every line is read
    text = "disjoint SMALL %s\n%s\n" % (name, declaration)
    with pytest.raises(ParseError, match="disjoint names the %s %s"
                       % (kind, name)) as exc:
        parse_kb(text)
    assert exc.value.line == 1
    assert exc.value.pos == len("disjoint SMALL ")


@pytest.mark.parametrize("line, name, pos", [
    ("disjoint MALE MALE", "MALE", len("disjoint MALE ")),
    ("disjoint TALL SMALL TALL", "TALL", len("disjoint TALL SMALL ")),
    ("disjoint A B  C B  # B again", "B", len("disjoint A B  C ")),
])
def test_disjoint_rejects_a_repeated_name(line, name, pos):
    # a repeated name would leave a group of fewer distinct names
    with pytest.raises(ParseError, match="disjoint names %s twice" % name) \
            as exc:
        parse_kb("role r\n" + line)
    assert (exc.value.line, exc.value.pos) == (2, pos)


@pytest.mark.parametrize("text, message, pos", [
    ("role r\nattribute  r", "r already declared on line 1",
     len("attribute  ")),
    ("role r\nhost-type  INTEGER", "INTEGER is a built-in host type",
     len("host-type  ")),
    ("role r\nhost-type T subtype-of  NOPE", "unknown parent host type NOPE",
     len("host-type T subtype-of  ")),
])
def test_kb_declaration_errors_point_at_the_name(text, message, pos):
    with pytest.raises(ParseError, match=message) as exc:
        parse_kb(text)
    assert (exc.value.line, exc.value.pos) == (2, pos)


@pytest.mark.parametrize("line", [
    "role THING",
    "attribute CLASSIC-THING",
    "individual HOST-THING",
    "host-type NOTHING",
    "host-type THING subtype-of STRING",
    "concept NOTHING := A",
])
def test_kb_declaration_rejects_a_reserved_name(line):
    # the graph-label spellings name built-in atoms, never a user's
    name = line.split()[1]
    with pytest.raises(ParseError, match="%s is reserved" % name) as exc:
        parse_kb("role r\n" + line)
    assert (exc.value.line, exc.value.pos) == (2, line.index(name))


@pytest.mark.parametrize("name", ["THING", "CLASSIC-THING", "HOST-THING",
                                  "NOTHING"])
def test_disjoint_rejects_a_reserved_name(name):
    line = "disjoint A %s B" % name
    with pytest.raises(ParseError, match="%s is reserved" % name) as exc:
        parse_kb(line)
    assert (exc.value.line, exc.value.pos) == (1, len("disjoint A "))


def test_round_trip_with_kb(kb):
    texts = [
        "and(GAME, at-least(4, participants))",
        "all(coach, and(PERSON, fills(f, Pat)))",
        "same-as((coach),(captain,father))",
        'one-of(4, 17)',
        "at-most(0, r)",
        "primitive(and(PERSON, at-least(1, r)), employee)",
        "test(prime, host)",
        "nothing",
    ]
    for text in texts:
        d = parse_description(text, kb)
        assert parse_description(to_text(d), kb) == d


def test_parser_totality_on_junk(kb):
    for junk in ["", "and(", ")", "and(GAME)", "one-of()", "all(r)",
                 "fills(r, )", "same-as((f),())", "at-least(x, r)",
                 "\x00", "and(GAME, PERSON) trailing"]:
        with pytest.raises(ParseError):
            parse_description(junk, kb)


def test_individual_identity():
    four = parse_description("one-of(4)").members[0]
    four_real = parse_description("one-of(4.0)").members[0]
    assert four != four_real  # distinct host values, distinct extensions
    assert four == Individual("4", "INTEGER", 4)


def test_thing_keyword(parse):
    assert parse("thing") == Thing()


def _preorder(d):
    """The recursive reference walk ``walk`` must agree with."""
    out = [d]
    if isinstance(d, And):
        for c in d.items:
            out += _preorder(c)
    elif isinstance(d, (AllRole, AllAttr)):
        out += _preorder(d.restriction)
    elif isinstance(d, Primitive):
        out += _preorder(d.body)
    return out


def test_walk_order_matches_recursive_preorder():
    rng = random.Random(0)
    for _ in range(500):
        for d in random_pair(rng):
            assert [id(n) for n in walk(d)] == [id(n) for n in _preorder(d)]


def test_walk_has_no_depth_ceiling():
    # Built by hand: the parser still recurses per level.
    depth = 3 * sys.getrecursionlimit()
    d = ConceptName("A")
    for _ in range(depth):
        d = AllRole("r", And((ConceptName("B"), d)))
    nodes = list(walk(d))
    assert len(nodes) == 3 * depth + 1
    assert nodes[-1] == ConceptName("A")

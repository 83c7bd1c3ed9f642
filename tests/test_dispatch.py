"""Every description layer handles or rejects every description class.

The layers find a constructor's case by looking its class up, so a class
is handled only if the lookup knows it, and a subclass of a handled class
would not be.  For each layer, every concrete ``Description`` class is
either handled or rejected with the layer's documented exception and
message, and so is an object that is no description at all.
"""

import pytest

from classicdl import countermodel, descriptions, subsume
from classicdl.countermodel import CounterModelError
from classicdl.descriptions import (
    AllAttr,
    AllRole,
    And,
    AtLeast,
    AtMost,
    ATOM,
    CLASSIC_ONLY,
    CLASSIC_THING,
    ClassicThing,
    ConceptName,
    Description,
    FillsAttr,
    FillsRole,
    HostConcept,
    HostThing,
    Individual,
    NamedRef,
    Nothing,
    OneOf,
    Primitive,
    REALM_HOST,
    SameAs,
    Thing,
    host_int,
    to_text,
    walk,
)
from classicdl.graph import translate
from classicdl.kb import DEFAULT_LATTICE, KnowledgeBase, expand
from classicdl.normalize import canonicalize
from classicdl.worlds import (
    EvalError,
    eval_description,
    sample_interpretation,
    signature_of_description,
)

SAMPLES = [
    Thing(), ClassicThing(), HostThing(), Nothing(), ConceptName("A"),
    HostConcept("INTEGER"), And((ConceptName("A"), AtLeast(1, "r"))),
    AllRole("r", ConceptName("A")), AllAttr("f", ConceptName("A")),
    AtLeast(1, "r"), AtMost(2, "r"), SameAs(("f",), ("g",)),
    FillsRole("r", Individual("P")), FillsAttr("f", host_int(4)),
    OneOf((Individual("P"),)), Primitive(ConceptName("A"), "t"),
    descriptions.Test("even", REALM_HOST), NamedRef("N"),
]
# No description at all: no lookup knows its class.
STRANGER = None

KB = KnowledgeBase()
KB.named = {"N": ConceptName("A")}
GRAPH = canonicalize(translate(ClassicThing()))

LAYERS = {
    "to_text": to_text,
    "to_jsonable": descriptions.to_jsonable,
    "walk": lambda d: list(walk(d)),
    "eval_description": lambda d: eval_description(
        d, sample_interpretation(signature_of_description(d), 0)),
    "signature_of_description": signature_of_description,
    "translate": translate,
    "expand": lambda d: expand(d, KB),
    "explain": lambda d: subsume.explain(d, GRAPH),
    "_failure": lambda d: subsume._failure(d, GRAPH, GRAPH.root),
    "covers_everything": subsume.covers_everything,
    "_plan": lambda d: countermodel._plan(
        subsume.Failure(d, GRAPH, GRAPH.root), {}, {}, DEFAULT_LATTICE),
    "_host_confined": countermodel._host_confined,
}

UNEXPANDED = (NamedRef, Primitive, descriptions.Test)


def _not_a_description(d):
    return TypeError, "not a description: %r" % (d,)


def _must_expand(error, before):
    def rejected(d):
        return error, "description must be expanded before " + before
    return rejected


# Per layer, the classes it rejects (``None`` for the stranger), each
# with the exception it raises.
REJECTED = {
    "to_text": {None: _not_a_description},
    "to_jsonable": {None: _not_a_description},
    "walk": {},
    "eval_description": {
        None: _not_a_description,
        **dict.fromkeys(UNEXPANDED, _must_expand(EvalError, "evaluation"))},
    "signature_of_description": {},
    "translate": {
        None: _not_a_description,
        **dict.fromkeys(UNEXPANDED, _must_expand(ValueError, "translation"))},
    "expand": {},
    "explain": {
        None: _not_a_description,
        **dict.fromkeys(UNEXPANDED, _must_expand(ValueError, "subsumption"))},
    "_failure": {
        None: _not_a_description,
        **dict.fromkeys(UNEXPANDED, _must_expand(ValueError, "subsumption"))},
    "covers_everything": {},
    "_plan": dict.fromkeys(
        (None, Thing, And, *UNEXPANDED),
        lambda d: (CounterModelError, "cannot steer against %r" % (d,))),
    "_host_confined": {},
}


def _concrete_classes():
    out, stack = [], [Description]
    while stack:
        cls = stack.pop()
        if cls is not Description:
            out.append(cls)
        stack += cls.__subclasses__()
    return out


def test_samples_cover_every_concrete_class():
    assert sorted(type(d).__name__ for d in SAMPLES) == \
        sorted(cls.__name__ for cls in _concrete_classes())


def test_no_concrete_description_class_has_a_subclass():
    # A lookup on the class would not find a subclass's case.
    assert [cls for cls in _concrete_classes() if cls.__subclasses__()] == []


def _outcome(layer, d):
    try:
        layer(d)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_layer_handles_or_rejects_every_class(name):
    rejected = REJECTED[name]
    for d in [*SAMPLES, STRANGER]:
        key = None if d is STRANGER else type(d)
        expected = rejected[key](d) if key in rejected else None
        assert _outcome(LAYERS[name], d) == expected, (name, d)


def test_translation_and_counter_model_agree_on_shared_facts():
    # Translation marks a classic-only constructor's node CLASSIC-THING
    # (or a classic one-of's, through its dom), and writes each atomic
    # constructor's atom there; the counter-model lets a host node
    # escape every classic-only constructor unsteered.
    host = canonicalize(translate(HostThing()))
    for d in SAMPLES:
        t = type(d)
        if t is And or t in UNEXPANDED:
            continue
        atoms = translate(d).root_node.atoms
        classic = t in CLASSIC_ONLY or (t is OneOf and not d.is_host)
        assert (CLASSIC_THING in atoms) == classic, d
        if t in ATOM:
            assert ATOM[t](d) in atoms, d
        if t in CLASSIC_ONLY:
            plans, edge_plans = {}, {}
            countermodel._plan(subsume.Failure(d, host, host.root), plans,
                               edge_plans, DEFAULT_LATTICE)
            assert (plans, edge_plans) == ({}, {}), d

"""The value protocol of descriptions and individuals.

Descriptions are immutable values: equal when they have one class and
equal fields, hashed by their fields, shown by ``repr`` as the class and
each field by name, and closed to assignment and deletion.  The checks
run over every description of the size-2 small-scope corpus, parsed and
expanded, and of 300 seed-0 ``random_pair`` pairs.  Pickling and copying
give equal values.
"""

import copy
import hashlib
import inspect
import pickle
import random

import pytest

from classicdl.descriptions import (
    And,
    AtLeast,
    AtMost,
    ConceptName,
    HostConcept,
    Individual,
    OneOf,
    SameAs,
    Test as ConceptTest,
    Thing,
    host_int,
    to_text,
    walk,
)
from classicdl.kb import expand
from classicdl.parsing import parse_description, parse_kb
from classicdl.randgen import corpus_kb, random_pair
from test_small_scope import KB_TEXT, size2_corpus

# sha256 over the ``repr`` of every corpus description, one a line, in
# corpus order.  ``countermodel`` puts the ``repr`` of a description into
# an error message, so the format is part of the engine's output.
REPR_DIGEST = \
    "dc3c47eb235ad199d7af627f54440ac7315d1ca3c9fce0a3bedc6052ee5b2356"


def corpus() -> list[tuple[object, object]]:
    """(knowledge base, description) for every corpus description."""
    out = []
    kb = parse_kb(KB_TEXT)
    for text in size2_corpus():
        d = parse_description(text, kb)
        out += [(kb, d), (kb, expand(d, kb))]
    kb = corpus_kb()
    rng = random.Random(0)
    for _ in range(300):
        out += [(kb, d) for d in random_pair(rng)]
    return out


def fields(value) -> list[str]:
    """The value's field names: its constructor's parameters."""
    return list(inspect.signature(type(value)).parameters)


def test_repr_is_the_recorded_dataclass_format():
    assert repr(AtLeast(2, "s")) == "AtLeast(n=2, role='s')"
    assert repr(Individual("P")) == \
        "Individual(name='P', host_type=None, value=None)"
    assert repr(host_int(4)) == \
        "Individual(name='4', host_type='INTEGER', value=4)"
    assert repr(And((Thing(), HostConcept("A")))) == \
        "And(items=(Thing(), HostConcept(name='A')))"
    text = "\n".join(repr(d) for _, d in corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == REPR_DIGEST


def test_a_reparse_is_equal_and_hashes_equal():
    for kb, d in corpus():
        for node in walk(d):
            again = parse_description(to_text(node), kb)
            assert again == node and not again != node
            assert hash(again) == hash(node)


def test_a_pickled_or_copied_value_is_equal():
    for _, d in corpus():
        for again in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
            assert again == d and hash(again) == hash(d)


def test_equal_fields_under_different_classes_are_unequal():
    assert ConceptName("A") != HostConcept("A")
    assert AtLeast(1, "r") != AtMost(1, "r")
    assert Individual("P") == Individual("P", None, None)
    assert Individual("P") != ConceptName("P")


def test_values_refuse_assignment_and_deletion():
    seen = set()
    for _, d in corpus():
        for node in walk(d):
            if type(node) in seen:
                continue
            seen.add(type(node))
            for name in fields(node) or ["name"]:
                with pytest.raises(AttributeError):
                    setattr(node, name, None)
                with pytest.raises(AttributeError):
                    delattr(node, name)
    p = Individual("P")
    with pytest.raises(AttributeError):
        p.name = "Q"
    with pytest.raises(AttributeError):
        del p.value
    assert len(seen) > 12


@pytest.mark.parametrize("build", [
    lambda: And((Thing(),)),
    lambda: AtLeast(0, "r"),
    lambda: AtMost(-1, "r"),
    lambda: SameAs((), ("f",)),
    lambda: SameAs(("f",), ()),
    lambda: OneOf(()),
    lambda: OneOf((Individual("P"), host_int(1))),
    lambda: ConceptTest("f", "other"),
], ids=["and-of-one", "at-least-0", "at-most-negative", "same-as-left",
        "same-as-right", "one-of-empty", "one-of-mixed", "test-realm"])
def test_constructor_checks_raise_value_error(build):
    with pytest.raises(ValueError):
        build()

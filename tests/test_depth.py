"""Deep descriptions pass every description layer at the default
recursion limit.

Each layer that still recurses spends a fixed number of Python frames per
nesting level, and the depths below leave room for those frames only:
run as a script at the default limit, the three shapes reach about 496,
993 and 330 levels, held back by the structural test for the first and
the third and by expansion for the second.  A layer that spent one more
frame per level, say by calling a case function for a recursive
constructor that then calls the walker again, would fail here.
Translation, canonicalization, the graph dump and graph evaluation keep
explicit stacks, so they take any depth; the counter-model's builders,
which graph evaluation checks, still recurse.  The parser keeps a stack
of open constructors, so it takes any depth too.
"""

import sys

import pytest

from classicdl.descriptions import (
    AllAttr,
    AllRole,
    And,
    AtLeast,
    AtMost,
    ConceptName,
    NamedRef,
    walk,
)
from classicdl.countermodel import construct_graphical_world
from classicdl.graph import to_jsonable, translate
from classicdl.kb import KnowledgeBase, expand
from classicdl.normalize import canonicalize
from classicdl.parsing import parse_description, parse_kb
from classicdl.subsume import explain
from classicdl.worlds import (
    ClassicElement,
    element_in_graph,
    eval_description,
    eval_graph,
    find_witness,
    Interpretation,
    sample_interpretation,
    signature_of_description,
)
from test_cli import _nested_text


def _all_role(depth, inner):
    d = inner
    for _ in range(depth):
        d = AllRole("r", d)
    return d


def _all_attr(depth, inner):
    d = inner
    for _ in range(depth):
        d = AllAttr("f", d)
    return d


def _all_and(depth, inner):
    d = inner
    for k in range(1, depth + 1):
        d = AllRole("r", And((ConceptName("X%d" % k), AtLeast(1, "r"), d)))
    return d


@pytest.mark.parametrize("shape, depth", [
    (_all_role, 400),
    (_all_attr, 800),
    (_all_and, 250),
], ids=["all-role", "all-attr", "all-and"])
def test_deep_description_runs_the_whole_pipeline(shape, depth):
    # The innermost name is defined, so ``expand`` rebuilds every level.
    kb = KnowledgeBase()
    kb.named = {"Inner": ConceptName("A")}
    d = expand(shape(depth, NamedRef("Inner")), kb)
    # Dataclass equality recurses once per level, so compare node by node.
    assert [type(n) for n in walk(d)] == \
        [type(n) for n in walk(shape(depth, ConceptName("A")))]
    g = canonicalize(translate(d), kb)
    assert not g.incoherent
    assert explain(d, g) is None
    assert explain(shape(depth, ConceptName("B")), g) is not None
    sig = signature_of_description(d)
    assert "A" in sig.atoms
    world = sample_interpretation(sig, seed=0)
    ext = eval_description(d, world)
    assert ext <= world.classic | world.hosts
    every = frozenset(world.classic | world.hosts)
    assert eval_description(d, world, every) == ext


def test_world_evaluation_spends_one_frame_per_description_level():
    # Evaluation recurses once per ``and`` and once per ``all``, fewer
    # frames per level than the layers above, so it gets a deeper input of
    # its own: 400 levels of the third shape are 800 nested ``and`` and
    # ``all`` descriptions.
    d = _all_and(400, ConceptName("A"))
    world = sample_interpretation(signature_of_description(d), seed=0)
    ext = eval_description(d, world)
    assert ext <= world.classic | world.hosts


@pytest.mark.parametrize("shape, extra", [
    (_all_role, 1),
    (_all_attr, 1),
    (_all_and, 2),
], ids=["all-role", "all-attr", "all-and"])
def test_graph_layers_take_any_depth(shape, extra):
    depth = 3 * sys.getrecursionlimit()
    g = canonicalize(translate(shape(depth, ConceptName("A"))))
    assert not g.incoherent
    # One node per level, plus the innermost restriction's in all-and.
    nodes, stack = 0, [to_jsonable(g)]
    while stack:
        dump = stack.pop()
        nodes += len(dump["nodes"])
        stack += [e["restriction"] for n in dump["nodes"] for e in n["redges"]]
    assert nodes == depth + extra


def _shape_of(d):
    """The nodes of ``d`` in preorder, each constructor as its type and each
    leaf as itself, so that equal lists mean equal descriptions."""
    return [type(n) if isinstance(n, (AllRole, And)) else n for n in walk(d)]


def test_parser_takes_any_depth():
    depth = 3 * sys.getrecursionlimit()
    text = _nested_text(depth)
    expected = _shape_of(_all_and(depth, ConceptName("X0")))
    assert _shape_of(parse_description(text)) == expected
    kb = parse_kb("role r\nconcept Deep := " + text)
    assert _shape_of(kb.named["Deep"]) == expected


def _ladder(depth, inner):
    """The third shape with ``at-most(1, r)`` at each level, so that its
    canonical graph has one r-filler per level in a counter-model."""
    d = inner
    for k in range(1, depth + 1):
        d = AllRole("r", And((ConceptName("X%d" % k), AtLeast(1, "r"),
                              AtMost(1, "r"), d)))
    return d


def _chain_world(depth):
    """Elements c0 to c(depth + 1), each the one r-filler of the one
    before, with c(j) in X(depth + 1 - j) and c(depth) in A: c0 lies in
    the ladder's extension, one element per level."""
    c = [ClassicElement(i) for i in range(depth + 2)]
    world = Interpretation()
    world.classic = set(c)
    world.role_ext["r"] = {c[j]: {c[j + 1]} for j in range(depth + 1)}
    world.concept_ext = {"X%d" % k: {c[depth + 1 - k]}
                         for k in range(1, depth + 1)}
    world.concept_ext["A"] = {c[depth]}
    return world, c


def test_graph_evaluation_takes_any_depth():
    depth = 3 * sys.getrecursionlimit()
    g = canonicalize(translate(_ladder(depth, ConceptName("A"))))
    world, c = _chain_world(depth)
    assert element_in_graph(g, c[0], world)
    assert find_witness(g, c[0], world) == {g.root: c[0]}
    # The last element has no filler, and every other one's filler misses
    # the atom X(depth).
    assert eval_graph(g, world) == {c[0], c[-1]}


def test_counter_model_of_a_deep_ladder():
    # The builders recurse three frames per level, and graph evaluation,
    # which checks their result, none: under pytest they reach 314 levels.
    g = canonicalize(translate(_ladder(300, ConceptName("A"))))
    world, elem = construct_graphical_world(g)
    # One element per level, the root's and the innermost THING filler's.
    assert len(world.classic) == 302
    assert element_in_graph(g, elem, world)

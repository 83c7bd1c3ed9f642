"""Structural subsumption between a description and a canonical graph.

``explain`` decides whether a description subsumes a canonical
description graph by a disjunction of purely structural conditions — atom
membership, bound comparisons, recursive checks through role and attribute
edges, attribute-path equalities, and filler/dom containment — and returns
None or the ``Failure``: the clause and node where the test fails, from
which ``countermodel`` builds its world.  ``subsumes_graph`` is
``explain(d, g) is None``.  No facts about individuals beyond the graph's
own filler and dom fields are consulted.  Each clause is tested once, in
one pass over the subsumer, by one recursive core, ``_failure``;
``covers_everything`` is the syntactic THING-equivalence the ``all``
cases need.  Both find a clause's case by one lookup of its class in a
table of leaf cases (``_HOLDS`` for ``_failure``); ``and`` and the two
``all`` constructors, which nest a description, stay inline in the
recursive core, so a nesting level costs no extra Python frame.
``RootIndex`` answers the leaf clauses that read only a subsumee's root
(atoms, number restrictions, role fillers) for many named graphs at
once, by lookup; classification uses it to run the structural test only
for the other clauses.
``subsumes`` wires up the full pipeline: expand both descriptions,
translate and canonicalize the subsumee, then test.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .descriptions import (
    AllAttr,
    AllRole,
    And,
    AtLeast,
    AtMost,
    CLASSIC_THING,
    ClassicThing,
    ConceptName,
    Description,
    FillsAttr,
    FillsRole,
    HOST_THING,
    HostConcept,
    HostThing,
    Individual,
    NamedRef,
    Nothing,
    NOTHING,
    OneOf,
    Primitive,
    SameAs,
    Test,
    THING,
    Thing,
    to_text,
)
from .graph import DescriptionGraph, REdge, translate, traversal_ranks
from .kb import KnowledgeBase, expand
from .normalize import canonicalize


def covers_everything(d: Description) -> bool:
    """True iff the expanded description is equivalent to THING: ``thing``,
    the atom ``THING``, or a conjunction of such.  Every other constructor
    fails against the one-node THING graph, which has no edge, no dom, no
    ``CLASSIC-THING`` atom, and follows no non-empty attribute chain."""
    t = type(d)
    if t is And:
        return all(covers_everything(c) for c in d.items)
    case = _COVERS_EVERYTHING.get(t)
    return case is not None and case(d)


# The leaf constructors that can cover everything, looked up by class.
_COVERS_EVERYTHING = {
    Thing: lambda d: True,
    ConceptName: lambda d: d.name == THING,
    HostConcept: lambda d: d.name == THING,
}


@dataclass(frozen=True)
class Failure:
    """The first subsumer ``clause`` (never an ``and``) that fails at
    ``node`` of ``graph``.  ``inner`` is the failure of an ``all`` over a
    role inside the role's restriction graph; a body failing through an
    attribute edge is reported at the edge's target instead."""

    clause: Description
    graph: DescriptionGraph
    node: int
    inner: Failure | None = None

    def to_jsonable(self) -> dict:
        """The clause's text, the node's id as the ``canon`` dump of its
        graph numbers it, and the nested failure."""
        return {"clause": to_text(self.clause),
                "node": traversal_ranks(self.graph)[self.node],
                "inner": self.inner and self.inner.to_jsonable()}


_UNEXPANDED = frozenset({NamedRef, Primitive, Test})


def explain(d: Description, g: DescriptionGraph) -> Failure | None:
    """None iff the description subsumes the canonical graph; otherwise
    the ``Failure`` that shows it does not."""
    if type(d) in _UNEXPANDED:
        raise ValueError("description must be expanded before subsumption")
    # An incoherent subsumee is below everything.
    if g.incoherent:
        return None
    return _failure(d, g, g.root)


def subsumes_graph(d: Description, g: DescriptionGraph) -> bool:
    """True iff the description subsumes the canonical graph."""
    return explain(d, g) is None


def _failure(d: Description, g: DescriptionGraph, nid: int) -> Failure | None:
    """The structural test of ``d`` at node ``nid``: None if it holds."""
    t = type(d)
    # Conjunctions decompose.
    if t is And:
        for c in d.items:
            failure = _failure(c, g, nid)
            if failure is not None:
                return failure
        return None
    if t is AllRole:
        e = g.role_edge(nid, d.role)
        if e is not None:
            inner = explain(d.restriction, e.restriction)
            return None if inner is None else Failure(d, g, nid, inner)
    elif t is AllAttr:
        e = g.attr_edge(nid, d.attr)
        if e is not None:
            return _failure(d.restriction, g, e.dst)
    else:
        holds = _HOLDS.get(t)
        if holds is None:
            raise TypeError("not a description: %r" % (d,))
        return None if holds(d, g, nid) else Failure(d, g, nid)
    # A universal restriction whose body covers everything only needs the
    # subsumee to be classic, so the role or attribute is applicable.  Such
    # a body also holds through any edge, so only the edgeless case asks.
    if (covers_everything(d.restriction)
            and CLASSIC_THING in g.nodes[nid].atoms):
        return None
    return Failure(d, g, nid)


def _holds_atom(d: ConceptName | HostConcept, g: DescriptionGraph,
                nid: int) -> bool:
    return d.name in g.nodes[nid].atoms or d.name == THING


def _holds_at_least(d: AtLeast, g: DescriptionGraph, nid: int) -> bool:
    e = g.role_edge(nid, d.role)
    return e is not None and e.min >= d.n


def _holds_at_most(d: AtMost, g: DescriptionGraph, nid: int) -> bool:
    e = g.role_edge(nid, d.role)
    return e is not None and e.max <= d.n


def _holds_same_as(d: SameAs, g: DescriptionGraph, nid: int) -> bool:
    end, taken = g.follow(nid, d.left)
    if (taken == len(d.left)
            and g.follow(nid, d.right) == (end, len(d.right))):
        return True
    # Equal chains extended by one shared attribute stay equal as long as
    # the shared prefix ends at a classic node.
    if d.left[-1] == d.right[-1]:
        left, right = d.left[:-1], d.right[:-1]
        pre, taken = g.follow(nid, left)
        if (taken == len(left)
                and g.follow(nid, right) == (pre, len(right))
                and CLASSIC_THING in g.nodes[pre].atoms):
            return True
    return False


def _holds_fills_role(d: FillsRole, g: DescriptionGraph, nid: int) -> bool:
    e = g.role_edge(nid, d.role)
    return e is not None and d.who in e.fillers


def _holds_fills_attr(d: FillsAttr, g: DescriptionGraph, nid: int) -> bool:
    e = g.attr_edge(nid, d.attr)
    return e is not None and g.nodes[e.dst].dom == {d.who}


def _holds_one_of(d: OneOf, g: DescriptionGraph, nid: int) -> bool:
    dom = g.nodes[nid].dom
    return dom is not None and dom <= set(d.members)


# The clauses that do not recurse, looked up by class: whether each holds
# at a node.  ``_failure`` keeps ``and`` and ``all``.
_HOLDS = {
    # A subsumer equivalent to THING is above everything.  That needs no
    # check of its own: ``thing`` is answered here, the atom THING in the
    # atom case, and a conjunction of them decomposes.
    Thing: lambda d, g, nid: True,
    ConceptName: _holds_atom,
    HostConcept: _holds_atom,
    ClassicThing: lambda d, g, nid: CLASSIC_THING in g.nodes[nid].atoms,
    HostThing: lambda d, g, nid: HOST_THING in g.nodes[nid].atoms,
    Nothing: lambda d, g, nid: NOTHING in g.nodes[nid].atoms,
    AtLeast: _holds_at_least,
    AtMost: _holds_at_most,
    SameAs: _holds_same_as,
    FillsRole: _holds_fills_role,
    FillsAttr: _holds_fills_attr,
    OneOf: _holds_one_of,
}


class RootIndex:
    """The roots of named coherent canonical graphs, indexed by atom, by
    role (the root's r-edge) and by role filler, so that a clause that
    reads only a subsumee's root finds the names it holds for by lookup
    instead of one structural test per name.

    ``holds_for(d, names)`` is the subset of ``names`` for whose graphs
    ``_HOLDS`` answers yes at the root, or None when ``d``'s kind is not
    indexed: ``same-as``, ``one-of`` and ``fills`` over an attribute read
    the nodes behind a-edges, and ``all`` recurses.  ``narrow`` applies
    a clause's indexed conjuncts and returns the others, which are left
    to ``subsumes_graph``."""

    __slots__ = ("atoms", "edges", "fillers")

    def __init__(self, graphs: dict[str, DescriptionGraph]):
        self.atoms: dict[str, set[str]] = {}
        self.edges: dict[str, dict[str, REdge]] = {}
        self.fillers: dict[tuple[str, Individual], set[str]] = {}
        for name, g in graphs.items():
            root = g.root_node
            for atom in root.atoms:
                self.atoms.setdefault(atom, set()).add(name)
            # A canonical node has at most one r-edge per role.
            for e in root.r_edges:
                self.edges.setdefault(e.role, {})[name] = e
                for who in e.fillers:
                    self.fillers.setdefault((e.role, who), set()).add(name)

    def holds_for(self, d: Description, names: set[str]) -> set[str] | None:
        """The names whose root ``d`` holds at; None if not indexed."""
        case = _HOLDS_FOR.get(type(d))
        return None if case is None else case(self, d, names)

    def narrow(self, clauses: Sequence[Description], names: set[str]
               ) -> tuple[set[str], list[Description]]:
        """The names that every indexed conjunct of ``clauses`` holds for,
        and the conjuncts that are not indexed.  Conjunctions are split
        as ``_failure`` splits them at one node."""
        rest: list[Description] = []
        for d in clauses:
            if type(d) is And:
                names, inner = self.narrow(d.items, names)
                rest += inner
                continue
            found = self.holds_for(d, names)
            if found is None:
                rest.append(d)
            else:
                names = found
        return names, rest

    def with_atom(self, atom: str, names: set[str]) -> set[str]:
        return names & self.atoms.get(atom, _NO_NAMES)

    def with_edge(self, role: str, names: set[str]):
        """The root r-edges for ``role`` of those of ``names`` that have
        one, by name."""
        edges = self.edges.get(role, {})
        return ((n, edges[n]) for n in edges.keys() & names)


_NO_NAMES: frozenset[str] = frozenset()


def _atom_holds_for(index: RootIndex, d: ConceptName | HostConcept,
                    names: set[str]) -> set[str]:
    return names if d.name == THING else index.with_atom(d.name, names)


# The leaf clauses ``RootIndex`` answers, looked up by class: each reads
# only the root, as its ``_HOLDS`` case does.
_HOLDS_FOR = {
    Thing: lambda index, d, names: names,
    ConceptName: _atom_holds_for,
    HostConcept: _atom_holds_for,
    ClassicThing: lambda index, d, names: index.with_atom(CLASSIC_THING,
                                                          names),
    HostThing: lambda index, d, names: index.with_atom(HOST_THING, names),
    Nothing: lambda index, d, names: index.with_atom(NOTHING, names),
    AtLeast: lambda index, d, names: {
        n for n, e in index.with_edge(d.role, names) if e.min >= d.n},
    AtMost: lambda index, d, names: {
        n for n, e in index.with_edge(d.role, names) if e.max <= d.n},
    FillsRole: lambda index, d, names: names & index.fillers.get(
        (d.role, d.who), _NO_NAMES),
}


def subsumes(d: Description, c: Description,
             kb: KnowledgeBase | None = None) -> bool:
    """Does ``d`` subsume ``c``?  Expands both descriptions, canonicalizes
    the subsumee's graph, and runs the structural test."""
    if kb is None:
        kb = KnowledgeBase.empty()
    de = expand(d, kb)
    ce = expand(c, kb)
    return subsumes_graph(de, canonicalize(translate(ce), kb))


def equivalent(d: Description, c: Description,
               kb: KnowledgeBase | None = None) -> bool:
    """Mutual subsumption."""
    return subsumes(d, c, kb) and subsumes(c, d, kb)

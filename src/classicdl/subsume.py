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
cases need.  ``subsumes`` wires up the full pipeline: expand both
descriptions, translate and canonicalize the subsumee, then test.
"""

from __future__ import annotations

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
from .graph import DescriptionGraph, translate, traversal_ranks
from .kb import KnowledgeBase, expand
from .normalize import canonicalize


def covers_everything(d: Description) -> bool:
    """True iff the expanded description is equivalent to THING: ``thing``,
    the atom ``THING``, or a conjunction of such.  Every other constructor
    fails against the one-node THING graph, which has no edge, no dom, no
    ``CLASSIC-THING`` atom, and follows no non-empty attribute chain."""
    if isinstance(d, Thing):
        return True
    if isinstance(d, (ConceptName, HostConcept)):
        return d.name == THING
    if isinstance(d, And):
        return all(covers_everything(c) for c in d.items)
    return False


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


def explain(d: Description, g: DescriptionGraph) -> Failure | None:
    """None iff the description subsumes the canonical graph; otherwise
    the ``Failure`` that shows it does not."""
    if isinstance(d, (NamedRef, Primitive, Test)):
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
    # A subsumer equivalent to THING is above everything.  That needs no
    # check of its own: ``thing`` is answered here, the atom THING in the
    # atom case, and a conjunction of them decomposes.
    if isinstance(d, Thing):
        return None
    # Conjunctions decompose.
    if isinstance(d, And):
        for c in d.items:
            failure = _failure(c, g, nid)
            if failure is not None:
                return failure
        return None
    if isinstance(d, AllRole):
        e = g.role_edge(nid, d.role)
        if e is not None:
            inner = explain(d.restriction, e.restriction)
            return None if inner is None else Failure(d, g, nid, inner)
    elif isinstance(d, AllAttr):
        e = g.attr_edge(nid, d.attr)
        if e is not None:
            return _failure(d.restriction, g, e.dst)
    else:
        return None if _holds(d, g, nid) else Failure(d, g, nid)
    # A universal restriction whose body covers everything only needs the
    # subsumee to be classic, so the role or attribute is applicable.  Such
    # a body also holds through any edge, so only the edgeless case asks.
    if (covers_everything(d.restriction)
            and CLASSIC_THING in g.nodes[nid].atoms):
        return None
    return Failure(d, g, nid)


def _holds(d: Description, g: DescriptionGraph, nid: int) -> bool:
    """The clauses that do not recurse."""
    node = g.nodes[nid]
    if isinstance(d, (ConceptName, HostConcept)):
        return d.name in node.atoms or d.name == THING
    if isinstance(d, ClassicThing):
        return CLASSIC_THING in node.atoms
    if isinstance(d, HostThing):
        return HOST_THING in node.atoms
    if isinstance(d, Nothing):
        return NOTHING in node.atoms
    if isinstance(d, AtLeast):
        e = g.role_edge(nid, d.role)
        return e is not None and e.min >= d.n
    if isinstance(d, AtMost):
        e = g.role_edge(nid, d.role)
        return e is not None and e.max <= d.n
    if isinstance(d, SameAs):
        end, taken = g.follow(nid, d.left)
        if (taken == len(d.left)
                and g.follow(nid, d.right) == (end, len(d.right))):
            return True
        # Equal chains extended by one shared attribute stay equal as long
        # as the shared prefix ends at a classic node.
        if d.left[-1] == d.right[-1]:
            left, right = d.left[:-1], d.right[:-1]
            pre, taken = g.follow(nid, left)
            if (taken == len(left)
                    and g.follow(nid, right) == (pre, len(right))
                    and CLASSIC_THING in g.nodes[pre].atoms):
                return True
        return False
    if isinstance(d, FillsRole):
        e = g.role_edge(nid, d.role)
        return e is not None and d.who in e.fillers
    if isinstance(d, FillsAttr):
        e = g.attr_edge(nid, d.attr)
        return e is not None and g.nodes[e.dst].dom == {d.who}
    if isinstance(d, OneOf):
        return node.dom is not None and node.dom <= set(d.members)
    raise TypeError("not a description: %r" % (d,))


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

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
cases need.  Leaf cases are stated once, in tables looked up by class:
``descriptions.ATOM`` (the atom a clause needs at its node), ``_EDGE``
(the test its role's r-edge must pass) and ``_HOLDS`` (the other leaves);
``and`` and the two ``all`` constructors, which nest a description, stay
inline in the recursive core, so a nesting level costs no extra Python
frame.  ``RootIndex`` answers the ``ATOM`` and ``_EDGE`` clauses and
``all(role, C)`` at the roots of many named graphs at once, by lookup and
one test per shared restriction graph; classification uses it to run the
structural test per name only for the other clauses.  ``subsumes`` wires
up the full pipeline: expand both descriptions, build the subsumee's
canonical graph with ``canonical_graph``, then test.
"""

from __future__ import annotations

from collections.abc import Sequence

from .descriptions import (
    AllAttr,
    AllRole,
    And,
    AtLeast,
    AtMost,
    ATOM,
    CLASSIC_THING,
    Description,
    FillsAttr,
    FillsRole,
    OneOf,
    SameAs,
    THING,
    to_text,
    UNEXPANDED,
    Value,
    _set,
)
from .graph import DescriptionGraph, REdge, traversal_ranks
from .kb import KnowledgeBase, expand
from .normalize import canonical_graph


def covers_everything(d: Description) -> bool:
    """True iff the expanded description is equivalent to THING: an ``and``
    of leaves whose ``ATOM`` is THING.  Every other constructor fails
    against the one-node THING graph, which has no edge, no dom, no
    ``CLASSIC-THING`` atom, and follows no non-empty attribute chain."""
    t = type(d)
    if t is And:
        return all(covers_everything(c) for c in d.items)
    atom = ATOM.get(t)
    return atom is not None and atom(d) == THING


class Failure(Value):
    """The first subsumer ``clause`` (never an ``and``) that fails at
    ``node`` of ``graph``.  ``inner`` is the failure of an ``all`` over a
    role inside the role's restriction graph; a body failing through an
    attribute edge is reported at the edge's target instead."""

    __slots__ = ("clause", "graph", "node", "inner")
    def __init__(self, clause: Description, graph: DescriptionGraph,
                 node: int, inner: Failure | None = None):
        _set(self, "clause", clause)
        _set(self, "graph", graph)
        _set(self, "node", node)
        _set(self, "inner", inner)

    def to_jsonable(self) -> dict:
        """The clause's text, the node's id as the ``canon`` dump of its
        graph numbers it, and the nested failure."""
        return {"clause": to_text(self.clause),
                "node": traversal_ranks(self.graph)[self.node],
                "inner": self.inner and self.inner.to_jsonable()}


def explain(d: Description, g: DescriptionGraph) -> Failure | None:
    """None iff the description subsumes the canonical graph; otherwise
    the ``Failure`` that shows it does not.  An unexpanded ``d``, or an
    unexpanded part the test reaches, is a ``ValueError``; a part after a
    failing conjunct or under an ``all`` with no edge is never reached,
    and finding it would take a walk of ``d`` on every query."""
    if type(d) in UNEXPANDED:
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
        atom = ATOM.get(t)
        if atom is not None:
            name = atom(d)
            # THING is at every node.
            holds = name == THING or name in g.nodes[nid].atoms
        elif t in _EDGE:
            e = g.role_edge(nid, d.role)
            holds = e is not None and _EDGE[t](d, e)
        elif t in _HOLDS:
            holds = _HOLDS[t](d, g, nid)
        elif t in UNEXPANDED:
            raise ValueError(
                "description must be expanded before subsumption")
        else:
            raise TypeError("not a description: %r" % (d,))
        return None if holds else Failure(d, g, nid)
    # A universal restriction whose body covers everything only needs the
    # subsumee to be classic, so the role or attribute is applicable.  Such
    # a body also holds through any edge, so only the edgeless case asks.
    if (covers_everything(d.restriction)
            and CLASSIC_THING in g.nodes[nid].atoms):
        return None
    return Failure(d, g, nid)


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


def _holds_fills_attr(d: FillsAttr, g: DescriptionGraph, nid: int) -> bool:
    e = g.attr_edge(nid, d.attr)
    return e is not None and g.nodes[e.dst].dom == {d.who}


def _holds_one_of(d: OneOf, g: DescriptionGraph, nid: int) -> bool:
    dom = g.nodes[nid].dom
    return dom is not None and dom <= set(d.members)


# The leaf clauses that read a node's r-edge for ``d.role``, looked up by
# class: the test the edge must pass.  With no edge they fail.
_EDGE = {
    AtLeast: lambda d, e: e.min >= d.n,
    AtMost: lambda d, e: e.max <= d.n,
    FillsRole: lambda d, e: d.who in e.fillers,
}

# The other clauses that do not recurse, looked up by class: whether each
# holds at a node.  Each reads beyond the node's own atoms and r-edges.
_HOLDS = {
    SameAs: _holds_same_as,
    FillsAttr: _holds_fills_attr,
    OneOf: _holds_one_of,
}


class RootIndex:
    """The roots of named coherent canonical graphs, indexed by atom and
    by role (the root's r-edge), so that a clause that reads only a
    subsumee's root finds the names it holds for by lookup instead of one
    structural test per name.

    ``holds_for(d, names)`` is the subset of ``names`` for whose graphs
    ``_failure`` finds ``d`` holding at the root, read from the same
    ``ATOM`` and ``_EDGE`` tables; it is None when ``d``'s kind is not
    indexed: ``same-as``, ``one-of`` and the constructors over an
    attribute read the nodes behind a-edges.  As in ``_failure``,
    ``all(role, C)`` holds through the root's r-edge for the role iff C
    subsumes the edge's restriction graph, and without one iff C covers
    everything and the root is classic; restriction graphs are frozen
    and shared, so each (C, restriction graph) pair is tested once for
    the life of the index.  ``narrow`` applies a clause's indexed
    conjuncts and returns the others, which are left to
    ``subsumes_graph``."""

    __slots__ = ("atoms", "edges", "below")

    def __init__(self, graphs: dict[str, DescriptionGraph]):
        # THING is at every node.
        self.atoms: dict[str, set[str]] = {THING: set(graphs)}
        self.edges: dict[str, dict[str, REdge]] = {}
        # C -> restriction graph -> whether C subsumes it.
        self.below: dict[Description, dict[DescriptionGraph, bool]] = {}
        for name, g in graphs.items():
            root = g.root_node
            for atom in root.atoms:
                self.atoms.setdefault(atom, set()).add(name)
            # A canonical node has at most one r-edge per role.
            for e in root.r_edges:
                self.edges.setdefault(e.role, {})[name] = e

    def holds_for(self, d: Description, names: set[str]) -> set[str] | None:
        """The names whose root ``d`` holds at; None if not indexed."""
        t = type(d)
        atom = ATOM.get(t)
        if atom is not None:
            return names & self.atoms.get(atom(d), _NO_NAMES)
        if t is not AllRole and t not in _EDGE:
            return None
        edges = self.edges.get(d.role, {})
        if t is not AllRole:
            return {n for n in edges.keys() & names if _EDGE[t](d, edges[n])}
        below = self.below.setdefault(d.restriction, {})
        found = set()
        for n in edges.keys() & names:
            r = edges[n].restriction
            if r not in below:
                below[r] = subsumes_graph(d.restriction, r)
            if below[r]:
                found.add(n)
        if covers_everything(d.restriction):
            found |= (names - edges.keys()) & \
                self.atoms.get(CLASSIC_THING, _NO_NAMES)
        return found

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


_NO_NAMES: frozenset[str] = frozenset()


def subsumes(d: Description, c: Description,
             kb: KnowledgeBase | None = None) -> bool:
    """Does ``d`` subsume ``c``?  Expands both descriptions, canonicalizes
    the subsumee's graph, and runs the structural test."""
    if kb is None:
        kb = KnowledgeBase.empty()
    de = expand(d, kb)
    ce = expand(c, kb)
    return subsumes_graph(de, canonical_graph(ce, kb))


def equivalent(d: Description, c: Description,
               kb: KnowledgeBase | None = None) -> bool:
    """Mutual subsumption."""
    return subsumes(d, c, kb) and subsumes(c, d, kb)

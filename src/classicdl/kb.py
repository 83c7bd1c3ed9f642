"""Knowledge-base services: host-type lattice, named-concept expansion,
primitive/test rewriting, disjointness groups, and taxonomy classification.

A knowledge base is immutable after loading except for the primitive-tag
registry, which grows monotonically the first time each tag is expanded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import TopologicalSorter

from .descriptions import (
    AllAttr,
    AllRole,
    And,
    ClassicThing,
    ConceptName,
    Description,
    HostThing,
    Individual,
    NamedRef,
    Primitive,
    PRIMITIVE_ATOM_PREFIX,
    REALM_HOST,
    Test,
    TEST_ATOM_PREFIX,
)


class KbError(Exception):
    """Raised for knowledge-base level problems (redeclaration, recursion,
    unknown names, primitive-tag conflicts, expansion blow-up)."""


class HostLattice:
    """Subtype order over host concept names.

    The order must be a forest: every type has at most one parent, so two
    host concepts overlap only when one is an ancestor of the other.  The
    default lattice ships STRING and the numeric chain
    INTEGER < REAL < COMPLEX < NUMBER.  Literals type at their syntactic
    base (integer, decimal, string); membership in any other host concept
    follows the ancestor chain.
    """

    def __init__(self):
        self._parent: dict[str, str | None] = {
            "STRING": None,
            "NUMBER": None,
            "COMPLEX": "NUMBER",
            "REAL": "COMPLEX",
            "INTEGER": "REAL",
        }

    def is_type(self, name: str) -> bool:
        return name in self._parent

    def add_type(self, name: str, parent: str | None = None) -> None:
        if name in self._parent:
            raise KbError("host type %s already declared" % name)
        if parent is not None and parent not in self._parent:
            raise KbError("unknown parent host type %s" % parent)
        self._parent[name] = parent

    def ancestors(self, name: str) -> list[str]:
        """The type and all more general types, nearest first."""
        out = []
        cur: str | None = name
        while cur is not None:
            out.append(cur)
            cur = self._parent[cur]
        return out

    def leq(self, sub: str, sup: str) -> bool:
        return sup in self.ancestors(sub)

    def comparable(self, a: str, b: str) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def literal_in(self, ind: Individual, concept: str) -> bool:
        """Does a host value belong to the extension of a host concept?"""
        if not ind.is_host:
            return False
        return self.leq(ind.host_type, concept)


@dataclass
class KnowledgeBase:
    """Declared vocabulary plus named concepts and disjointness groups."""

    roles: set[str] = field(default_factory=set)
    attributes: set[str] = field(default_factory=set)
    individuals: dict[str, Individual] = field(default_factory=dict)
    lattice: HostLattice = field(default_factory=HostLattice)
    named: dict[str, Description] = field(default_factory=dict)
    disjoint_groups: list[frozenset[str]] = field(default_factory=list)
    primitives: dict[str, Description] = field(default_factory=dict)
    expansion_limit: int = 100_000

    @classmethod
    def empty(cls) -> "KnowledgeBase":
        return cls()

    def kind_of(self, name: str) -> str | None:
        if name in self.roles:
            return "role"
        if name in self.attributes:
            return "attribute"
        if name in self.individuals:
            return "individual"
        if self.lattice.is_type(name):
            return "host-type"
        if name in self.named:
            return "concept"
        return None


def primitive_atom(tag: str) -> str:
    return PRIMITIVE_ATOM_PREFIX + tag


def test_atom(func: str, realm: str) -> str:
    return "%s%s:%s" % (TEST_ATOM_PREFIX, realm, func)


def expand(d: Description, kb: KnowledgeBase) -> Description:
    """Rewrite a description so no named references, primitives, or test
    concepts remain.

    Named concepts are substituted by their (recursively expanded)
    definitions; a primitive becomes the conjunction of a minted atom and
    its necessary conditions; a test concept becomes an opaque minted atom
    seeded with the marker for its realm.  Reusing a primitive tag with a
    body that is not equivalent to the registered one is an error, as is
    expansion growth past ``kb.expansion_limit``.
    """
    budget = [kb.expansion_limit]

    def go(node: Description, active: frozenset[str]) -> Description:
        budget[0] -= 1
        if budget[0] < 0:
            raise KbError("expansion exceeds the configured size limit "
                          "(%d nodes)" % kb.expansion_limit)
        if isinstance(node, NamedRef):
            if node.name in active:
                raise KbError("recursive named concept: %s" % node.name)
            if node.name not in kb.named:
                raise KbError("unknown named concept: %s" % node.name)
            return go(kb.named[node.name], active | {node.name})
        if isinstance(node, And):
            return And(tuple(go(c, active) for c in node.items))
        if isinstance(node, AllRole):
            return AllRole(node.role, go(node.restriction, active))
        if isinstance(node, AllAttr):
            return AllAttr(node.attr, go(node.restriction, active))
        if isinstance(node, Primitive):
            body = go(node.body, active)
            _register_primitive(kb, node.tag, body)
            return And((ConceptName(primitive_atom(node.tag)), body))
        if isinstance(node, Test):
            atom = ConceptName(test_atom(node.func, node.realm))
            marker: Description = (
                HostThing() if node.realm == REALM_HOST else ClassicThing())
            return And((atom, marker))
        return node

    return go(d, frozenset())


def _register_primitive(kb: KnowledgeBase, tag: str, body: Description) -> None:
    if tag not in kb.primitives:
        kb.primitives[tag] = body
        return
    existing = kb.primitives[tag]
    if existing == body:
        return
    # The equivalence check may itself run subsumption, so import lazily.
    from . import subsume

    if not (subsume.subsumes(existing, body, kb)
            and subsume.subsumes(body, existing, kb)):
        raise KbError("primitive tag %r reused with a non-equivalent body"
                      % tag)


@dataclass
class TaxonomyNode:
    members: list[str]
    parents: list[int]


@dataclass
class Taxonomy:
    """Subsumption DAG over the named concepts of a knowledge base.

    Node 0 is the THING root; mutually subsuming concepts collapse into one
    node and parent links are the transitive reduction of the subsumption
    preorder.
    """

    nodes: list[TaxonomyNode]

    def to_jsonable(self) -> object:
        return [
            {"node": i, "members": n.members, "parents": n.parents}
            for i, n in enumerate(self.nodes)
        ]


def _told_parts(told: Description, expanded: Description,
                names: list[str], clauses: list[Description]) -> None:
    """Split a definition into its told names and its other conjuncts.

    ``expand`` keeps the shape of ``and``, so the told and the expanded
    definition are walked in step: a named reference is kept by name, and
    every other conjunct is kept in its expanded form."""
    if isinstance(told, NamedRef):
        names.append(told.name)
    elif isinstance(told, And):
        for t, e in zip(told.items, expanded.items):
            _told_parts(t, e, names, clauses)
    else:
        clauses.append(expanded)


def classify(kb: KnowledgeBase) -> Taxonomy:
    """Build the taxonomy DAG for all named concepts in the base.

    Every ordered pair of names is decided: ``a`` subsumes ``b`` exactly
    when the expanded definition of ``a`` subsumes the canonical graph of
    ``b``.  The row of ``a`` is filled from the rows of its told
    subsumers: a conjunct that names ``p`` holds above ``b`` iff ``p``
    subsumes ``b``, and each other conjunct runs the structural test only
    while every told name holds.  Rows are filled in told order, so a told
    subsumer's row is complete before it is read.  Names equivalent to
    THING (``covers_everything``) join the root node.
    """
    from . import normalize, subsume
    from .graph import translate

    names = sorted(kb.named)
    expanded = {n: expand(NamedRef(n), kb) for n in names}
    canon = {n: normalize.canonicalize(translate(expanded[n]), kb)
             for n in names}
    parts: dict[str, tuple[list[str], list[Description]]] = {
        n: ([], []) for n in names}
    for n in names:
        _told_parts(kb.named[n], expanded[n], *parts[n])
    geq: dict[tuple[str, str], bool] = {}
    order = TopologicalSorter({n: parts[n][0] for n in names})
    for a in order.static_order():
        told, clauses = parts[a]
        for b in names:
            geq[(a, b)] = (all(geq[(p, b)] for p in told)
                           and all(subsume.subsumes_graph(c, canon[b])
                                   for c in clauses))
    equiv_thing = {n: subsume.covers_everything(expanded[n])
                   for n in names}

    # Group names into equivalence classes, preserving alphabetical order.
    classes: list[list[str]] = []
    for n in names:
        for cls in classes:
            rep = cls[0]
            if geq[(n, rep)] and geq[(rep, n)]:
                cls.append(n)
                break
        else:
            classes.append([n])

    nodes = [TaxonomyNode(members=["THING"], parents=[])]
    index_of: dict[int, int] = {}
    for i, cls in enumerate(classes):
        if equiv_thing[cls[0]]:
            nodes[0].members.extend(cls)
            continue
        index_of[i] = len(nodes)
        nodes.append(TaxonomyNode(members=list(cls), parents=[]))

    # Strict ancestors of each class; the nearest ones are those that are
    # no other ancestor's ancestor.
    reps = {i: classes[i][0] for i in index_of}
    anc = {i: {j for j, r in reps.items()
               if geq[(r, reps[i])] and not geq[(reps[i], r)]}
           for i in index_of}
    for i, idx in index_of.items():
        nearest = anc[i].difference(*(anc[k] for k in anc[i]))
        nodes[idx].parents = sorted(index_of[j] for j in nearest) or [0]
    return Taxonomy(nodes)

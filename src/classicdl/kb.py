"""Knowledge-base services: host-type lattice, named-concept expansion,
primitive/test rewriting, disjointness groups, and taxonomy classification.

A knowledge base is immutable after loading except for the primitive-tag
registry, which grows monotonically the first time each tag is expanded.
"""

from __future__ import annotations

from operator import is_

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
    THING,
)
from .graph import absorb, merge_graphs, translate


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


# The lattice of descriptions read without a knowledge base: the default
# types only.  It is shared, so no type is ever added to it.
DEFAULT_LATTICE = HostLattice()

# The most description nodes ``expand`` visits before it gives up: an
# expansion can grow exponentially in the number of definitions.
EXPANSION_LIMIT = 100_000


class KnowledgeBase:
    """Declared vocabulary plus named concepts and disjointness groups."""

    __slots__ = ("roles", "attributes", "individuals", "lattice", "named",
                 "disjoint_groups", "primitives")
    def __init__(self):
        self.roles: set[str] = set()
        self.attributes: set[str] = set()
        self.individuals: dict[str, Individual] = {}
        self.lattice = HostLattice()
        self.named: dict[str, Description] = {}
        self.disjoint_groups: list[frozenset[str]] = []
        self.primitives: dict[str, Description] = {}

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


def _definition_order(refs: dict[str, set[str] | list[str]]) -> list[str]:
    """The named concepts ordered so that each follows the names its
    definition refers to; a cycle is a ``KbError``.  One depth-first pass
    from a root that refers to every name, with its own stack."""
    order: list[str] = []
    listed: dict[str, bool] = {}  # False while the name is on the stack
    stack = [(None, iter(refs))]
    while stack:
        name, todo = stack[-1]
        ref = next(todo, None)
        if ref is None:
            stack.pop()
            if name is not None:
                listed[name] = True
                order.append(name)
        elif ref not in listed:
            listed[ref] = False
            stack.append((ref, iter(refs.get(ref, ()))))
        elif not listed[ref]:
            raise KbError("recursive named concept: %s" % ref)
    return order


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
    expansion growth past ``EXPANSION_LIMIT`` nodes.
    """
    return _expand(d, kb, frozenset(), [EXPANSION_LIMIT])


def _expand(node: Description, kb: KnowledgeBase, active: frozenset[str],
            budget: list[int]) -> Description:
    """``expand`` below the named concepts ``active``, with ``budget[0]``
    nodes left to visit.  A node none of whose parts changes is returned
    itself."""
    budget[0] -= 1
    if budget[0] < 0:
        raise KbError("expansion exceeds the size limit (%d nodes)"
                      % EXPANSION_LIMIT)
    t = type(node)
    if t is NamedRef:
        if node.name in active:
            raise KbError("recursive named concept: %s" % node.name)
        if node.name not in kb.named:
            raise KbError("unknown named concept: %s" % node.name)
        return _expand(kb.named[node.name], kb, active | {node.name}, budget)
    if t is And:
        items = tuple([_expand(c, kb, active, budget) for c in node.items])
        return node if all(map(is_, items, node.items)) else And(items)
    if t is AllRole:
        body = _expand(node.restriction, kb, active, budget)
        return node if body is node.restriction else AllRole(node.role, body)
    if t is AllAttr:
        body = _expand(node.restriction, kb, active, budget)
        return node if body is node.restriction else AllAttr(node.attr, body)
    if t is Primitive:
        body = _expand(node.body, kb, active, budget)
        _register_primitive(kb, node.tag, body)
        return And((ConceptName(primitive_atom(node.tag)), body))
    case = _EXPAND.get(t)
    return node if case is None else case(node)


def _expand_test(node: Test) -> Description:
    """A test concept: an opaque minted atom and its realm's marker."""
    atom = ConceptName(test_atom(node.func, node.realm))
    marker: Description = (
        HostThing() if node.realm == REALM_HOST else ClassicThing())
    return And((atom, marker))


# The leaf constructors that expansion rewrites, looked up by class; every
# other leaf is its own expansion.
_EXPAND = {Test: _expand_test}


def _register_primitive(kb: KnowledgeBase, tag: str, body: Description) -> None:
    if tag not in kb.primitives:
        kb.primitives[tag] = body
        return
    existing = kb.primitives[tag]
    if existing == body:
        return
    # The equivalence check may itself run subsumption, so import lazily.
    from . import subsume

    if not subsume.equivalent(existing, body, kb):
        raise KbError("primitive tag %r reused with a non-equivalent body"
                      % tag)


class TaxonomyNode:
    __slots__ = ("members", "parents")
    def __init__(self, members: list[str], parents: list[int]):
        self.members = members
        self.parents = parents


class Taxonomy:
    """Subsumption DAG over the named concepts of a knowledge base.

    Node 0 is the THING root; mutually subsuming concepts collapse into one
    node and parent links are the transitive reduction of the subsumption
    preorder.
    """

    __slots__ = ("nodes",)
    def __init__(self, nodes: list[TaxonomyNode]):
        self.nodes = nodes

    def to_jsonable(self) -> object:
        return [
            {"node": i, "members": n.members, "parents": n.parents}
            for i, n in enumerate(self.nodes)
        ]


def _told_parts(d: Description, kb: KnowledgeBase, names: list[str],
                clauses: list[Description]) -> None:
    """Split a definition into its told names and its other conjuncts,
    and expand only the latter.  An unknown name is left to ``expand``,
    which reports it."""
    t = type(d)
    if t is NamedRef and d.name in kb.named:
        if d.name not in names:
            names.append(d.name)
    elif t is And:
        for c in d.items:
            _told_parts(c, kb, names, clauses)
    else:
        clauses.append(expand(d, kb))


def _told_graphs(kb: KnowledgeBase):
    """The names in told order, each name's told parts, and each name's
    canonical graph, built once: the translation of the conjunction of
    its other clauses, with its told names' canonical graphs absorbed
    into it, canonicalized in place.  Canonical graphs are frozen, so a
    told graph is copied only where normalization changes it, its root
    r-edges and its other nodes, and its restriction graphs are shared:
    no restriction graph is copied again unless a rule must change it."""
    from .normalize import canonicalize

    parts = {n: ([], []) for n in kb.named}
    for n, (told, clauses) in parts.items():
        _told_parts(kb.named[n], kb, told, clauses)
    order = _definition_order({n: told for n, (told, _) in parts.items()})
    canon = {}
    for a in order:
        told, clauses = parts[a]
        g = merge_graphs() if not clauses else translate(
            clauses[0] if len(clauses) == 1 else And(tuple(clauses)))
        for p in told:
            absorb(g, canon[p])
        canon[a] = canonicalize(g, kb)
    return order, parts, canon


def classify(kb: KnowledgeBase) -> Taxonomy:
    """Build the taxonomy DAG for all named concepts in the base.

    Incoherent names form the bottom class: each is below every name, so
    all names are its subsumers, and it takes part in no structural test.
    ``below[a]``, the coherent names that a coherent ``a`` subsumes, is
    filled in told order: ``a``'s candidates are the names below all of
    its told names.  Its other clauses are split into conjuncts; each
    that reads only a subsumee's root and r-edges (an atom, a realm
    marker, a bound, a role filler or ``all(role, C)``) narrows the
    candidates through a ``RootIndex`` over the coherent names' graphs,
    built once per call, which tests C once per restriction graph.  The
    others run the structural test on the candidates left.  Names with
    equal subsumers form one node, whose parents are its nearest strict
    ancestors; names equivalent to THING join the root node.
    """
    from .subsume import RootIndex, covers_everything, subsumes_graph

    order, parts, canon = _told_graphs(kb)
    names = sorted(kb.named)
    bottom = {n for n in names if canon[n].incoherent}
    coherent = set(names) - bottom
    roots = RootIndex({n: canon[n] for n in coherent})
    below: dict[str, set[str]] = {}
    # The subsumers of each coherent name; every incoherent name has all
    # names as its subsumers, so they share one key.
    above: dict[str, set[str]] = {n: set() for n in coherent}
    top: dict[str, bool] = {}
    for a in order:
        told, clauses = parts[a]
        if a in bottom:
            candidates = set()
        elif told:
            candidates = set.intersection(*(below[p] for p in told))
        else:
            candidates = coherent
        candidates, rest = roots.narrow(clauses, candidates)
        below[a] = {b for b in candidates
                    if all(subsumes_graph(c, canon[b]) for c in rest)}
        for b in below[a]:
            above[b].add(a)
        top[a] = all(top[p] for p in told) and \
            all(map(covers_everything, clauses))
    everything = frozenset(names)
    key = {n: everything if n in bottom else frozenset(above[n])
           for n in names}
    classes: dict[frozenset[str], list[str]] = {}
    for n in names:
        classes.setdefault(key[n], []).append(n)

    nodes = [TaxonomyNode(members=[THING], parents=[])]
    index: dict[frozenset[str], int] = {}
    for k, members in classes.items():
        index[k] = 0 if top[members[0]] else len(nodes)
        if index[k]:
            nodes.append(TaxonomyNode(members=members, parents=[]))
        else:
            nodes[0].members.extend(members)
    # The strict ancestors of a class are the classes of its subsumers
    # outside it; the nearest ones are no other ancestor's ancestor.
    anc = {k: {key[x] for x in k.difference(members)}
           for k, members in classes.items()}
    for k, i in index.items():
        if i:
            nearest = anc[k].difference(*(anc[j] for j in anc[k]))
            nodes[i].parents = sorted(index[j] for j in nearest) or [0]
    return Taxonomy(nodes)

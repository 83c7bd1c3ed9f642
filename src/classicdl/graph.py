"""Description graphs: the rooted multigraph normal form for descriptions.

A graph holds a set of nodes, a bag of attribute-labelled edges (a-edges),
and a distinguished root.  Nodes carry concept atoms, a bag of
role-labelled components (r-edges, each nesting its own restriction
graph), and a ``dom`` — either the universal marker (``None``) or a finite
set of admissible individuals.  R-edges carry filler sets; an attribute
has exactly one value, so an a-edge's filler is stated as the one
individual of its target's dom.  Restriction graphs share no nodes with
their parent, so role edges are always cut-edges.

Node identifiers come from a process-wide counter, and a clone draws
fresh ones, which makes the disjoint unions taken during merging
trivially collision-free; structural equality is therefore always up to
renaming: ``to_jsonable`` numbers nodes by a deterministic traversal, so
two canonical graphs are equal exactly when their dumps are.

A canonical graph is a frozen value: ``normalize`` marks it, and each of
its nested restriction graphs, with the knowledge base it is canonical
under (``None``, no knowledge base, counts as one), and nothing changes a
marked graph again.  So canonical graphs share restriction graphs freely:
``_clones`` copies only the graphs that are not canonical under the
knowledge base at hand, and ``translate`` gives every
``at-least``, ``at-most`` and ``fills(role, ...)`` one shared ``{THING}``
restriction, canonical under every knowledge base.  The mark is the
knowledge base object itself, so a knowledge base must not change once
some graph is canonical under it: the graph would not be re-normalized
under the new contents.  A marked graph also keeps its knowledge base
alive.

A graph is either coherent or *the* incoherent graph: a single node
labelled NOTHING, no edge, and the ``incoherent`` flag set.
``mark_incoherent`` is the one builder of that shape; ``incoherent_graph``
and every conflict rule of ``normalize`` go through it.

``translate`` builds a graph in one pass, with one graph per restriction
graph and an explicit stack of tasks, so any nesting depth is fine; the
result is, node for node, the paper's merge of the conjuncts' graphs.

``absorb`` merges one graph into another in place, and ``merge_graphs``
absorbs n graphs into a fresh root.  A frozen graph is copied (its
root's r-edges and other nodes, the parts that normalizing the result
may change) and so left unchanged; any other is moved into the result
and may not be used afterwards.  ``merge_nodes`` merges nodes, moving
their r-edges.
"""

from __future__ import annotations

import itertools
import math

from .descriptions import (
    AllAttr,
    AllRole,
    And,
    AtLeast,
    AtMost,
    ATOM,
    CLASSIC_ONLY,
    CLASSIC_THING,
    Description,
    FillsAttr,
    FillsRole,
    HOST_THING,
    Individual,
    NOTHING,
    OneOf,
    SameAs,
    THING,
    UNEXPANDED,
)

INF = math.inf

_node_ids = itertools.count()

# The knowledge-base marks of ``DescriptionGraph.canonical_kb``: a graph
# canonical under none yet, and one canonical under every knowledge base.
NOT_CANONICAL = object()
ANY_KB = object()


def _fresh_id() -> int:
    return next(_node_ids)


class REdge:
    """Role component of a node: bounds, nested restriction graph, fillers."""

    __slots__ = ("role", "min", "max", "restriction", "fillers")
    def __init__(self, role: str, min: int, max: float,
                 restriction: DescriptionGraph, fillers=None):
        self.role = role
        self.min = min
        self.max = max  # a non-negative integer or INF
        self.restriction = restriction
        self.fillers: set[Individual] = set() if fillers is None else fillers

    def copy(self) -> "REdge":
        """A copy that shares the restriction graph."""
        return REdge(self.role, self.min, self.max, self.restriction,
                     set(self.fillers))


class AEdge:
    __slots__ = ("src", "dst", "attr")
    def __init__(self, src: int, dst: int, attr: str):
        self.src = src
        self.dst = dst
        self.attr = attr


class GraphNode:
    """Atoms, r-edge bag, and dom (``None`` marks the universal set)."""

    __slots__ = ("atoms", "r_edges", "dom")
    def __init__(self, atoms: set[str], r_edges=None, dom=None):
        self.atoms = atoms
        self.r_edges: list[REdge] = [] if r_edges is None else r_edges
        self.dom: frozenset[Individual] | None = dom

    def clone(self) -> "GraphNode":
        """A copy whose r-edges are copies sharing the restriction graphs
        (``DescriptionGraph._clones`` copies the graphs it must)."""
        return GraphNode(set(self.atoms), [e.copy() for e in self.r_edges],
                         self.dom)


class _EdgeIndex:
    """Hashed (node, attribute) -> a-edge and (node, role) -> r-edge maps,
    and node -> the a-edges out of it, in stored order.

    Attribute and role names are kept apart.  Where a node has several
    edges with one label (possible only before canonicalization), the first
    in stored order wins.
    """

    __slots__ = ("attr", "role", "out")

    def __init__(self, g: "DescriptionGraph"):
        self.attr: dict[tuple[int, str], AEdge] = {}
        self.out: dict[int, list[AEdge]] = {}
        for e in g.a_edges:
            self.attr.setdefault((e.src, e.attr), e)
            self.out.setdefault(e.src, []).append(e)
        self.role: dict[tuple[int, str], REdge] = {}
        for nid, node in g.nodes.items():
            for e in node.r_edges:
                self.role.setdefault((nid, e.role), e)


class DescriptionGraph:
    """Rooted description graph.

    ``canonical_kb`` is the knowledge base the graph is canonical under,
    ``ANY_KB``, or ``NOT_CANONICAL``; a graph canonical under some
    knowledge base is frozen and never changes again, and that knowledge
    base must not change either (see the module docstring).  ``attr_edge``,
    ``role_edge``, ``follow`` and ``out_edges`` answer from a hashed edge
    index built on the first of them called, on raw graphs too (graph
    evaluation, the dump), so no graph may change after its first query.
    """

    def __init__(self):
        self.nodes: dict[int, GraphNode] = {}
        self.a_edges: list[AEdge] = []
        self.root: int = -1
        self.incoherent: bool = False
        self.canonical_kb: object = NOT_CANONICAL
        self._index: _EdgeIndex | None = None

    def add_node(self, node: GraphNode) -> int:
        nid = _fresh_id()
        self.nodes[nid] = node
        return nid

    @property
    def root_node(self) -> GraphNode:
        return self.nodes[self.root]

    @property
    def frozen(self) -> bool:
        """Whether the graph is canonical under some knowledge base."""
        return self.canonical_kb is not NOT_CANONICAL

    def canonical_under(self, kb) -> bool:
        """Whether the graph is canonical under ``kb`` (``None``: none)."""
        return self.canonical_kb is kb or self.canonical_kb is ANY_KB

    def _clones(self, kb, copy: bool = True) -> list["DescriptionGraph"]:
        """This graph and every nested restriction graph that is not
        canonical under ``kb`` (``None``: no knowledge base), in the
        preorder of ``subgraphs``, each copied unless ``copy`` is false;
        the canonical ones are shared.  A fresh ``object()`` as ``kb``
        copies every graph but those canonical under every knowledge base.
        The copies are not canonical, and their nodes get fresh ids, so a
        copy can be merged with any other graph.  The walk keeps its own
        stack, so any nesting depth is fine."""
        def to_visit(g):
            # Reversed, so that the stack pops them in stored order.
            return [e for node in reversed(g.nodes.values())
                    for e in reversed(node.r_edges)
                    if not e.restriction.canonical_under(kb)]

        out = [self._copy() if copy else self]
        stack = to_visit(out[0])
        while stack:
            e = stack.pop()
            if copy:
                e.restriction = e.restriction._copy()
            out.append(e.restriction)
            stack += to_visit(e.restriction)
        return out

    def _copy(self) -> "DescriptionGraph":
        """This graph alone copied, with fresh node ids; its nodes' r-edges
        are copies that still share the restriction graphs."""
        g = DescriptionGraph()
        ids = {nid: _fresh_id() for nid in self.nodes}
        g.nodes = {ids[nid]: n.clone() for nid, n in self.nodes.items()}
        g.a_edges = [AEdge(ids[e.src], ids[e.dst], e.attr)
                     for e in self.a_edges]
        g.root = ids[self.root]
        g.incoherent = self.incoherent
        return g

    def _build_index(self) -> _EdgeIndex:
        # A single reference store: a thread sharing the graph sees either
        # no index or a whole one.  Two threads may both build; the results
        # are equal.
        self._index = _EdgeIndex(self)
        return self._index

    def attr_edge(self, nid: int, attr: str) -> AEdge | None:
        """The a-edge labelled ``attr`` out of node ``nid``, if any."""
        index = self._index or self._build_index()
        return index.attr.get((nid, attr))

    def role_edge(self, nid: int, role: str) -> REdge | None:
        """The r-edge for ``role`` on node ``nid``, if any."""
        index = self._index or self._build_index()
        return index.role.get((nid, role))

    def out_edges(self) -> dict[int, list[AEdge]]:
        """Each node's outgoing a-edges, in stored order; read only."""
        return (self._index or self._build_index()).out

    def follow(self, nid: int, chain) -> tuple[int, int]:
        """Walk the attribute ``chain`` from ``nid`` as far as edges go.

        Returns the last node reached and the number of steps taken; the
        walk ran the whole chain iff that number is ``len(chain)``.
        """
        edges = (self._index or self._build_index()).attr
        taken = 0
        for attr in chain:
            e = edges.get((nid, attr))
            if e is None:
                break
            nid = e.dst
            taken += 1
        return nid, taken

    def subgraphs(self):
        """Yield this graph and every nested restriction graph, preorder.
        The walk keeps its own stack, so any nesting depth is fine."""
        stack = [self]
        while stack:
            g = stack.pop()
            yield g
            for node in reversed(g.nodes.values()):
                if node.r_edges:
                    stack += [e.restriction for e in reversed(node.r_edges)]

    def __repr__(self):
        return "<DescriptionGraph root=%d nodes=%d aedges=%d%s>" % (
            self.root, len(self.nodes), len(self.a_edges),
            " incoherent" if self.incoherent else "")


def mark_incoherent(g: DescriptionGraph) -> bool:
    """Turn ``g``, in place, into the incoherent graph: one NOTHING node
    and no edge.  Returns whether ``g`` was coherent before."""
    if g.incoherent:
        return False
    g.nodes = {}
    g.a_edges = []
    g.root = g.add_node(GraphNode(atoms={NOTHING}))
    g.incoherent = True
    return True


def incoherent_graph() -> DescriptionGraph:
    g = DescriptionGraph()
    mark_incoherent(g)
    return g


# The restriction of every at-least, at-most and fills(role, ...) clause:
# one node labelled THING is canonical under every knowledge base, so all
# of them share this one frozen graph.
_THING_RESTRICTION = DescriptionGraph()
_THING_RESTRICTION.root = _THING_RESTRICTION.add_node(GraphNode({THING}))
_THING_RESTRICTION.canonical_kb = ANY_KB


def intersect_doms(d1: frozenset[Individual] | None,
                   d2: frozenset[Individual] | None
                   ) -> frozenset[Individual] | None:
    if d1 is None:
        return d2
    if d2 is None:
        return d1
    return d1 & d2


def merge_nodes(*nodes: GraphNode) -> GraphNode:
    """Merge nodes in one pass: atoms union, r-edge bag union (duplicates
    kept), dom intersection with the universal marker as identity.

    The r-edges are moved into the result, not cloned: it shares them
    with the inputs.
    """
    atoms: set[str] = set()
    r_edges: list[REdge] = []
    dom: frozenset[Individual] | None = None
    for n in nodes:
        atoms |= n.atoms
        r_edges += n.r_edges
        dom = intersect_doms(dom, n.dom)
    return GraphNode(atoms, r_edges, dom)


def merge_graphs(*graphs: DescriptionGraph) -> DescriptionGraph:
    """Merge graphs in one pass: ``absorb`` each into a fresh root, which
    copies the frozen ones and moves the others.  A merge with an
    incoherent graph is incoherent (the intersection of an empty extension
    with anything is empty); the merge of no graph is a root with no atom,
    which is THING."""
    out = DescriptionGraph()
    out.root = out.add_node(GraphNode(set()))
    for g in graphs:
        absorb(out, g)
    return out


def absorb(into: DescriptionGraph, g: DescriptionGraph) -> None:
    """Merge ``g`` into ``into`` in place: ``g``'s root into ``into``'s
    (atoms union, r-edge bag union, dom intersection), and ``g``'s other
    nodes and its a-edges, re-targeted from root to root, into ``into``.
    A frozen ``g`` is copied, with fresh node ids, and so left unchanged;
    any other is moved.  Restriction graphs are shared either way.
    Absorbing an incoherent graph, or into one, makes ``into`` the
    incoherent graph."""
    if g.incoherent or into.incoherent:
        mark_incoherent(into)
        return
    copy = g.frozen
    ids = {nid: _fresh_id() for nid in g.nodes} if copy else {}
    ids[g.root] = into.root
    root, old = into.root_node, g.root_node
    root.atoms |= old.atoms
    root.r_edges += [e.copy() for e in old.r_edges] if copy else old.r_edges
    root.dom = intersect_doms(root.dom, old.dom)
    for nid, node in g.nodes.items():
        if nid != g.root:
            into.nodes[ids.get(nid, nid)] = node.clone() if copy else node
    into.a_edges += [AEdge(ids.get(e.src, e.src), ids.get(e.dst, e.dst),
                           e.attr) for e in g.a_edges]


def translate(d: Description) -> DescriptionGraph:
    """Turn an expanded description into a description graph.

    Every well-formed expanded description translates; the result's
    extension equals the description's in every possible world.  Doms
    default to the universal marker and filler sets to empty.

    One pass pops ``(description, graph, node)`` tasks off an explicit
    stack, so any nesting depth is fine.  A constructor in
    ``CLASSIC_ONLY`` adds CLASSIC-THING to its node, the one rule for the
    classic realm; then an atomic one writes its ``ATOM``, another leaf,
    found by one lookup of its class, its r-edge, dom or a-edges; ``and``
    queues its conjuncts on the same node; ``all(role, C)`` opens
    a restriction graph for C, one graph per restriction graph, and
    ``all(attr, C)`` a target node.  The graph is, node for node, the
    merge of the conjuncts' graphs: nodes come in the order they are
    added, but the node of a graph or target whose whole description is
    ``all(attr, C)`` comes after C's nodes, and the a-edge of
    ``all(attr, C)`` after C's a-edges; NOTHING at a root makes the graph
    incoherent, and at a target leaves it a lone NOTHING node.  A copy
    numbers the nodes in this order, so canonical graphs depend on it.
    """
    top = DescriptionGraph()
    stack: list = []
    top.root = _open(top, d, stack)
    while stack:
        d, g, nid = stack.pop()
        t = type(d)
        if t in CLASSIC_ONLY:
            g.nodes[nid].atoms.add(CLASSIC_THING)
        if t is And:
            stack += zip(reversed(d.items), itertools.repeat(g),
                         itertools.repeat(nid))
        elif t is AllRole:
            inner = DescriptionGraph()
            inner.root = _open(inner, d.restriction, stack)
            g.nodes[nid].r_edges.append(REdge(d.role, 0, INF, inner))
        elif t is AllAttr:
            _open(g, d.restriction, stack, nid, d.attr)
        elif t in ATOM:
            g.nodes[nid].atoms.add(ATOM[t](d))
        else:
            case = _TRANSLATE.get(t)
            if case is not None:
                case(d, g, nid)
            elif t in UNEXPANDED:
                raise ValueError(
                    "description must be expanded before translation")
            else:
                raise TypeError("not a description: %r" % (d,))
    return top


class _Close:
    __slots__ = ("edge", "last")
    def __init__(self, edge: AEdge | None, last: bool):
        self.edge = edge  # the a-edge into an attribute target
        self.last = last  # whether the node's description is all(attr, C)


def _open(g: DescriptionGraph, d: Description, stack: list,
          src: int | None = None, attr: str = "") -> int:
    """Add a node to ``g`` for ``d``, its root or the target of
    ``all(attr, d)`` at node ``src``, and queue ``d`` on it above the
    node's close."""
    nid = g.add_node(GraphNode(set()))
    edge = None if src is None else AEdge(src, nid, attr)
    stack += [(_Close(edge, type(d) is AllAttr), g, nid), (d, g, nid)]
    return nid


def _close(c: _Close, g: DescriptionGraph, nid: int) -> None:
    """Finish node ``nid`` once its description is written, by the rules
    of ``translate``.  The nodes after a target, and the a-edges from
    them, are its conjuncts'."""
    if NOTHING in g.nodes[nid].atoms and nid == g.root:
        mark_incoherent(g)
    elif NOTHING in g.nodes[nid].atoms:
        order = list(g.nodes)
        added = set(order[order.index(nid):])
        g.nodes = {n: g.nodes[n] for n in order if n not in added}
        g.nodes[nid] = GraphNode({NOTHING})
        g.a_edges = [e for e in g.a_edges if e.src not in added]
    if c.edge:
        g.a_edges.append(c.edge)
    if c.last:
        g.nodes[nid] = g.nodes.pop(nid)


def _redge(node: GraphNode, role: str, lo: int, hi: float,
           fillers: tuple[Individual, ...] = ()) -> None:
    node.r_edges.append(REdge(role, lo, hi, _THING_RESTRICTION,
                              set(fillers)))


def _one_of(d: OneOf, g: DescriptionGraph, nid: int) -> None:
    node = g.nodes[nid]
    node.atoms.add(HOST_THING if d.is_host else CLASSIC_THING)
    node.dom = intersect_doms(node.dom, frozenset(d.members))


def _fills_attr(d: FillsAttr, g: DescriptionGraph, nid: int) -> None:
    end = g.add_node(GraphNode({HOST_THING if d.who.is_host
                                else CLASSIC_THING}, dom=frozenset({d.who})))
    g.a_edges.append(AEdge(nid, end, d.attr))


def _same_as(d: SameAs, g: DescriptionGraph, nid: int) -> None:
    """Two disjoint attribute paths from the node to a shared end node."""
    end = g.add_node(GraphNode({THING}))
    for chain in (d.left, d.right):
        prev = nid
        for attr in chain[:-1]:
            mid = g.add_node(GraphNode({CLASSIC_THING}))
            g.a_edges.append(AEdge(prev, mid, attr))
            prev = mid
        g.a_edges.append(AEdge(prev, end, chain[-1]))


# The leaf constructors' cases but the atomic ones, and a node's close,
# looked up by class; ``translate`` keeps the constructors that nest a
# description and writes the atomic ones' ``ATOM``.  Each writes ``d``
# into node ``nid`` of graph ``g``.
_TRANSLATE = {
    AtLeast: lambda d, g, nid: _redge(g.nodes[nid], d.role, d.n, INF),
    AtMost: lambda d, g, nid: _redge(g.nodes[nid], d.role, 0, d.n),
    # The filler set carries the individual; the restriction stays THING
    # because a filler constraint says nothing about the *other* fillers
    # (an r-edge restriction binds them all).
    FillsRole: lambda d, g, nid: _redge(g.nodes[nid], d.role, 0, INF,
                                        (d.who,)),
    FillsAttr: _fills_attr,
    OneOf: _one_of,
    SameAs: _same_as,
    _Close: _close,
}


# ---------------------------------------------------------------------------
# Deterministic ordering and dumps


def traversal_ranks(g: DescriptionGraph) -> dict[int, int]:
    """Rank nodes by a deterministic traversal from the root.

    Out-edges are followed in (attribute, stored order) so canonical graphs
    — which have at most one edge per (node, attribute) — get an ordering
    that is independent of internal node ids.
    """
    out = g.out_edges()
    ranks: dict[int, int] = {}
    stack = [g.root]
    while stack:
        nid = stack.pop()
        if nid in ranks:
            continue
        ranks[nid] = len(ranks)
        for e in reversed(sorted(out.get(nid, ()), key=lambda e: e.attr)):
            if e.dst not in ranks:
                stack.append(e.dst)
    # Unreached nodes (possible only in hand-built graphs) go last, by id.
    for nid in sorted(g.nodes):
        if nid not in ranks:
            ranks[nid] = len(ranks)
    return ranks


def _dom_jsonable(dom: frozenset[Individual] | None):
    if dom is None:
        return "*"
    return [i.name for i in sorted(dom, key=Individual.sort_key)]


def _fillers_jsonable(fillers: set[Individual]):
    return [i.name for i in sorted(fillers, key=Individual.sort_key)]


def _attr_filler_jsonable(dom: frozenset[Individual] | None):
    """An a-edge's filler list: its target's dom if that dom holds one
    individual, else empty."""
    return _fillers_jsonable(dom) if dom is not None and len(dom) == 1 \
        else []


def to_jsonable(g: DescriptionGraph) -> dict:
    """Structured dump with deterministic ordering; ``dom: "*"`` encodes
    the universal marker and ``max: "inf"`` the unbounded maximum.  The
    graphs are dumped in the reverse preorder of ``subgraphs``, each
    restriction graph before the graph holding it, so any nesting depth is
    fine."""
    dumps: dict[int, dict] = {}
    for sub in reversed(list(g.subgraphs())):
        if id(sub) not in dumps:
            dumps[id(sub)] = _graph_jsonable(sub, dumps)
    return dumps[id(g)]


def _graph_jsonable(g: DescriptionGraph, dumps: dict[int, dict]) -> dict:
    """The dump of ``g``, taking each restriction graph's from ``dumps``."""
    ranks = traversal_ranks(g)
    nodes = []
    for nid in sorted(g.nodes, key=lambda n: ranks[n]):
        node = g.nodes[nid]
        redges = []
        for e in sorted(node.r_edges, key=lambda e: e.role):
            redges.append({
                "role": e.role,
                "min": e.min,
                "max": "inf" if e.max == INF else int(e.max),
                "fillers": _fillers_jsonable(e.fillers),
                "restriction": dumps[id(e.restriction)],
            })
        nodes.append({
            "id": ranks[nid],
            "atoms": sorted(node.atoms),
            "dom": _dom_jsonable(node.dom),
            "redges": redges,
        })
    aedges = [
        {"src": ranks[e.src], "dst": ranks[e.dst], "attr": e.attr,
         "fillers": _attr_filler_jsonable(g.nodes[e.dst].dom)}
        for e in sorted(g.a_edges,
                        key=lambda e: (ranks[e.src], e.attr, ranks[e.dst]))
    ]
    return {
        "root": ranks[g.root],
        "incoherent": g.incoherent,
        "nodes": nodes,
        "aedges": aedges,
    }


"""Canonicalization of description graphs.

The canonical form is the fixpoint of a family of rewrite steps applied to
a graph and all of its nested restriction graphs:

* atom closure — seed CLASSIC-THING next to atomic concepts and doms of
  classic individuals, HOST-THING next to host concepts and doms of host
  values, and close host concepts upward through the type lattice;
* realm and bound conflicts — a node in both realms or labelled NOTHING,
  incomparable host types, an empty dom, a min above a max, or two atoms
  from one declared disjointness group make the whole graph incoherent
  (attributes are total, so every node must be satisfiable);
* incoherence propagation — an incoherent restriction forces the edge max
  to zero; a zero max makes the restriction incoherent;
* edge merging — two r-edges with the same role combine bounds and merge
  their restriction graphs; two a-edges with the same source and attribute
  collapse their targets.  Target collapses cascade, so they are driven by
  a congruence closure over the node classes;
* individual bookkeeping — an r-edge's fillers push into its min and its
  restriction's root dom, that dom caps its max, and a filler outside the
  dom makes the graph incoherent.  An attribute has one value, stated as
  the one individual of its target's dom, so two fillers of one attribute
  meet as an empty merged dom.

Every conflict makes its graph incoherent at once, through
``graph.mark_incoherent``, and a graph's rules stop there: nothing is
left to rewrite in the incoherent graph.

The rules of a graph read its restriction graphs but change only their
own graph, with three exceptions: a zero max makes the restriction
incoherent, an r-edge merge builds a new restriction graph, and filler
bookkeeping narrows a restriction's root dom.  So ``canonicalize``
normalizes every graph not canonical yet once, children before parents,
and those rules normalize the one graph they changed on the spot.  It
works in place, on a copy of its input, which is left unchanged, or, for
``canonical_graph``, on a fresh translation, with no copy.

A canonical graph is frozen (see ``graph``), and a result is frozen as
it is returned: every graph in it that is not frozen yet is marked
canonical.  While the rules run, the frozen graphs are exactly the ones
shared with other canonical graphs, so a rule copies a graph before it
changes it if and only if the graph is frozen.

Each merge removes a node and every numeric step moves a bound
monotonically, so the fixpoint exists.  A round merges r-edges, runs the
node-local steps to their fixpoint at each node, merges a-edges and keeps
the fillers' books; only the last two change what an earlier pass reads,
so only they start another round, and most graphs settle in one.
The engine runs that one order; the tests check that every order of the
passes, over the nodes forward or reversed, gives the same result.
"""

from __future__ import annotations

from collections.abc import Sequence

from .descriptions import (
    BUILTIN_ATOMS,
    CLASSIC_THING,
    Description,
    HOST_THING,
    Individual,
    is_host_test_atom,
    NOTHING,
    THING,
)
from .graph import (
    AEdge,
    DescriptionGraph,
    GraphNode,
    REdge,
    _THING_RESTRICTION,
    absorb,
    incoherent_graph,
    intersect_doms,
    mark_incoherent,
    merge_graphs,
    merge_nodes,
    translate,
)
from .kb import DEFAULT_LATTICE, KnowledgeBase


def canonicalize(g: DescriptionGraph,
                 kb: KnowledgeBase | None = None, *,
                 copy: bool = True) -> DescriptionGraph:
    """Return the canonical form of ``g`` under ``kb``; the input is not
    modified.

    A ``g`` already canonical under ``kb`` is returned itself.  Otherwise
    ``g`` is cloned once, up front, sharing its restriction graphs that
    are canonical under ``kb``; each copied graph is normalized once,
    children before parents, and then every graph of the result that is
    not frozen yet is marked canonical under ``kb``.  ``copy=False``
    normalizes ``g`` itself in place instead, for ``canonical_graph``'s
    fresh graphs, which no one else holds.  The mark is ``kb`` itself, so
    ``kb`` must not change after this call; a graph marked before a change
    would be returned unchanged by later calls.
    """
    if g.canonical_under(kb):
        return g
    graphs = g._clones(kb, copy)
    for sub in reversed(graphs):
        _normalize_graph(sub, kb)
    for sub in graphs[0]._clones(kb, copy=False):
        sub.canonical_kb = kb
    return graphs[0]


def canonical_graph(d: Description | None,
                    kb: KnowledgeBase | None = None,
                    told: Sequence[DescriptionGraph] = ()
                    ) -> DescriptionGraph:
    """The canonical graph under ``kb`` of the expanded description ``d``
    (None: none) and the graphs ``told``, canonical under ``kb``: ``d``'s
    translation, with copies of each told graph's root r-edges and other
    nodes absorbed into it, canonicalized in place.  Nothing else is
    copied; the told graphs' restriction graphs are shared."""
    g = merge_graphs() if d is None else translate(d)
    for t in told:
        absorb(g, t)
    return canonicalize(g, kb, copy=False)


def _normalize_graph(g: DescriptionGraph, kb: KnowledgeBase | None) -> None:
    """Run ``g``'s own rules to a fixpoint, or until a conflict makes it
    incoherent.  Its restriction graphs must be canonical already; a rule
    that changes one re-normalizes it.  Only a pass that can unsettle an
    earlier one starts another round when it fires (``_UNSETTLING``).
    Each pass returns at once when nothing can fire it; only the a-edge
    pass removes nodes, and a pass that makes ``g`` incoherent reports a
    change."""
    again = True
    while again and not g.incoherent:
        node_order = list(g.nodes)
        again = False
        for p in _PASSES:
            if p(g, node_order, kb):
                if g.incoherent:
                    break
                again |= p in _UNSETTLING
                if p is _aedge_pass:
                    node_order = [n for n in node_order if n in g.nodes]


# -- node-local steps -------------------------------------------------------


def _node_local_pass(g, node_order, kb) -> bool:
    """Each node's steps to their fixpoint in one visit.  Dom typing may
    precede closure, which adds no atom that rejects a host value (the
    classic marker joins a classic atom or a dom of no host value)."""
    lattice = kb.lattice if kb is not None else DEFAULT_LATTICE
    groups = kb.disjoint_groups if kb is not None else []
    changed = False
    for nid in node_order:
        node = g.nodes[nid]
        for e in node.r_edges:
            if e.restriction.incoherent and e.max != 0:
                e.max = 0
                changed = True
            if e.max == 0 and not e.restriction.incoherent:
                e.restriction = incoherent_graph()
                changed = True
        changed |= _dom_typing(node, lattice)
        changed |= _close_atoms(node, lattice)
        if (_realm_conflicts(node, lattice)
                or _disjointness(node, groups)
                or any(e.min > e.max for e in node.r_edges)
                or node.dom is not None and not node.dom):
            return mark_incoherent(g)
    return changed


def _close_atoms(node: GraphNode, lattice) -> bool:
    """Seed realm markers and close host concepts upward.  A dom of
    classic individuals only, or of host values only, gives its realm's
    marker as well: every element the node admits lies in that realm."""
    add: set[str] = set()
    if node.dom:
        hosts = {ind.is_host for ind in node.dom}
        if len(hosts) == 1:
            add.add(HOST_THING if True in hosts else CLASSIC_THING)
    for atom in node.atoms:
        if atom in BUILTIN_ATOMS:
            continue
        if lattice.is_type(atom):
            add.add(HOST_THING)
            add.update(lattice.ancestors(atom))
        elif is_host_test_atom(atom):
            # Opaque host-realm atom: realm marker only, no lattice closure.
            add.add(HOST_THING)
        else:
            add.add(CLASSIC_THING)
    if add - node.atoms:
        node.atoms |= add
        return True
    return False


def _realm_conflicts(node: GraphNode, lattice) -> bool:
    """Whether the node is NOTHING, in both realms, or of two incomparable
    host types."""
    if NOTHING in node.atoms:
        return True
    if HOST_THING in node.atoms and CLASSIC_THING in node.atoms:
        return True
    hosts = [a for a in node.atoms if lattice.is_type(a)]
    if len(hosts) < 2:
        return False
    hosts.sort()
    return any(not lattice.comparable(a, b)
               for i, a in enumerate(hosts) for b in hosts[i + 1:])


def _disjointness(node: GraphNode, groups) -> bool:
    """Whether the node has two atoms of one disjointness group."""
    return any(len(group & node.atoms) >= 2 for group in groups)


def _atom_admits_host_value(atom: str, ind: Individual, lattice) -> bool:
    """Whether a host value can be in the atom's extension.  Opaque host
    test atoms are black boxes, so they conservatively admit everything."""
    if atom in (THING, HOST_THING):
        return True
    if atom == NOTHING or atom == CLASSIC_THING:
        return False
    if lattice.is_type(atom):
        return lattice.literal_in(ind, atom)
    # Classic atomic concepts live in the other realm.
    return is_host_test_atom(atom)


def _dom_typing(node: GraphNode, lattice) -> bool:
    if node.dom is None:
        return False
    drop = {
        ind for ind in node.dom
        if ind.is_host and not all(
            _atom_admits_host_value(a, ind, lattice) for a in node.atoms)
    }
    if drop:
        node.dom = node.dom - drop
        return True
    return False


# -- r-edge merging ---------------------------------------------------------


def _merged_redge(edges: list[REdge], kb: KnowledgeBase | None) -> REdge:
    """One r-edge for a role: tightest bounds, the union of fillers, and
    the merge of the restriction graphs, normalized again.  The merge
    moves the graphs of this call, since the old edges are dropped, and
    copies the frozen ones.  A merge that would add nothing is skipped:
    ``{THING} ⊓ {THING}`` is the shared {THING} restriction itself, and
    ``R ⊓ {THING}`` is R when R's root has THING already, and else R with
    THING at its root, which no rule reads: canonical as it stands."""
    restrictions = [e.restriction for e in edges]
    rest = [r for r in restrictions if r is not _THING_RESTRICTION]
    if len(rest) < 2 and (not rest or THING in rest[0].root_node.atoms):
        restriction = (rest or restrictions)[0]
    else:
        restriction = merge_graphs()
        for r in restrictions:
            absorb(restriction, r)
        if len(rest) > 1:
            _normalize_graph(restriction, kb)
    return REdge(edges[0].role, max(e.min for e in edges),
                 min(e.max for e in edges), restriction,
                 set().union(*(e.fillers for e in edges)))


def _redge_pass(g, node_order, kb) -> bool:
    changed = False
    for nid in node_order:
        node = g.nodes[nid]
        if len(node.r_edges) < 2:
            continue
        by_role: dict[str, list[REdge]] = {}
        for e in node.r_edges:
            by_role.setdefault(e.role, []).append(e)
        if len(by_role) < len(node.r_edges):
            node.r_edges = [
                es[0] if len(es) == 1
                else _merged_redge(es, kb)
                for es in by_role.values()]
            changed = True
    return changed


# -- a-edge merging ---------------------------------------------------------


class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> tuple[int, int] | None:
        """Join the classes of ``a`` and ``b``; return the representatives
        kept and absorbed, or None if they were one class already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        # Deterministic representative: keep the smaller id.
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra, rb


def _aedge_pass(g, node_order, kb) -> bool:
    """Collapse duplicate (source, attribute) a-edges, cascading target
    merges by congruence closure (Downey, Sethi and Tarjan, JACM 1980):
    each node class keeps an attribute -> target map, and a union folds
    the smaller map into the larger and queues the targets that meet.
    With distinct (source, attribute) keys nothing can collapse; with a
    repeated key, an edge collapses whether or not its targets differ."""
    if len({(e.src, e.attr) for e in g.a_edges}) == len(g.a_edges):
        return False
    uf = _UnionFind()
    out: dict[int, dict[str, int]] = {}
    pending: list[tuple[int, int]] = []
    for e in g.a_edges:
        target = out.setdefault(e.src, {}).setdefault(e.attr, e.dst)
        if target != e.dst:
            pending.append((target, e.dst))
    while pending:
        joined = uf.union(*pending.pop())
        if joined is None:
            continue
        kept, absorbed = joined
        moved = out.pop(absorbed, None)
        if not moved:
            continue
        into = out.setdefault(kept, moved)
        if into is moved:
            continue
        if len(moved) > len(into):
            moved, into = into, moved
            out[kept] = into
        for attr, t in moved.items():
            target = into.setdefault(attr, t)
            if target != t:
                pending.append((target, t))

    classes: dict[int, list[int]] = {}
    for nid in g.nodes:
        classes.setdefault(uf.find(nid), []).append(nid)
    # Each class merges in one pass; the old nodes are dropped, so their
    # r-edges move into the merged node.
    new_nodes: dict[int, GraphNode] = {}
    for rep in sorted(classes):
        members = classes[rep]
        new_nodes[rep] = g.nodes[rep] if len(members) == 1 else \
            merge_nodes(*(g.nodes[m] for m in sorted(members)))
    merged_edges: dict[tuple[int, str], AEdge] = {}
    for e in g.a_edges:
        key = (uf.find(e.src), e.attr)
        if key not in merged_edges:
            merged_edges[key] = AEdge(key[0], uf.find(e.dst), e.attr)
    g.nodes = new_nodes
    g.a_edges = list(merged_edges.values())
    g.root = uf.find(g.root)
    return True


# -- individual bookkeeping -------------------------------------------------


def _individual_pass(g, node_order, kb) -> bool:
    """The r-edges' filler/dom subset rule and bound/cardinality
    arithmetic."""
    changed = False
    for nid in node_order:
        node = g.nodes[nid]
        for e in node.r_edges:
            if e.min < len(e.fillers):
                e.min = len(e.fillers)
                changed = True
            if e.restriction.incoherent:
                # Settled: the max is forced to zero elsewhere, and dom
                # arithmetic on the incoherent placeholder is meaningless.
                continue
            head = e.restriction.root_node
            if e.fillers and (head.dom is not None
                              and not e.fillers <= head.dom):
                return mark_incoherent(g)
            if head.dom is not None:
                if e.max > len(head.dom):
                    e.max = len(head.dom)
                    changed = True
                if e.min >= len(head.dom) and not head.dom <= e.fillers:
                    e.fillers |= head.dom
                    changed = True
            if e.max == len(e.fillers):
                new_dom = intersect_doms(head.dom, frozenset(e.fillers))
                if new_dom != head.dom:
                    if e.restriction.frozen:
                        e.restriction = e.restriction._copy()
                    e.restriction.root_node.dom = new_dom
                    _normalize_graph(e.restriction, kb)
                    changed = True
    return changed


# A round's passes in order, and those that start another round.
_PASSES = (_redge_pass, _node_local_pass, _aedge_pass, _individual_pass)
_UNSETTLING = _PASSES[2:]

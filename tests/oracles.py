"""Test oracles: brute-force and size checks that the engine never runs.

They give tests an independent view of what the engine computes:
exhaustive model search for graph satisfiability, truth tables for 3CNF
formulas, isomorphism of canonical graphs by their dumps, size measures
of descriptions and graphs, the translation built by merging graphs, the
told graphs of classification built by merging graphs, normalization
in any order of the rule passes with another round after any change,
and the random corpus drawn through ``random.Random``'s own methods.
"""

import itertools
import random
from contextlib import contextmanager

from classicdl.descriptions import (
    CLASSIC_THING,
    HOST_THING,
    THING,
    AllAttr,
    AllRole,
    And,
    AtLeast,
    AtMost,
    ClassicThing,
    ConceptName,
    Description,
    FillsAttr,
    FillsRole,
    HostConcept,
    HostThing,
    Nothing,
    OneOf,
    Primitive,
    SameAs,
    Thing,
)
from classicdl.graph import (
    _THING_RESTRICTION,
    INF,
    AEdge,
    DescriptionGraph,
    GraphNode,
    REdge,
    absorb,
    incoherent_graph,
    merge_graphs,
    to_jsonable,
    translate,
)
from classicdl.kb import (
    DEFAULT_LATTICE,
    HostLattice,
    KnowledgeBase,
    _definition_order,
    _told_parts,
)
from classicdl import normalize
from classicdl.normalize import canonicalize
from classicdl.randgen import ATOMS, ATTRS, INDIVIDUALS, ROLES
from classicdl.reduction import CnfFormula, Literal
from classicdl.worlds import (
    ClassicElement,
    HostElement,
    Interpretation,
    element_in_graph,
    host_element_for,
    signature_of_graph,
)


def ast_size(d: Description) -> int:
    """Number of constructors and leaves, counting integers as size one."""
    if isinstance(d, And):
        return 1 + sum(ast_size(c) for c in d.items)
    if isinstance(d, (AllRole, AllAttr)):
        return 2 + ast_size(d.restriction)
    if isinstance(d, (AtLeast, AtMost)):
        return 3
    if isinstance(d, SameAs):
        return 1 + len(d.left) + len(d.right)
    if isinstance(d, (FillsRole, FillsAttr)):
        return 3
    if isinstance(d, OneOf):
        return 1 + len(d.members)
    if isinstance(d, Primitive):
        return 2 + ast_size(d.body)
    return 1


def graph_size(g: DescriptionGraph) -> int:
    """Total size: nodes, atoms, dom entries, edges, bounds, and nested
    restriction graphs."""
    total = 0
    for node in g.nodes.values():
        total += 1 + len(node.atoms) + (0 if node.dom is None else len(node.dom))
        for e in node.r_edges:
            total += 3 + len(e.fillers) + graph_size(e.restriction)
    total += len(g.a_edges)
    return total


def isomorphic(g1: DescriptionGraph, g2: DescriptionGraph) -> bool:
    """Structural equality up to node renaming (canonical graphs)."""
    return to_jsonable(g1) == to_jsonable(g2)


# ---------------------------------------------------------------------------
# Translation by merging


def merge_translate(d: Description) -> DescriptionGraph:
    """The translation as the paper builds it: each leaf gets a graph of
    its own, ``and(C1, ..., Cn)`` is the merge of the conjuncts' graphs,
    ``all(role, C)`` a root whose r-edge holds C's graph, and
    ``all(attr, C)`` C's graph under a new root.  ``graph.translate`` must
    build the same graph node for node."""
    if isinstance(d, And):
        return merge_graphs(*(merge_translate(item) for item in d.items))
    if isinstance(d, AllAttr):
        g = merge_translate(d.restriction)
        inner_root = g.root
        g.root = g.add_node(GraphNode({CLASSIC_THING}))
        g.a_edges.append(AEdge(g.root, inner_root, d.attr))
        g.incoherent = False
        return g
    if isinstance(d, Nothing):
        return incoherent_graph()
    g = DescriptionGraph()
    if isinstance(d, (Thing, ClassicThing, HostThing)):
        atom = {Thing: THING, ClassicThing: CLASSIC_THING,
                HostThing: HOST_THING}[type(d)]
        g.root = g.add_node(GraphNode({atom}))
    elif isinstance(d, (ConceptName, HostConcept)):
        g.root = g.add_node(GraphNode({d.name}))
    elif isinstance(d, (AllRole, AtLeast, AtMost, FillsRole)):
        if isinstance(d, AllRole):
            edge = REdge(d.role, 0, INF, merge_translate(d.restriction))
        elif isinstance(d, AtLeast):
            edge = REdge(d.role, d.n, INF, _THING_RESTRICTION)
        elif isinstance(d, AtMost):
            edge = REdge(d.role, 0, d.n, _THING_RESTRICTION)
        else:
            edge = REdge(d.role, 0, INF, _THING_RESTRICTION, {d.who})
        g.root = g.add_node(GraphNode({CLASSIC_THING}, [edge]))
    elif isinstance(d, OneOf):
        g.root = g.add_node(GraphNode(
            {HOST_THING if d.is_host else CLASSIC_THING},
            dom=frozenset(d.members)))
    elif isinstance(d, FillsAttr):
        g.root = g.add_node(GraphNode({CLASSIC_THING}))
        end = g.add_node(GraphNode(
            {HOST_THING if d.who.is_host else CLASSIC_THING},
            dom=frozenset({d.who})))
        g.a_edges.append(AEdge(g.root, end, d.attr))
    elif isinstance(d, SameAs):
        g.root = g.add_node(GraphNode({CLASSIC_THING}))
        end = g.add_node(GraphNode({THING}))
        for chain in (d.left, d.right):
            prev = g.root
            for attr in chain[:-1]:
                mid = g.add_node(GraphNode({CLASSIC_THING}))
                g.a_edges.append(AEdge(prev, mid, attr))
                prev = mid
            g.a_edges.append(AEdge(prev, end, chain[-1]))
    elif isinstance(d, Description):
        raise ValueError("description must be expanded before translation")
    else:
        raise TypeError("not a description: %r" % (d,))
    return g


def merge_told_graphs(kb: KnowledgeBase) -> dict[str, DescriptionGraph]:
    """Each name's canonical graph as classification built it by merging:
    its told names' canonical graphs merged with the translation of each
    of its other clauses, one graph per clause, and the merge
    canonicalized, which copies it whole.  ``kb._told_graphs`` must build
    the same graphs, dump for dump."""
    parts = {n: ([], []) for n in kb.named}
    for n, (told, clauses) in parts.items():
        _told_parts(kb.named[n], kb, told, clauses)
    canon = {}
    for a in _definition_order({n: told for n, (told, _) in parts.items()}):
        told, clauses = parts[a]
        canon[a] = canonicalize(merge_graphs(
            *(canon[p] for p in told),
            *(translate(c) for c in clauses)), kb)
    return canon


# ---------------------------------------------------------------------------
# Normalization in any rule order, with a round after every change


@contextmanager
def rule_order(passes, reverse_nodes=False):
    """Within the block, ``normalize._normalize_graph`` runs ``passes`` in
    the order given, visits the nodes in insertion order, or in reverse if
    ``reverse_nodes``, and starts another round after any pass changes the
    graph.  The engine's rules call ``_normalize_graph`` through the
    module, so the restriction graphs they normalize follow the same
    order."""
    passes = tuple(passes)
    step = -1 if reverse_nodes else 1

    def normalize_graph(g: DescriptionGraph, kb) -> None:
        changed = True
        while changed and not g.incoherent:
            node_order = list(g.nodes)[::step]
            changed = False
            for p in passes:
                if p(g, node_order, kb):
                    if g.incoherent:
                        break
                    changed = True
                    # The a-edge pass removes nodes; ``passes`` may wrap it.
                    node_order = [n for n in node_order if n in g.nodes]

    saved = normalize._normalize_graph
    normalize._normalize_graph = normalize_graph
    try:
        yield
    finally:
        normalize._normalize_graph = saved


def reference_merged_redge(edges: list[REdge], kb) -> REdge:
    """``normalize._merged_redge`` that normalizes every merge it builds,
    ``R ⊓ {THING}`` included."""
    restrictions = [e.restriction for e in edges]
    rest = [r for r in restrictions if r is not _THING_RESTRICTION]
    if len(rest) < 2 and (not rest or THING in rest[0].root_node.atoms):
        restriction = (rest or restrictions)[0]
    else:
        restriction = merge_graphs()
        for r in restrictions:
            absorb(restriction, r)
        normalize._normalize_graph(restriction, kb)
    return REdge(edges[0].role, max(e.min for e in edges),
                 min(e.max for e in edges), restriction,
                 set().union(*(e.fillers for e in edges)))


@contextmanager
def reference_normalization():
    """Within the block, ``normalize`` runs the node-local pass first and
    another round after any change (``rule_order``), and normalizes every
    r-edge merge it builds; the rule passes are the engine's."""
    saved = normalize._merged_redge
    normalize._merged_redge = reference_merged_redge
    try:
        with rule_order((normalize._node_local_pass, normalize._redge_pass,
                         normalize._aedge_pass, normalize._individual_pass)):
            yield
    finally:
        normalize._merged_redge = saved


# ---------------------------------------------------------------------------
# The random corpus drawn by ``random.Random``'s methods


def reference_random_description(rng: random.Random,
                                 depth: int = 4) -> Description:
    """``randgen.random_description`` drawn with ``Random.choice``,
    ``randint`` and ``sample``."""
    leaf_ops = ("atom", "atom", "one-of", "fills-role", "fills-attr",
                "at-least", "at-most", "same-as", "thing", "classic-thing",
                "nothing")
    deep_ops = leaf_ops + ("and", "and", "all-role", "all-role", "all-attr")
    op = rng.choice(deep_ops if depth > 0 else leaf_ops)
    if op == "atom":
        return ConceptName(rng.choice(ATOMS))
    if op == "thing":
        return Thing()
    if op == "classic-thing":
        return ClassicThing()
    if op == "nothing":
        return Nothing()
    if op == "one-of":
        k = rng.randint(1, len(INDIVIDUALS))
        return OneOf(tuple(rng.sample(INDIVIDUALS, k)))
    if op == "fills-role":
        return FillsRole(rng.choice(ROLES), rng.choice(INDIVIDUALS))
    if op == "fills-attr":
        return FillsAttr(rng.choice(ATTRS), rng.choice(INDIVIDUALS))
    if op == "at-least":
        return AtLeast(rng.randint(1, 3), rng.choice(ROLES))
    if op == "at-most":
        return AtMost(rng.randint(0, 3), rng.choice(ROLES))
    if op == "same-as":
        left = tuple(rng.choice(ATTRS) for _ in range(rng.randint(1, 2)))
        right = tuple(rng.choice(ATTRS) for _ in range(rng.randint(1, 2)))
        return SameAs(left, right)
    if op == "and":
        n = rng.randint(2, 3)
        return And(tuple(reference_random_description(rng, depth - 1)
                         for _ in range(n)))
    if op == "all-role":
        return AllRole(rng.choice(ROLES),
                       reference_random_description(rng, depth - 1))
    return AllAttr(rng.choice(ATTRS),
                   reference_random_description(rng, depth - 1))


def reference_random_pair(rng: random.Random
                          ) -> tuple[Description, Description]:
    """``randgen.random_pair`` drawn with ``Random``'s methods."""
    mode = rng.random()
    d = reference_random_description(rng)
    if mode < 0.40:
        return d, reference_random_description(rng)
    if mode < 0.65:
        extra = reference_random_description(rng, depth=2)
        return d, And((d, extra))
    if mode < 0.80:
        return d, d
    c = reference_random_description(rng, depth=2)
    role = rng.choice(ROLES)
    n = rng.randint(1, 3)
    return (
        And((AtLeast(n, role), d)) if rng.random() < 0.5 else AtLeast(n, role),
        And((AtLeast(n + rng.randint(0, 1), role), c, d)),
    )


def graph_shape(g: DescriptionGraph):
    """Everything about ``g`` but its node ids: the root's and each
    a-edge's ends as positions in node order, each node's atoms, dom and
    r-edges in order, with each restriction graph's shape in turn."""
    at = {nid: k for k, nid in enumerate(g.nodes)}
    nodes = [(node.atoms, node.dom,
              [(e.role, e.min, e.max, e.fillers, graph_shape(e.restriction))
               for e in node.r_edges])
             for node in g.nodes.values()]
    return (at[g.root], g.incoherent, nodes,
            [(at[e.src], at[e.dst], e.attr) for e in g.a_edges])


# ---------------------------------------------------------------------------
# Propositional ground truth


def random_cnf(rng: random.Random, nvars: int, nclauses: int) -> CnfFormula:
    variables = tuple("x%d" % i for i in range(1, nvars + 1))
    clauses = []
    for _ in range(nclauses):
        picks = [rng.choice(variables) for _ in range(3)]
        clauses.append(tuple(Literal(v, rng.random() < 0.5) for v in picks))
    return CnfFormula(variables, tuple(clauses))


def truth_table_unsat(f: CnfFormula, limit: int = 20) -> bool:
    """Independent check that no assignment satisfies all clauses."""
    if len(f.variables) > limit:
        raise ValueError("too many variables for brute force")
    for bits in itertools.product((False, True), repeat=len(f.variables)):
        env = dict(zip(f.variables, bits))
        if all(any(env[l.var] == l.positive for l in clause)
               for clause in f.clauses):
            return False
    return True


# ---------------------------------------------------------------------------
# Bounded brute-force model search


def world_domain(world: Interpretation):
    """The world's classic elements by number, then its host elements by
    name."""
    return itertools.chain(sorted(world.classic, key=lambda e: e.eid),
                           sorted(world.hosts, key=str))


def bounded_model_search(g: DescriptionGraph, k: int = 2,
                         lattice: HostLattice | None = None):
    """Exhaustively search for a world (over the graph's own signature)
    with at most ``k`` classic elements and filler sets of size at most
    ``k`` in which the graph's extension is non-empty.

    Returns ``(world, element)`` or ``None``.  Only practical for the tiny
    signatures used in tests; this is the independent check that canonical
    non-incoherent graphs are satisfiable and incoherent ones are not.
    """
    lattice = lattice or DEFAULT_LATTICE
    sig = signature_of_graph(g, lattice)
    atoms = sorted(sig.atoms)
    roles = sorted(sig.roles)
    attrs = sorted(sig.attrs)
    inds = sorted(sig.individuals)

    hosts = {host_element_for(i) for i in sig.host_values}
    hosts |= {HostElement("INTEGER", anon_id=0), HostElement(None, anon_id=1)}

    for n_classic in range(0, k + 1):
        classic = [ClassicElement(i) for i in range(n_classic)]
        base = Interpretation(lattice=lattice)
        base.classic = set(classic)
        base.hosts |= hosts
        domain = classic + sorted(hosts | {base.sink}, key=str)
        for world in _enumerate_worlds(base, classic, domain, atoms, roles,
                                       attrs, inds, k):
            for e in world_domain(world):
                if element_in_graph(g, e, world):
                    return world, e
    return None


def _subsets(items, max_size):
    for r in range(0, min(len(items), max_size) + 1):
        yield from itertools.combinations(items, r)


def _enumerate_worlds(base, classic, domain, atoms, roles, attrs, inds, k):
    atom_choices = [list(_subsets(classic, len(classic))) for _ in atoms]
    # Each classic element belongs to at most one individual's extension.
    ind_assignments = itertools.product(range(len(inds) + 1),
                                        repeat=len(classic))
    for ind_pick in ind_assignments:
        ind_ext: dict[str, set] = {name: set() for name in inds}
        for e, which in zip(classic, ind_pick):
            if which > 0:
                ind_ext[inds[which - 1]].add(e)
        if inds and not all(ind_ext[n] for n in inds):
            continue  # individual extensions must be non-empty
        for atom_pick in itertools.product(*atom_choices):
            for role_ext in _role_extensions(roles, classic, domain, k):
                for attr_ext in _attr_extensions(attrs, classic,
                                                 list(domain)):
                    world = Interpretation(lattice=base.lattice)
                    world.classic = set(classic)
                    world.hosts = set(base.hosts)
                    world.concept_ext = {
                        a: set(pick) for a, pick in zip(atoms, atom_pick)}
                    world.role_ext = role_ext
                    world.attr_ext = attr_ext
                    world.indiv_ext = {n: set(s) for n, s in ind_ext.items()}
                    yield world


def _role_extensions(roles, classic, domain, k):
    if not roles:
        yield {}
        return
    per_elem = list(_subsets(domain, k))
    combos = itertools.product(per_elem, repeat=len(classic) * len(roles))
    for combo in combos:
        picks = iter(combo)
        yield {role: {e: set(next(picks)) for e in classic}
               for role in roles}


def _attr_extensions(attrs, classic, choices):
    if not attrs or not classic:
        yield {a: {} for a in attrs}
        return
    combos = itertools.product(choices, repeat=len(classic) * len(attrs))
    for combo in combos:
        table: dict[str, dict] = {}
        idx = 0
        for a in attrs:
            table[a] = {}
            for e in classic:
                table[a][e] = combo[idx]
                idx += 1
        yield table

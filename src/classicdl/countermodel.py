"""Graphical worlds: constructive models for canonical description graphs.

``construct_graphical_world`` builds a finite world with a distinguished
element inside the graph's extension.  Everything is allocated in a single
shared builder, so the disjoint unions the construction calls for come
free: every node of every (nested) island gets a fresh element.

With a steering description the free choices of the construction are made
against the clause where the structural test fails (``subsume.explain``),
by one rule per constructor class (``_STEER``) — a filler count one below
an ``at-least`` or one above an ``at-most`` bound, wrong-realm fillers for
missing edges, a fresh end value for each missing same-as tail, dom picks
outside an enumeration — so the distinguished element lands inside the
graph's extension but outside the description's.  A host node escapes
every classic-only constructor (``descriptions.CLASSIC_ONLY``)
unsteered.  The result is verified before it is returned, by evaluating
the graph and the description at the distinguished element alone; a
verification failure raises ``CounterModelError``.

Known limitation, inherent to the algorithm being modelled: a host-valued
dom can force the distinguished element to be a literal whose built-in
type memberships are fixed, so a host-concept subsumer that the structural
test rejects may still contain every admissible element.  Steering raises
``CounterModelError`` in that corner rather than fabricating a world.
"""

from __future__ import annotations

from .descriptions import (
    AllAttr,
    AllRole,
    AtLeast,
    AtMost,
    BUILTIN_ATOMS,
    CLASSIC_ONLY,
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
    is_host_test_atom,
    Nothing,
    OneOf,
    SameAs,
    walk,
)
from .graph import DescriptionGraph, GraphNode, INF
from .kb import DEFAULT_LATTICE, HostLattice, KnowledgeBase
from .subsume import Failure, covers_everything, explain
from .worlds import (
    ClassicElement,
    HostElement,
    Interpretation,
    Signature,
    element_in_graph,
    eval_description,
    host_element_for,
    signature_of_description,
    signature_of_graph,
)


class CounterModelError(Exception):
    """The steered construction could not produce a separating world."""


# The most fresh elements a world may get: a large number bound, or nested
# ones, would exhaust memory before the world was built.
ELEMENT_LIMIT = 100_000


class NodePlan:
    __slots__ = ("host", "dom_pick", "dom_avoid", "attr_set", "fresh")
    def __init__(self, dom_pick: Individual | None = None):
        self.host = False             # THING-only node: a fresh host one
        self.dom_pick = dom_pick      # forced dom/filler join
        self.dom_avoid = frozenset()  # joins to rule out
        # attr -> a fresh value for it, host (True) or classic (False)
        self.attr_set: dict[str, bool] = {}
        # a role with no edge -> (count, host) fresh fillers for it
        self.fresh: dict[str, tuple[int, bool]] = {}


class EdgePlan:
    __slots__ = ("count", "counter", "dom_avoid")
    def __init__(self, count: int | None = None,
                 counter: Failure | None = None, dom_avoid=frozenset()):
        self.count = count
        self.counter = counter  # the body's failure to follow
        self.dom_avoid: frozenset = dom_avoid


class _Builder:
    def __init__(self, lattice: HostLattice):
        self.world = Interpretation(lattice=lattice)
        self.joins: dict = {}  # element -> the Individual it realizes
        self._next_classic = 0
        self._next_anon = 0

    def reserve(self, count: int) -> None:
        """Fail unless ``count`` more fresh elements fit the limit."""
        if self._next_classic + self._next_anon + count > ELEMENT_LIMIT:
            raise CounterModelError("counter-model exceeds the size limit "
                                    "(%d elements)" % ELEMENT_LIMIT)

    def fresh(self, host: bool, vtype: str | None = None):
        """A new anonymous host element of ``vtype``, or a new classic
        element."""
        self.reserve(1)
        if host:
            e = HostElement(vtype, anon_id=self._next_anon)
            self._next_anon += 1
            self.world.hosts.add(e)
        else:
            e = ClassicElement(self._next_classic)
            self._next_classic += 1
            self.world.classic.add(e)
        return e

    def host_value(self, ind: Individual) -> HostElement:
        e = host_element_for(ind)
        self.world.hosts.add(e)
        self.joins[e] = ind
        return e

    def join_individual(self, ind: Individual, elem) -> None:
        self.world.indiv_ext.setdefault(ind.name, set()).add(elem)
        self.joins[elem] = ind

    def add_membership(self, atom: str, elem) -> None:
        self.world.concept_ext.setdefault(atom, set()).add(elem)

    def set_attr(self, attr: str, src, dst) -> None:
        if not isinstance(src, ClassicElement):
            raise CounterModelError("attribute source off the classic realm")
        self.world.attr_ext.setdefault(attr, {})[src] = dst

    def add_role_pair(self, role: str, src, dst) -> None:
        self.world.role_ext.setdefault(role, {}).setdefault(
            src, set()).add(dst)


def construct_graphical_world(g: DescriptionGraph,
                              steering: Description | None = None,
                              kb: KnowledgeBase | None = None):
    """Build ``(world, distinguished)`` with the distinguished element in
    the canonical graph's extension; with ``steering`` given (and the
    structural test negative for it) also outside the steering
    description's extension."""
    if g.incoherent:
        raise ValueError("cannot build a world for an incoherent graph")
    b = _Builder(kb.lattice if kb is not None else DEFAULT_LATTICE)
    if steering is None:
        elems = _build_island(b, g, {}, {})
    else:
        failure = explain(steering, g)
        if failure is None:
            raise ValueError("the description subsumes the graph; no "
                             "counter-model exists")
        elems = _counter_build(b, failure)
    distinguished = elems[g.root]
    _finalize(b, g, steering)
    world = b.world
    if not element_in_graph(g, distinguished, world):
        raise CounterModelError("constructed element fell outside the "
                                "graph's extension")
    if steering is not None and \
            eval_description(steering, world, {distinguished}):
        raise CounterModelError("constructed element did not escape the "
                                "steering description")
    return world, distinguished


def interpret_rest(world: Interpretation, *descs: Description) -> None:
    """Interpret the names of ``descs`` that ``world`` leaves open.

    The counter-model interprets the names of the canonical graph and of
    the steering description; names that canonicalization removed from
    the subsumee get an empty concept or a fresh isolated element here.
    Neither changes whether an element already in the world lies in the
    graph, so the distinguished element stays a counter-model."""
    sig = Signature()
    for d in descs:
        sig = sig.merge(signature_of_description(d))
    _interpret_names(world, sig)


def _finalize(b: _Builder, g: DescriptionGraph,
              steering: Description | None) -> None:
    """Interpret every name in sight and materialize mentioned host
    values."""
    sig = signature_of_graph(g, b.world.lattice)
    if steering is not None:
        sig = sig.merge(signature_of_description(steering))
    for v in sig.host_values:
        b.host_value(v)
    _interpret_names(b.world, sig)


def _interpret_names(world: Interpretation, sig: Signature) -> None:
    """Seed empty concept extensions and give every individual without
    one a fresh classic element.  Fresh padding elements carry no other
    memberships, so existing extensions are unaffected."""
    for atom in sig.atoms:
        world.concept_ext.setdefault(atom, set())
    next_id = max((e.eid for e in world.classic), default=-1) + 1
    for name in sorted(sig.individuals):
        if not world.indiv_ext.get(name):
            elem = ClassicElement(next_id)
            next_id += 1
            world.classic.add(elem)
            world.indiv_ext[name] = {elem}


# ---------------------------------------------------------------------------
# Building


def _build_island(b: _Builder, g: DescriptionGraph,
                  plans: dict[int, NodePlan],
                  edge_plans: dict[tuple[int, str], EdgePlan]) -> dict:
    elems: dict[int, object] = {}
    for nid, node in g.nodes.items():
        elems[nid] = _build_node(b, nid, node, plans.get(nid), edge_plans)
    for e in g.a_edges:
        b.set_attr(e.attr, elems[e.src], elems[e.dst])
    for nid, plan in plans.items():
        for attr, host in plan.attr_set.items():
            b.set_attr(attr, elems[nid], b.fresh(host))
    return elems


def _minimal_host_type(node: GraphNode, lattice) -> str | None:
    """Most specific host concept among the node's atoms; the atoms form a
    chain in canonical graphs."""
    types = [a for a in node.atoms if lattice.is_type(a)]
    best = None
    for t in types:
        if best is None or lattice.leq(t, best):
            best = t
    return best


def _pick_join(node: GraphNode, plan: NodePlan | None) -> Individual | None:
    """Which individual the node's element should realize."""
    if plan and plan.dom_pick is not None:
        return plan.dom_pick
    if node.dom is None:
        return None
    avoid = plan.dom_avoid if plan else frozenset()
    for ind in sorted(node.dom, key=Individual.sort_key):
        if ind not in avoid:
            return ind
    raise CounterModelError("no admissible dom element remains")


def _build_node(b: _Builder, nid: int, node: GraphNode,
                plan: NodePlan | None, edge_plans):
    lattice = b.world.lattice
    if HOST_THING in node.atoms:
        join = _pick_join(node, plan)
        if join is not None:
            if not join.is_host:
                raise CounterModelError("classic join on a host node")
            elem = b.host_value(join)
        else:
            elem = b.fresh(True, _minimal_host_type(node, lattice))
        for atom in node.atoms:
            if is_host_test_atom(atom):
                b.add_membership(atom, elem)
        return elem

    classic = CLASSIC_THING in node.atoms
    if not classic and plan is not None and plan.host:
        return b.fresh(True)
    join = _pick_join(node, plan)
    if not classic and join is not None and join.is_host:
        return b.host_value(join)
    elem = b.fresh(False)
    for atom in node.atoms:
        if atom in BUILTIN_ATOMS or lattice.is_type(atom):
            continue
        b.add_membership(atom, elem)
    if join is not None:
        if join.is_host:
            raise CounterModelError("host join on a classic node")
        b.join_individual(join, elem)
    for e in node.r_edges:
        _build_redge(b, elem, e, edge_plans.get((nid, e.role)))
    for role, (count, host) in (plan.fresh.items() if plan else ()):
        b.reserve(count)
        for _ in range(count):
            b.add_role_pair(role, elem, b.fresh(host))
    return elem


def _build_redge(b: _Builder, parent, e, plan: EdgePlan | None) -> None:
    head = e.restriction.root_node
    fillers = sorted(e.fillers, key=Individual.sort_key)
    counter = plan.counter if plan else None
    filler_elems = []
    used: set[Individual] = set()

    if counter is not None:
        root_elem = _counter_build(b, counter)[e.restriction.root]
        filler_elems.append(root_elem)
        if root_elem in b.joins:
            used.add(b.joins[root_elem])

    needed = [f for f in fillers if f not in used]
    if plan and plan.count is not None:
        k = plan.count
    elif counter is not None:
        k = _bounded(max(e.min, len(needed) + 1), e.max)
    else:
        k = _bounded(e.min + 1, e.max)
    b.reserve(k)

    avoid = plan.dom_avoid if plan else frozenset()
    pads: list[Individual | None] = []
    if head.dom is not None:
        for ind in sorted(head.dom, key=Individual.sort_key):
            if ind not in used and ind not in avoid and ind not in needed:
                pads.append(ind)
    remaining = k - len(filler_elems)
    picks: list[Individual | None] = list(needed)
    while len(picks) < remaining:
        picks.append(pads.pop(0) if pads else None)
    if len(picks) > remaining:
        raise CounterModelError(
            "cannot cover the edge's fillers within its bounds")

    for pick in picks:
        if pick is None and head.dom is not None:
            raise CounterModelError("ran out of distinct dom elements")
        sub_plans = {}
        if pick is not None:
            sub_plans[e.restriction.root] = NodePlan(dom_pick=pick)
        sub = _build_island(b, e.restriction, sub_plans, {})
        filler_elems.append(sub[e.restriction.root])

    for elem in filler_elems:
        b.add_role_pair(e.role, parent, elem)


def _bounded(value, cap):
    """min(value, cap) as an int; an unbounded cap leaves the value."""
    return value if cap == INF else int(min(value, cap))


def _counter_build(b: _Builder, failure: Failure) -> dict:
    """Build the island of ``failure.graph``, steered by ``_plan``."""
    plans: dict[int, NodePlan] = {}
    edge_plans: dict[tuple[int, str], EdgePlan] = {}
    _plan(failure, plans, edge_plans, b.world.lattice)
    return _build_island(b, failure.graph, plans, edge_plans)


# ---------------------------------------------------------------------------
# Steering plans (mirrors the completeness argument, case by case)


def _host_confined(d: Description) -> bool:
    """Whether the description's extension is confined to the host realm:
    it names a host constructor and no classic one.  A fresh bare element
    escapes such a description in the classic realm, any other in the
    host realm."""
    host = False
    for node in walk(d):
        names_host = _NAMES_HOST.get(type(node))
        if names_host is not None:
            if not names_host(node):
                return False
            host = True
    return host


# Whether a constructor names the host realm (True) or the classic one
# (False), looked up by class; the others name neither.
_NAMES_HOST = {
    HostThing: lambda d: True,
    HostConcept: lambda d: True,
    OneOf: lambda d: d.is_host,
    ConceptName: lambda d: is_host_test_atom(d.name),
    **dict.fromkeys((*CLASSIC_ONLY, Nothing), lambda d: False),
}


def _plan(failure: Failure, plans: dict[int, NodePlan],
          edge_plans: dict[tuple[int, str], EdgePlan],
          lattice: HostLattice) -> None:
    """Steer the island of ``failure.graph`` so the element of
    ``failure.node`` escapes ``failure.clause``, which the structural test
    found not to hold there: a host node needs no steering against a
    classic-only constructor, and every other case has one rule in
    ``_STEER``."""
    d = failure.clause
    t = type(d)
    if (t in CLASSIC_ONLY
            and HOST_THING in failure.graph.nodes[failure.node].atoms):
        # These constructors confine their extension to the classic realm;
        # a host element escapes them with no steering at all.
        return
    steer = _STEER.get(t)
    if steer is None:
        raise CounterModelError("cannot steer against %r" % (d,))
    steer(failure, plans, edge_plans, lattice)


def _steer_nowhere(failure, plans, edge_plans, lattice) -> None:
    """``nothing`` is escaped by every element of a coherent graph, and
    ``host-thing`` by the classic element a node without HOST-THING is
    built as."""


def _steer_atom(failure, plans, edge_plans, lattice) -> None:
    d, nid = failure.clause, failure.node
    node = failure.graph.nodes[nid]
    if type(d) is HostConcept and HOST_THING in node.atoms:
        if node.dom is not None:
            outside = [v for v in sorted(node.dom, key=Individual.sort_key)
                       if not lattice.literal_in(v, d.name)]
            if not outside:
                raise CounterModelError(
                    "every admissible host value lies in %s; the structural "
                    "test under-approximates here" % d.name)
            plans.setdefault(nid, NodePlan()).dom_pick = outside[0]
        return
    # Fresh elements belong to no extra extensions, so the default build
    # already escapes a missing atom.


def _steer_classic_thing(failure, plans, edge_plans, lattice) -> None:
    # A host node escapes with no steering (``_plan``); any other node is
    # built as a fresh host element.
    plans.setdefault(failure.node, NodePlan()).host = True


def _steer_bound(failure, plans, edge_plans, lattice) -> None:
    """One filler below an ``at-least`` bound or one above an ``at-most``
    bound, kept within the edge's own bounds; a role with no edge gets
    that many fresh classic fillers."""
    d, nid = failure.clause, failure.node
    count = d.n - 1 if type(d) is AtLeast else d.n + 1
    e = failure.graph.role_edge(nid, d.role)
    if e is None:
        plans.setdefault(nid, NodePlan()).fresh[d.role] = (count, False)
    else:
        edge_plans[(nid, d.role)] = EdgePlan(
            count=_bounded(max(e.min, count), e.max))


def _steer_all_role(failure, plans, edge_plans, lattice) -> None:
    d, nid = failure.clause, failure.node
    if covers_everything(d.restriction):
        # The body covers everything, so the root must be non-classic.
        plans.setdefault(nid, NodePlan()).host = True
    elif failure.inner is not None:
        # The body fails in the edge's restriction graph.
        edge_plans[(nid, d.role)] = EdgePlan(counter=failure.inner)
    else:
        plans.setdefault(nid, NodePlan()).fresh[d.role] = (
            1, not _host_confined(d.restriction))


def _steer_all_attr(failure, plans, edge_plans, lattice) -> None:
    # A body failing through an edge is reported at the edge's target, so
    # the attribute has no edge here.
    d, nid = failure.clause, failure.node
    plan = plans.setdefault(nid, NodePlan())
    if covers_everything(d.restriction):
        plan.host = True
    else:
        plan.attr_set[d.attr] = not _host_confined(d.restriction)


def _steer_fills_role(failure, plans, edge_plans, lattice) -> None:
    d, nid = failure.clause, failure.node
    e = failure.graph.role_edge(nid, d.role)
    if e is not None:
        head = e.restriction.root_node
        count = e.min if head.dom is not None else max(e.min, len(e.fillers))
        edge_plans[(nid, d.role)] = EdgePlan(
            count=count, dom_avoid=frozenset({d.who}))


def _steer_fills_attr(failure, plans, edge_plans, lattice) -> None:
    d = failure.clause
    e = failure.graph.attr_edge(failure.node, d.attr)
    if e is not None:
        plans.setdefault(e.dst, NodePlan()).dom_avoid |= {d.who}


def _steer_one_of(failure, plans, edge_plans, lattice) -> None:
    if failure.graph.nodes[failure.node].dom is not None:
        plans.setdefault(failure.node, NodePlan()).dom_avoid |= frozenset(
            failure.clause.members)


def _steer_same_as(failure, plans, edge_plans, lattice) -> None:
    d, g, nid = failure.clause, failure.graph, failure.node
    l_pre, l_taken = g.follow(nid, d.left[:-1])
    r_pre, r_taken = g.follow(nid, d.right[:-1])
    if l_taken < len(d.left) - 1 or r_taken < len(d.right) - 1:
        # A prefix already breaks: its next attribute has no edge, and the
        # default world sends it to the host sink, killing the chain.
        return
    # Give each missing tail its own fresh value, or, where its prefix
    # ends at a non-classic node, make that node host, which kills the
    # chain.  Tails present end at distinct nodes (one node would have
    # passed the test), and distinct nodes get distinct elements.  At one
    # classic prefix node the two tails are distinct attributes, since a
    # shared tail there would have passed the test too.
    for pre, attr in ((l_pre, d.left[-1]), (r_pre, d.right[-1])):
        if g.attr_edge(pre, attr) is None:
            plan = plans.setdefault(pre, NodePlan())
            if CLASSIC_THING in g.nodes[pre].atoms:
                plan.attr_set[attr] = True
            else:
                plan.host = True


# How to steer against each clause the structural test rejects, looked up
# by class.
_STEER = {
    Nothing: _steer_nowhere,
    HostThing: _steer_nowhere,
    ConceptName: _steer_atom,
    HostConcept: _steer_atom,
    ClassicThing: _steer_classic_thing,
    AtLeast: _steer_bound,
    AtMost: _steer_bound,
    AllRole: _steer_all_role,
    AllAttr: _steer_all_attr,
    SameAs: _steer_same_as,
    FillsRole: _steer_fills_role,
    FillsAttr: _steer_fills_attr,
    OneOf: _steer_one_of,
}

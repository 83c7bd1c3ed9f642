"""Finite possible worlds and extension evaluation.

A world carries a finite classic realm, a finite host carrier, extensions
for atomic concepts, roles, attributes, and classic individuals, and obeys
the modified semantics for individuals: a classic individual denotes a
non-empty set of domain elements, the sets of distinct individuals never
overlap, and number restrictions count role fillers modulo the congruence
"same element, or elements of one individual".

``eval_description`` finds a constructor's case by one lookup of the
description's class in a table of leaf cases; the constructors that nest
a description (``and``, ``all``) stay inline in its recursive core, so a
nesting level costs one Python frame.  ``signature_of_description`` walks
the tree and looks each node's class up the same way.

``find_witness`` decides graph membership in one loop over an explicit
stack, reading a-edges from each graph's edge index; the index is built
on a graph's first query, raw or canonical, so a queried graph is final.

Roles and attributes are stored per classic element: a role maps each
element to its set of fillers, an attribute maps it to its value, so a
clause reads an element's fillers or value by lookup.

Host elements are concrete typed values; anonymous host elements stand in
for the infinitely many host values a real host language would provide.
Attributes are total: lookups fall back to a dedicated host "sink" element
that the constructors never use for anything meaningful.

Elements are interned: a classic element by its number, a host element by
its type, value and anonymous number.  Equal elements are one object, so
equality is identity and every set and dict of elements hashes in C,
whichever world, builder or sampler made them.

``sample_interpretation`` draws every integer from ``getrandbits`` with the
rejection loop that ``random.Random`` uses in ``choice``, ``randint`` and
``shuffle``, so a seed gives the same world as those methods would.
"""

from __future__ import annotations

import functools
import random

from .descriptions import (
    AllAttr,
    AllRole,
    And,
    AtLeast,
    AtMost,
    BUILTIN_ATOMS,
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
    literal_name,
    NOTHING,
    Nothing,
    OneOf,
    SameAs,
    THING,
    Thing,
    UNEXPANDED,
    Value,
    walk,
)
from .graph import DescriptionGraph, INF
from .kb import DEFAULT_LATTICE, HostLattice


class EvalError(Exception):
    """An atomic name or individual has no interpretation in the world."""


class ClassicElement:
    """A classic-realm element, interned by ``eid``: ``ClassicElement(i)``
    is always the same object, so equality is identity and sets and dicts
    of elements hash in C."""

    __slots__ = ("eid",)
    _interned: dict = {}

    def __new__(cls, eid: int):
        elem = cls._interned.get(eid)
        if elem is None:
            elem = object.__new__(cls)
            object.__setattr__(elem, "eid", eid)
            cls._interned[eid] = elem
        return elem

    __setattr__ = __delattr__ = Value.__setattr__
    __repr__ = Value.__repr__

    def __str__(self):
        return "c%d" % self.eid


class HostElement:
    """A host-realm element: a named literal value, or an anonymous extra
    instance of a host type (``vtype`` ``None`` means no modelled type).
    Interned by ``(vtype, value, anon_id)`` as ``ClassicElement`` is by
    ``eid``."""

    __slots__ = ("vtype", "value", "anon_id")
    _interned: dict = {}

    def __new__(cls, vtype: str | None, value: object = None,
                anon_id: int | None = None):
        key = (vtype, value, anon_id)
        elem = cls._interned.get(key)
        if elem is None:
            elem = object.__new__(cls)
            for name, v in zip(cls.__slots__, key):
                object.__setattr__(elem, name, v)
            cls._interned[key] = elem
        return elem

    __setattr__ = __delattr__ = Value.__setattr__
    __repr__ = Value.__repr__

    @property
    def is_anon(self) -> bool:
        return self.anon_id is not None

    def __str__(self):
        if self.is_anon:
            return "#%s%d" % (self.vtype or "opaque", self.anon_id)
        return literal_name(self.vtype, self.value)


def host_element_for(ind: Individual) -> HostElement:
    if not ind.is_host:
        raise ValueError("not a host value: %r" % (ind,))
    return HostElement(ind.host_type, ind.value)


Element = object  # ClassicElement | HostElement

# The host element that attribute lookups fall back to.
_SINK = HostElement(None, anon_id=-1)


class Interpretation:
    """A finite possible world."""

    __slots__ = ("classic", "hosts", "concept_ext", "role_ext", "attr_ext",
                 "indiv_ext", "lattice")
    sink = _SINK  # one for every world: elements are interned

    def __init__(self, hosts=None, lattice: HostLattice = DEFAULT_LATTICE):
        self.classic: set[ClassicElement] = set()
        self.hosts: set[HostElement] = set() if hosts is None else hosts
        self.hosts.add(self.sink)
        self.concept_ext: dict[str, set] = {}
        self.role_ext: dict[str, dict[ClassicElement, set]] = {}
        self.attr_ext: dict[str, dict] = {}
        self.indiv_ext: dict[str, set] = {}
        self.lattice = lattice

    def attr_value(self, attr: str, elem) -> Element | None:
        """The attribute's value at an element; None off the classic realm
        (attributes are functions on the classic realm only)."""
        if not isinstance(elem, ClassicElement):
            return None
        return self.attr_ext.get(attr, {}).get(elem, self.sink)

    def role_fillers(self, role: str, elem) -> set | frozenset:
        """The element's fillers for the role; none off the classic realm."""
        return self.role_ext.get(role, {}).get(elem, frozenset())

    def individual_ext(self, ind: Individual) -> set:
        if ind.is_host:
            e = host_element_for(ind)
            return {e} if e in self.hosts else set()
        if ind.name not in self.indiv_ext:
            raise EvalError("uninterpreted individual: %s" % ind.name)
        return self.indiv_ext[ind.name]

    def count_non_congruent(self, elems) -> int:
        """The number of congruence classes among distinct elements: the
        elements of one individual count once.  Individual extensions are
        disjoint and lie in the classic realm, so each individual holding
        k > 1 of the elements takes k - 1 from their number."""
        n = len(elems)
        for ext in self.indiv_ext.values():
            k = len(ext.intersection(elems))
            if k > 1:
                n -= k - 1
        return n

    def atom_ext(self, atom: str) -> set:
        if atom not in self.concept_ext:
            raise EvalError("uninterpreted atomic concept: %s" % atom)
        return self.concept_ext[atom]

    def in_atom(self, atom: str, elem) -> bool:
        if atom == THING:
            return True
        if atom == NOTHING:
            return False
        if atom == CLASSIC_THING:
            return isinstance(elem, ClassicElement)
        if atom == HOST_THING:
            return isinstance(elem, HostElement)
        if self.lattice.is_type(atom):
            return (isinstance(elem, HostElement)
                    and elem.vtype is not None
                    and self.lattice.leq(elem.vtype, atom))
        return elem in self.atom_ext(atom)

    def check(self) -> None:
        """Validate the world invariants; raises ValueError on violation."""
        if self.classic & self.hosts:
            raise ValueError("realms overlap")
        for name, ext in self.indiv_ext.items():
            if not ext:
                raise ValueError("individual %s has empty extension" % name)
            if not ext <= self.classic:
                raise ValueError("individual %s outside classic realm" % name)
        seen: set = set()
        for name in sorted(self.indiv_ext):
            ext = self.indiv_ext[name]
            if ext & seen:
                raise ValueError("individual extensions overlap at %s" % name)
            seen |= ext
        for role, table in self.role_ext.items():
            for x in table:
                if not isinstance(x, ClassicElement):
                    raise ValueError("role %s source off classic realm" % role)
        for attr, table in self.attr_ext.items():
            for x in table:
                if not isinstance(x, ClassicElement):
                    raise ValueError("attr %s source off classic realm" % attr)


# ---------------------------------------------------------------------------
# Extension evaluation


def eval_description(d: Description, world: Interpretation,
                     within: set | frozenset | None = None) -> frozenset:
    """The exact extension of an expanded description in a world; with a
    set of elements ``within``, just the part of it inside that set.

    Every case looks only at candidates in ``within``: a conjunction
    narrows the candidates conjunct by conjunct, and an ``all`` evaluates
    its body only at the role fillers or attribute values of its
    candidates.  So a membership question about one element,
    ``eval_description(d, world, {e})``, costs about the size of ``d``
    rather than ``|d|`` times the world.  A candidate's role fillers and
    attribute values are read from the world's per-element tables.
    """
    return _eval(d, world, None if within is None else frozenset(within))


def _eval(d: Description, world: Interpretation,
          within: frozenset | None) -> frozenset:
    t = type(d)
    if t is And:
        out = within
        for item in d.items:
            out = _eval(item, world, out)
        return out
    if t is AllRole:
        fillers = world.role_ext.get(d.role, {})
        classic = _part(world.classic, within)
        targets = frozenset(x for e in classic for x in fillers.get(e, ()))
        inner = _eval(d.restriction, world, targets)
        return frozenset(
            e for e in classic
            if all(x in inner for x in fillers.get(e, ())))
    if t is AllAttr:
        table = world.attr_ext.get(d.attr, {})
        value = {e: table.get(e, world.sink)
                 for e in _part(world.classic, within)}
        inner = _eval(d.restriction, world, frozenset(value.values()))
        return frozenset(e for e, v in value.items() if v in inner)
    case = _EVAL.get(t)
    if case is not None:
        return case(d, world, within)
    if t in UNEXPANDED:
        raise EvalError("description must be expanded before evaluation")
    raise TypeError("not a description: %r" % (d,))


def _part(realm: set, within: frozenset | None) -> set:
    """The elements of a realm of the world that lie in ``within``."""
    return realm if within is None else realm & within


def _eval_concept(d: ConceptName, world, within):
    ext = world.atom_ext(d.name)
    return frozenset(ext) if within is None else within & ext


def _eval_host_concept(d: HostConcept, world, within):
    return frozenset(e for e in _part(world.hosts, within)
                     if world.in_atom(d.name, e))


def _eval_same_as(d: SameAs, world, within):
    out = set()
    for e in _part(world.classic, within):
        lv = _chain_value(world, d.left, e)
        rv = _chain_value(world, d.right, e)
        if lv is not None and lv == rv:
            out.add(e)
    return frozenset(out)


def _eval_fills_attr(d: FillsAttr, world, within):
    ext = world.individual_ext(d.who)
    table = world.attr_ext.get(d.attr, {})
    return frozenset(e for e in _part(world.classic, within)
                     if table.get(e, world.sink) in ext)


def _eval_one_of(d: OneOf, world, within):
    out: set = set()
    for m in d.members:
        out |= world.individual_ext(m)
    return frozenset(out) if within is None else within & out


def _eval_bound(d: AtLeast | AtMost, world, within):
    """Either number bound, checked as ``lo <= count <= hi``."""
    lo, hi = (d.n, INF) if type(d) is AtLeast else (0, d.n)
    fillers = world.role_ext.get(d.role, {})
    return frozenset(
        e for e in _part(world.classic, within)
        if lo <= world.count_non_congruent(fillers.get(e, ())) <= hi)


def _eval_fills_role(d: FillsRole, world, within):
    ext = world.individual_ext(d.who)
    fillers = world.role_ext.get(d.role, {})
    return frozenset(
        e for e in _part(world.classic, within)
        if any(x in ext for x in fillers.get(e, ())))


# The leaf constructors' extensions, looked up by class; ``_eval`` keeps
# the constructors that nest a description.
_EVAL = {
    Thing: lambda d, world, within: frozenset(
        _part(world.classic, within) | _part(world.hosts, within)),
    ClassicThing: lambda d, world, within: frozenset(
        _part(world.classic, within)),
    HostThing: lambda d, world, within: frozenset(_part(world.hosts, within)),
    Nothing: lambda d, world, within: frozenset(),
    ConceptName: _eval_concept,
    HostConcept: _eval_host_concept,
    SameAs: _eval_same_as,
    FillsAttr: _eval_fills_attr,
    OneOf: _eval_one_of,
    AtLeast: _eval_bound,
    AtMost: _eval_bound,
    FillsRole: _eval_fills_role,
}


def _chain_value(world: Interpretation, chain, elem):
    """Value of an attribute composition; None when undefined (some prefix
    lands in the host realm, where attributes do not apply)."""
    cur = elem
    for attr in chain:
        cur = world.attr_value(attr, cur)
        if cur is None:
            return None
    return cur


def eval_graph(g: DescriptionGraph, world: Interpretation) -> frozenset:
    """The exact extension of a description graph in a world: the
    elements that have a witness (``find_witness``)."""
    if g.incoherent:
        return frozenset()
    return frozenset(e for e in world.classic | world.hosts
                     if element_in_graph(g, e, world))


def element_in_graph(g: DescriptionGraph, elem, world: Interpretation) -> bool:
    return find_witness(g, elem, world) is not None


def find_witness(g: DescriptionGraph, elem,
                 world: Interpretation) -> dict | None:
    """Node-to-element assignment witnessing that the element belongs to
    the graph's extension, or None.

    The root maps to the element; every node's image satisfies its atoms,
    bounds, and dom; every a-edge's images are related by its attribute;
    every role filler lies in its r-edge's restriction graph.  Each
    (graph, element) pair popped off the stack forces its assignment by a
    walk along a-edges from the root, is checked node by node, and pushes
    each role filler with its restriction graph.  Translated and canonical
    graphs reach every node from the root; a node not reached raises
    ``ValueError``.
    """
    witness = None
    stack = [(g, elem)]
    while stack:
        sub, top = stack.pop()
        if sub.incoherent:
            return None
        out = sub.out_edges()
        assign: dict[int, object] = {sub.root: top}
        todo = [sub.root]
        while todo:
            src = todo.pop()
            for e in out.get(src, ()):
                v = world.attr_value(e.attr, assign[src])
                if v is None:
                    return None
                if e.dst not in assign:
                    assign[e.dst] = v
                    todo.append(e.dst)
                elif assign[e.dst] != v:
                    return None
        for nid in sub.nodes:
            if nid not in assign:
                raise ValueError("graph node %d is not reachable from the "
                                 "root" % nid)
        for nid, value in assign.items():
            node = sub.nodes[nid]
            for atom in node.atoms:
                if not world.in_atom(atom, value):
                    return None
            for e in node.r_edges:
                fillers = world.role_fillers(e.role, value)
                if not e.min <= world.count_non_congruent(fillers) <= e.max:
                    return None
                if not all(world.individual_ext(f) & fillers
                           for f in e.fillers):
                    return None
                stack += [(e.restriction, x) for x in fillers]
            if node.dom is not None and not any(
                    value in world.individual_ext(f) for f in node.dom):
                return None
        # The first pair popped is the top graph's.
        witness = witness or assign
    return witness


# ---------------------------------------------------------------------------
# Signatures and random worlds


class Signature:
    """The vocabulary a world must interpret: ``individuals`` holds the
    classic names, and ``equations`` the same-as clauses as (left chain,
    right chain), which the sampler closes."""

    __slots__ = ("atoms", "roles", "attrs", "individuals", "host_values",
                 "max_number", "equations")
    def __init__(self, atoms=None, roles=None, attrs=None, individuals=None,
                 host_values=None, max_number: int = 1, equations=None):
        self.atoms: set[str] = set() if atoms is None else atoms
        self.roles: set[str] = set() if roles is None else roles
        self.attrs: set[str] = set() if attrs is None else attrs
        self.individuals = set() if individuals is None else individuals
        self.host_values = set() if host_values is None else host_values
        self.max_number = max_number
        self.equations = set() if equations is None else equations

    def merge(self, other: "Signature") -> "Signature":
        return Signature(self.atoms | other.atoms,
                         self.roles | other.roles,
                         self.attrs | other.attrs,
                         self.individuals | other.individuals,
                         self.host_values | other.host_values,
                         max(self.max_number, other.max_number),
                         self.equations | other.equations)


def _sig_add_individual(sig: Signature, ind: Individual) -> None:
    if ind.is_host:
        sig.host_values.add(ind)
    else:
        sig.individuals.add(ind.name)


def _sig_number(sig: Signature, d: AtLeast | AtMost) -> None:
    sig.roles.add(d.role)
    sig.max_number = max(sig.max_number, d.n)


def _sig_same_as(sig: Signature, d: SameAs) -> None:
    sig.attrs.update(d.left)
    sig.attrs.update(d.right)
    sig.equations.add((d.left, d.right))


def _sig_fills_role(sig: Signature, d: FillsRole) -> None:
    sig.roles.add(d.role)
    _sig_add_individual(sig, d.who)


def _sig_fills_attr(sig: Signature, d: FillsAttr) -> None:
    sig.attrs.add(d.attr)
    _sig_add_individual(sig, d.who)


def _sig_one_of(sig: Signature, d: OneOf) -> None:
    for m in d.members:
        _sig_add_individual(sig, m)


# What each constructor adds to a signature, looked up by class; the
# others add nothing.
_SIGNATURE = {
    ConceptName: lambda sig, d: sig.atoms.add(d.name),
    AllRole: lambda sig, d: sig.roles.add(d.role),
    AllAttr: lambda sig, d: sig.attrs.add(d.attr),
    AtLeast: _sig_number,
    AtMost: _sig_number,
    SameAs: _sig_same_as,
    FillsRole: _sig_fills_role,
    FillsAttr: _sig_fills_attr,
    OneOf: _sig_one_of,
}


def signature_of_description(d: Description) -> Signature:
    sig = Signature()
    for node in walk(d):
        case = _SIGNATURE.get(type(node))
        if case is not None:
            case(sig, node)
    return sig


def signature_of_graph(g: DescriptionGraph,
                       lattice: HostLattice | None = None) -> Signature:
    """The vocabulary of a graph.  ``equations`` stays empty: a graph keeps
    same-as only as shared a-edge targets, and its caller, the
    counter-model builder, builds worlds without sampling."""
    lattice = lattice or DEFAULT_LATTICE
    sig = Signature()
    for sub in g.subgraphs():
        for e in sub.a_edges:
            sig.attrs.add(e.attr)
        for node in sub.nodes.values():
            for atom in node.atoms:
                if atom not in BUILTIN_ATOMS and not lattice.is_type(atom):
                    sig.atoms.add(atom)
            if node.dom is not None:
                for f in node.dom:
                    _sig_add_individual(sig, f)
            for e in node.r_edges:
                sig.roles.add(e.role)
                if e.max != INF:
                    sig.max_number = max(sig.max_number, int(e.max))
                sig.max_number = max(sig.max_number, e.min)
                for f in e.fillers:
                    _sig_add_individual(sig, f)
    return sig


def sample_interpretation(sig: Signature, seed: int,
                          max_domain: int = 5) -> Interpretation:
    """A seeded random world interpreting the signature.

    Classic individuals get disjoint extensions of one to three elements;
    each classic element gets a random number of distinct fillers per role,
    up to one more than the signature's largest number restriction and at
    most four; attributes get random total tables (the sink fallback covers
    whatever is left implicit).  Role fillers and attribute targets are
    biased toward classic elements, so that attribute chains usually go on
    past their first step and fillers often belong to an individual; host
    targets and the sink stay in the draw.
    Each signature equation is then closed at a random subset of about
    half of the classic elements: the chains' intermediate steps are sent
    to classic elements and the right chain's last attribute is pointed at
    the left chain's value.  A later closure may overwrite an entry an
    earlier one wrote, so an equation need not hold at every element
    chosen for it.
    """
    rng = random.Random(seed)
    rand, getrandbits = rng.random, rng.getrandbits
    need = max(2, len(sig.individuals))
    width = max(need, max_domain) - need + 1
    n = need + _below(getrandbits, width, width.bit_length())

    # Carrier margin: enough spare host elements per type that no query in
    # the signature can tell the finite carrier from an infinite realm.
    hosts, host_set = _host_carrier(
        sig.max_number + len(sig.host_values) + 4)
    if sig.host_values:
        host_set = host_set | {host_element_for(i) for i in sig.host_values}
        hosts = tuple(sorted(host_set, key=str))
    world = Interpretation(hosts=set(host_set))

    # Classic elements are numbered from 0 and fresh ones continue the
    # numbering, so the realm is always the first n interned elements.
    # The pool is shuffled as ``Random.shuffle`` would shuffle it.
    pool = _interned_classic(n)
    for i in range(len(pool) - 1, 0, -1):
        j = _below(getrandbits, i + 1, (i + 1).bit_length())
        pool[i], pool[j] = pool[j], pool[i]
    for name in sorted(sig.individuals):
        size = 1 + _below(getrandbits, 3, 2)  # randint(1, 3)
        if len(pool) < size:
            pool.extend(_interned_classic(n + size)[n:])
            n += size
        world.indiv_ext[name] = {pool.pop() for _ in range(size)}
    classic = tuple(_interned_classic(n))
    world.classic = set(classic)

    everything = (*classic, *hosts)
    n_all = len(everything)
    bits, bits_all = n.bit_length(), n_all.bit_length()
    for atom in sorted(sig.atoms):
        carrier = hosts if is_host_test_atom(atom) else classic
        world.concept_ext[atom] = {e for e in carrier if rand() < 0.5}
    counts = min(sig.max_number + 1, 4) + 1
    bits_counts = counts.bit_length()
    for role in sorted(sig.roles):
        table = world.role_ext[role] = {}
        for e in classic:
            k = _below(getrandbits, counts, bits_counts)
            # Draw until k fillers are distinct; ``everything`` holds at
            # least 16 host elements, so this ends.
            fillers = table[e] = set()
            while len(fillers) < k:
                if rand() < 0.5:
                    fillers.add(classic[_below(getrandbits, n, bits)])
                else:
                    fillers.add(
                        everything[_below(getrandbits, n_all, bits_all)])
    for attr in sorted(sig.attrs):
        table = world.attr_ext[attr] = {}
        for e in classic:
            if rand() < 0.8:
                if rand() < 0.5:
                    table[e] = classic[_below(getrandbits, n, bits)]
                else:
                    table[e] = everything[_below(getrandbits, n_all,
                                                 bits_all)]
    for left, right in sorted(sig.equations):
        for e in classic:
            if rand() < 0.5:
                _close_equation(world, left, right, e, getrandbits, classic)
    return world


def _below(getrandbits, n: int, bits: int) -> int:
    """A uniform int in [0, n) drawn from ``getrandbits`` exactly as
    ``random.Random``'s ``choice``, ``randint`` and ``shuffle`` draw it
    (the rejection loop of ``Random._randbelow_with_getrandbits``), with
    ``bits``, which is ``n.bit_length()``, computed by the caller."""
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


_CLASSIC_POOL: list[ClassicElement] = []


def _interned_classic(n: int) -> list[ClassicElement]:
    """A new list of ``ClassicElement(0)`` to ``ClassicElement(n - 1)``,
    the same objects for every world; elements are immutable."""
    while len(_CLASSIC_POOL) < n:
        _CLASSIC_POOL.append(ClassicElement(len(_CLASSIC_POOL)))
    return _CLASSIC_POOL[:n]


@functools.lru_cache(maxsize=16)
def _host_carrier(margin: int) -> tuple[tuple[HostElement, ...], frozenset]:
    """The sink and ``margin`` anonymous elements of each host type, sorted
    by name and as a set.  A world's host set is a copy of the frozenset,
    which reuses the stored hashes."""
    types = ("INTEGER", "REAL", "STRING", None)
    elems = [HostElement(vtype, anon_id=i) for i, vtype in
             enumerate(t for t in types for _ in range(margin))]
    elems.append(_SINK)
    return tuple(sorted(elems, key=str)), frozenset(elems)


def _close_equation(world, left, right, elem, getrandbits, classic) -> None:
    """Make ``left`` and ``right`` reach one value from ``elem``: every
    step but the last of each chain lands on a classic element, and the
    right chain's last step is pointed at the left chain's value."""
    for chain in (left, right):
        cur = elem
        for attr in chain[:-1]:
            nxt = world.attr_value(attr, cur)
            if not isinstance(nxt, ClassicElement):
                nxt = world.attr_ext[attr][cur] = classic[_below(
                    getrandbits, len(classic), len(classic).bit_length())]
            cur = nxt
    target = _chain_value(world, left, elem)
    world.attr_ext[right[-1]][_chain_value(world, right[:-1], elem)] = target


def to_jsonable(world: Interpretation, distinguished=None) -> dict:
    """Structured dump of a world for the CLI and golden tests."""
    out = {
        "classic": [str(e) for e in sorted(world.classic,
                                           key=lambda e: e.eid)],
        "hosts": sorted(str(e) for e in world.hosts),
        "concepts": {a: sorted(str(e) for e in ext)
                     for a, ext in sorted(world.concept_ext.items())},
        "roles": {r: sorted([str(x), str(y)] for x, ys in table.items()
                            for y in ys)
                  for r, table in sorted(world.role_ext.items())},
        "attributes": {a: {str(x): str(y) for x, y in sorted(
            table.items(), key=lambda kv: kv[0].eid)}
            for a, table in sorted(world.attr_ext.items())},
        "individuals": {n: sorted(str(e) for e in ext)
                        for n, ext in sorted(world.indiv_ext.items())},
    }
    if distinguished is not None:
        out["distinguished"] = str(distinguished)
    return out

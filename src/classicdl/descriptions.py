"""Term language for CLASSIC concept descriptions.

Descriptions are immutable trees built from the CLASSIC constructor set:
conjunction, role/attribute value restrictions, number restrictions,
attribute-chain equalities, filler and enumeration constraints over
individuals, plus primitive and test concepts.  ``to_text`` renders the
ASCII surface syntax accepted by :mod:`classicdl.parsing`.
"""

from __future__ import annotations

from dataclasses import dataclass

# Built-in atoms that may appear in graph node labels.
THING = "THING"
CLASSIC_THING = "CLASSIC-THING"
HOST_THING = "HOST-THING"
NOTHING = "NOTHING"
BUILTIN_ATOMS = frozenset({THING, CLASSIC_THING, HOST_THING, NOTHING})

# Prefixes for atoms minted during expansion; '@' cannot appear in a user
# identifier, so these never collide with source-level concept names.
PRIMITIVE_ATOM_PREFIX = "@prim:"
TEST_ATOM_PREFIX = "@test:"
HOST_TEST_ATOM_PREFIX = "@test:host:"

REALM_CLASSIC = "classic"
REALM_HOST = "host"


@dataclass(frozen=True)
class Individual:
    """A classic individual name or a typed host value.

    Host values carry their host type and literal payload; ``name`` is the
    canonical source spelling (``Pat``, ``4``, ``4.5``, ``"abc"``).
    """

    name: str
    host_type: str | None = None
    value: object = None

    @property
    def is_host(self) -> bool:
        return self.host_type is not None

    def sort_key(self) -> tuple:
        return (self.host_type or "", self.name)

    def __str__(self) -> str:
        return self.name


def literal_name(host_type: str, value) -> str:
    """Canonical source spelling of a host literal."""
    if host_type == "STRING":
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return repr(value) if host_type == "REAL" else str(value)


def host_int(n: int) -> Individual:
    return Individual(literal_name("INTEGER", n), "INTEGER", n)


def host_real(x: float) -> Individual:
    x = float(x)
    return Individual(literal_name("REAL", x), "REAL", x)


def host_string(s: str) -> Individual:
    return Individual(literal_name("STRING", s), "STRING", s)


class Description:
    """Base class for description AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Thing(Description):
    pass


@dataclass(frozen=True)
class ClassicThing(Description):
    pass


@dataclass(frozen=True)
class HostThing(Description):
    pass


@dataclass(frozen=True)
class Nothing(Description):
    pass


@dataclass(frozen=True)
class ConceptName(Description):
    name: str


@dataclass(frozen=True)
class HostConcept(Description):
    name: str


@dataclass(frozen=True)
class And(Description):
    items: tuple[Description, ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("conjunction needs at least two conjuncts")


@dataclass(frozen=True)
class AllRole(Description):
    role: str
    restriction: Description


@dataclass(frozen=True)
class AllAttr(Description):
    attr: str
    restriction: Description


@dataclass(frozen=True)
class AtLeast(Description):
    n: int
    role: str

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("at-least bound must be a positive integer")


@dataclass(frozen=True)
class AtMost(Description):
    n: int
    role: str

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("at-most bound must be non-negative")


@dataclass(frozen=True)
class SameAs(Description):
    """Equality of two attribute-composition chains."""

    left: tuple[str, ...]
    right: tuple[str, ...]

    def __post_init__(self):
        if not self.left or not self.right:
            raise ValueError("same-as chains must be non-empty")


@dataclass(frozen=True)
class FillsRole(Description):
    role: str
    who: Individual


@dataclass(frozen=True)
class FillsAttr(Description):
    attr: str
    who: Individual


@dataclass(frozen=True)
class OneOf(Description):
    members: tuple[Individual, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("one-of needs at least one member")
        kinds = {m.is_host for m in self.members}
        if len(kinds) > 1:
            raise ValueError("one-of members must be all host values "
                             "or all classic individuals")

    @property
    def is_host(self) -> bool:
        return self.members[0].is_host


@dataclass(frozen=True)
class Primitive(Description):
    body: Description
    tag: str


@dataclass(frozen=True)
class Test(Description):
    func: str
    realm: str  # REALM_CLASSIC or REALM_HOST

    def __post_init__(self):
        if self.realm not in (REALM_CLASSIC, REALM_HOST):
            raise ValueError("test realm must be 'classic' or 'host'")


@dataclass(frozen=True)
class NamedRef(Description):
    name: str


def to_text(d: Description) -> str:
    """Render a description in the surface grammar."""
    if isinstance(d, Thing):
        return "thing"
    if isinstance(d, ClassicThing):
        return "classic-thing"
    if isinstance(d, HostThing):
        return "host-thing"
    if isinstance(d, Nothing):
        return "nothing"
    if isinstance(d, (ConceptName, HostConcept, NamedRef)):
        return d.name
    if isinstance(d, And):
        return "and(%s)" % ", ".join(to_text(c) for c in d.items)
    if isinstance(d, AllRole):
        return "all(%s, %s)" % (d.role, to_text(d.restriction))
    if isinstance(d, AllAttr):
        return "all(%s, %s)" % (d.attr, to_text(d.restriction))
    if isinstance(d, AtLeast):
        return "at-least(%d, %s)" % (d.n, d.role)
    if isinstance(d, AtMost):
        return "at-most(%d, %s)" % (d.n, d.role)
    if isinstance(d, SameAs):
        return "same-as((%s),(%s))" % (",".join(d.left), ",".join(d.right))
    if isinstance(d, FillsRole):
        return "fills(%s, %s)" % (d.role, d.who.name)
    if isinstance(d, FillsAttr):
        return "fills(%s, %s)" % (d.attr, d.who.name)
    if isinstance(d, OneOf):
        return "one-of(%s)" % ", ".join(m.name for m in d.members)
    if isinstance(d, Primitive):
        return "primitive(%s, %s)" % (to_text(d.body), d.tag)
    if isinstance(d, Test):
        return "test(%s, %s)" % (d.func, d.realm)
    raise TypeError("not a description: %r" % (d,))


def walk(d: Description):
    """Yield every node of the description tree, preorder.  The walk keeps
    its own stack, so any nesting depth is fine, and each node costs O(1)."""
    stack = [d]
    while stack:
        d = stack.pop()
        yield d
        if isinstance(d, And):
            stack += reversed(d.items)
        elif isinstance(d, (AllRole, AllAttr)):
            stack.append(d.restriction)
        elif isinstance(d, Primitive):
            stack.append(d.body)


def to_jsonable(d: Description) -> object:
    """AST dump used by the CLI ``parse`` subcommand."""
    if isinstance(d, Thing):
        return {"op": "thing"}
    if isinstance(d, ClassicThing):
        return {"op": "classic-thing"}
    if isinstance(d, HostThing):
        return {"op": "host-thing"}
    if isinstance(d, Nothing):
        return {"op": "nothing"}
    if isinstance(d, ConceptName):
        return {"op": "concept", "name": d.name}
    if isinstance(d, HostConcept):
        return {"op": "host-concept", "name": d.name}
    if isinstance(d, NamedRef):
        return {"op": "named", "name": d.name}
    if isinstance(d, And):
        return {"op": "and", "items": [to_jsonable(c) for c in d.items]}
    if isinstance(d, AllRole):
        return {"op": "all-role", "role": d.role,
                "restriction": to_jsonable(d.restriction)}
    if isinstance(d, AllAttr):
        return {"op": "all-attr", "attr": d.attr,
                "restriction": to_jsonable(d.restriction)}
    if isinstance(d, AtLeast):
        return {"op": "at-least", "n": d.n, "role": d.role}
    if isinstance(d, AtMost):
        return {"op": "at-most", "n": d.n, "role": d.role}
    if isinstance(d, SameAs):
        return {"op": "same-as", "left": list(d.left), "right": list(d.right)}
    if isinstance(d, FillsRole):
        return {"op": "fills-role", "role": d.role, "who": d.who.name}
    if isinstance(d, FillsAttr):
        return {"op": "fills-attr", "attr": d.attr, "who": d.who.name}
    if isinstance(d, OneOf):
        return {"op": "one-of", "members": [m.name for m in d.members]}
    if isinstance(d, Primitive):
        return {"op": "primitive", "tag": d.tag, "body": to_jsonable(d.body)}
    if isinstance(d, Test):
        return {"op": "test", "func": d.func, "realm": d.realm}
    raise TypeError("not a description: %r" % (d,))

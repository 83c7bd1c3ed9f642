"""Term language for CLASSIC concept descriptions.

Descriptions are immutable trees built from the CLASSIC constructor set:
conjunction, role/attribute value restrictions, number restrictions,
attribute-chain equalities, filler and enumeration constraints over
individuals, plus primitive and test concepts.  ``to_text`` renders the
ASCII surface syntax accepted by :mod:`classicdl.parsing`.

Translation, the structural test, the counter-model and world
evaluation read the constructor facts they must agree on from here:
``ATOM``, the atom of each atomic constructor; ``CLASSIC_ONLY``, the
constructors confined to the classic realm (CLASSIC-THING);
``UNEXPANDED``, those expansion removes; and ``is_host_test_atom``.

Every layer over descriptions finds a constructor's case by looking up
the description's class, ``type(d)``, so no constructor class may be
subclassed: a lookup would not find the subclass.

Descriptions, individuals and the other ``Value``s are equal by class and
fields, hashed and pickled by fields, shown as ``AtLeast(n=2, role='s')``
and immutable; each checks and sets its ``__slots__`` in its ``__init__``.
"""

from __future__ import annotations

from operator import attrgetter

# Built-in atoms that may appear in graph node labels.
THING = "THING"
CLASSIC_THING = "CLASSIC-THING"
HOST_THING = "HOST-THING"
NOTHING = "NOTHING"
BUILTIN_ATOMS = frozenset({THING, CLASSIC_THING, HOST_THING, NOTHING})

REALM_CLASSIC = "classic"
REALM_HOST = "host"

# Prefixes for atoms minted during expansion; '@' cannot appear in a user
# identifier, so these never collide with source-level concept names.  A
# test concept's atom is the prefix, its realm, ':' and its function.
PRIMITIVE_ATOM_PREFIX = "@prim:"
TEST_ATOM_PREFIX = "@test:"
HOST_TEST_ATOM_PREFIX = TEST_ATOM_PREFIX + REALM_HOST + ":"


def is_host_test_atom(atom: str) -> bool:
    """Whether the atom stands for a host-realm test concept."""
    return atom.startswith(HOST_TEST_ATOM_PREFIX)


_set = object.__setattr__  # sets a field past ``Value.__setattr__``


class Value:
    """Base class of the values the module docstring describes."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = attrgetter(*cls.__slots__) if cls.__slots__ else lambda v: ()

        def __eq__(self, other):
            return type(other) is cls and fields(self) == fields(other)

        cls.__eq__ = __eq__
        cls.__hash__ = lambda self: hash(fields(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__


class Individual(Value):
    """A classic individual name or a typed host value.

    Host values carry their host type and literal payload; ``name`` is the
    canonical source spelling (``Pat``, ``4``, ``4.5``, ``"abc"``).
    """

    __slots__ = ("name", "host_type", "value")
    def __init__(self, name: str, host_type: str | None = None, value=None):
        _set(self, "name", name)
        _set(self, "host_type", host_type)
        _set(self, "value", value)

    @property
    def is_host(self) -> bool:
        return self.host_type is not None

    def sort_key(self) -> tuple:
        return (self.host_type or "", self.name)

    def __str__(self) -> str:
        return self.name


def literal_name(host_type: str, value) -> str:
    """Canonical source spelling of a host literal.  A REAL is written
    ``digits.digits``, with the shortest digits that read back as the same
    float, which ``repr`` gives in exponent form below 1e-4 and from 1e16
    on."""
    if host_type == "STRING":
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if host_type != "REAL":
        return str(value)
    mantissa, _, exp = repr(value).partition("e")
    if not exp:
        return mantissa
    whole, _, frac = mantissa.partition(".")
    point = len(whole) + int(exp)
    if point <= 0:
        return "0." + "0" * -point + whole + frac
    return whole + frac + "0" * (point - len(whole + frac)) + ".0"


def host_int(n: int) -> Individual:
    return Individual(literal_name("INTEGER", n), "INTEGER", n)


def host_real(x: float) -> Individual:
    x = float(x)
    return Individual(literal_name("REAL", x), "REAL", x)


def host_string(s: str) -> Individual:
    return Individual(literal_name("STRING", s), "STRING", s)


class Description(Value):
    """Base class for description AST nodes."""

    __slots__ = ()


class Thing(Description):
    __slots__ = ()


class ClassicThing(Description):
    __slots__ = ()


class HostThing(Description):
    __slots__ = ()


class Nothing(Description):
    __slots__ = ()


class ConceptName(Description):
    __slots__ = ("name",)
    def __init__(self, name: str):
        _set(self, "name", name)


class HostConcept(Description):
    __slots__ = ("name",)
    __init__ = ConceptName.__init__


class And(Description):
    __slots__ = ("items",)
    def __init__(self, items: tuple[Description, ...]):
        if len(items) < 2:
            raise ValueError("conjunction needs at least two conjuncts")
        _set(self, "items", items)


class AllRole(Description):
    __slots__ = ("role", "restriction")
    def __init__(self, role: str, restriction: Description):
        _set(self, "role", role)
        _set(self, "restriction", restriction)


class AllAttr(Description):
    __slots__ = ("attr", "restriction")
    def __init__(self, attr: str, restriction: Description):
        _set(self, "attr", attr)
        _set(self, "restriction", restriction)


class AtLeast(Description):
    __slots__ = ("n", "role")
    def __init__(self, n: int, role: str):
        if n < 1:
            raise ValueError("at-least bound must be a positive integer")
        _set(self, "n", n)
        _set(self, "role", role)


class AtMost(Description):
    __slots__ = ("n", "role")
    def __init__(self, n: int, role: str):
        if n < 0:
            raise ValueError("at-most bound must be non-negative")
        _set(self, "n", n)
        _set(self, "role", role)


class SameAs(Description):
    """Equality of two attribute-composition chains."""

    __slots__ = ("left", "right")
    def __init__(self, left: tuple[str, ...], right: tuple[str, ...]):
        if not left or not right:
            raise ValueError("same-as chains must be non-empty")
        _set(self, "left", left)
        _set(self, "right", right)


class FillsRole(Description):
    __slots__ = ("role", "who")
    def __init__(self, role: str, who: Individual):
        _set(self, "role", role)
        _set(self, "who", who)


class FillsAttr(Description):
    __slots__ = ("attr", "who")
    def __init__(self, attr: str, who: Individual):
        _set(self, "attr", attr)
        _set(self, "who", who)


class OneOf(Description):
    __slots__ = ("members",)
    def __init__(self, members: tuple[Individual, ...]):
        if not members:
            raise ValueError("one-of needs at least one member")
        if len({m.is_host for m in members}) > 1:
            raise ValueError("one-of members must be all host values "
                             "or all classic individuals")
        _set(self, "members", members)

    @property
    def is_host(self) -> bool:
        return self.members[0].is_host


class Primitive(Description):
    __slots__ = ("body", "tag")
    def __init__(self, body: Description, tag: str):
        _set(self, "body", body)
        _set(self, "tag", tag)


class Test(Description):
    __slots__ = ("func", "realm")
    def __init__(self, func: str, realm: str):
        if realm not in (REALM_CLASSIC, REALM_HOST):
            raise ValueError("test realm must be 'classic' or 'host'")
        _set(self, "func", func)
        _set(self, "realm", realm)


class NamedRef(Description):
    __slots__ = ("name",)
    __init__ = ConceptName.__init__


# The shared constructor facts (see the module docstring).
ATOM = {
    Thing: lambda d: THING,
    ConceptName: attrgetter("name"),
    HostConcept: attrgetter("name"),
    ClassicThing: lambda d: CLASSIC_THING,
    HostThing: lambda d: HOST_THING,
    Nothing: lambda d: NOTHING,
}
CLASSIC_ONLY = frozenset({ClassicThing, AllRole, AllAttr, AtLeast, AtMost,
                          SameAs, FillsRole, FillsAttr})
UNEXPANDED = frozenset({NamedRef, Primitive, Test})

# The leaf constructors' surface text and AST dump, looked up by class.
# The constructors that nest a description (``and``, ``all``,
# ``primitive``) are handled in the functions below.
_TEXT = {
    Thing: lambda d: "thing",
    ClassicThing: lambda d: "classic-thing",
    HostThing: lambda d: "host-thing",
    Nothing: lambda d: "nothing",
    ConceptName: lambda d: d.name,
    HostConcept: lambda d: d.name,
    NamedRef: lambda d: d.name,
    AtLeast: lambda d: "at-least(%d, %s)" % (d.n, d.role),
    AtMost: lambda d: "at-most(%d, %s)" % (d.n, d.role),
    SameAs: lambda d: "same-as((%s),(%s))" % (",".join(d.left),
                                              ",".join(d.right)),
    FillsRole: lambda d: "fills(%s, %s)" % (d.role, d.who.name),
    FillsAttr: lambda d: "fills(%s, %s)" % (d.attr, d.who.name),
    OneOf: lambda d: "one-of(%s)" % ", ".join(m.name for m in d.members),
    Test: lambda d: "test(%s, %s)" % (d.func, d.realm),
}

_JSONABLE = {
    Thing: lambda d: {"op": "thing"},
    ClassicThing: lambda d: {"op": "classic-thing"},
    HostThing: lambda d: {"op": "host-thing"},
    Nothing: lambda d: {"op": "nothing"},
    ConceptName: lambda d: {"op": "concept", "name": d.name},
    HostConcept: lambda d: {"op": "host-concept", "name": d.name},
    NamedRef: lambda d: {"op": "named", "name": d.name},
    AtLeast: lambda d: {"op": "at-least", "n": d.n, "role": d.role},
    AtMost: lambda d: {"op": "at-most", "n": d.n, "role": d.role},
    SameAs: lambda d: {"op": "same-as", "left": list(d.left),
                       "right": list(d.right)},
    FillsRole: lambda d: {"op": "fills-role", "role": d.role,
                          "who": d.who.name},
    FillsAttr: lambda d: {"op": "fills-attr", "attr": d.attr,
                          "who": d.who.name},
    OneOf: lambda d: {"op": "one-of", "members": [m.name for m in d.members]},
    Test: lambda d: {"op": "test", "func": d.func, "realm": d.realm},
}


def to_text(d: Description) -> str:
    """Render a description in the surface grammar."""
    t = type(d)
    if t is And:
        return "and(%s)" % ", ".join(to_text(c) for c in d.items)
    if t is AllRole:
        return "all(%s, %s)" % (d.role, to_text(d.restriction))
    if t is AllAttr:
        return "all(%s, %s)" % (d.attr, to_text(d.restriction))
    if t is Primitive:
        return "primitive(%s, %s)" % (to_text(d.body), d.tag)
    case = _TEXT.get(t)
    if case is None:
        raise TypeError("not a description: %r" % (d,))
    return case(d)


def walk(d: Description):
    """Yield every node of the description tree, preorder.  The walk keeps
    its own stack, so any nesting depth is fine, and each node costs O(1)."""
    stack = [d]
    while stack:
        d = stack.pop()
        yield d
        t = type(d)
        if t is And:
            stack += reversed(d.items)
        elif t is AllRole or t is AllAttr:
            stack.append(d.restriction)
        elif t is Primitive:
            stack.append(d.body)


def to_jsonable(d: Description) -> object:
    """AST dump used by the CLI ``parse`` subcommand."""
    t = type(d)
    if t is And:
        return {"op": "and", "items": [to_jsonable(c) for c in d.items]}
    if t is AllRole:
        return {"op": "all-role", "role": d.role,
                "restriction": to_jsonable(d.restriction)}
    if t is AllAttr:
        return {"op": "all-attr", "attr": d.attr,
                "restriction": to_jsonable(d.restriction)}
    if t is Primitive:
        return {"op": "primitive", "tag": d.tag, "body": to_jsonable(d.body)}
    case = _JSONABLE.get(t)
    if case is None:
        raise TypeError("not a description: %r" % (d,))
    return case(d)

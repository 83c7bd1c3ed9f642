"""Tokenizer and recursive-descent parsers for descriptions and KB files.

The description grammar is a prefix/functional ASCII notation::

    desc  := name | "thing" | "classic-thing" | "host-thing" | "nothing"
           | "and(" desc ("," desc)+ ")" | "all(" pname "," desc ")"
           | "at-least(" int "," rname ")" | "at-most(" int "," rname ")"
           | "same-as((" aname ("," aname)* "),(" aname ("," aname)* "))"
           | "fills(" pname "," indiv ")" | "one-of(" indiv ("," indiv)* ")"
           | "primitive(" desc "," name ")"
           | "test(" name "," ("classic"|"host") ")"
    indiv := identifier | int | decimal | string-literal

KB files are line-oriented: ``role NAME``, ``attribute NAME``,
``individual NAME``, ``host-type NAME [subtype-of NAME]``,
``concept NAME := DESC``, ``disjoint ATOM ATOM ...``; ``#`` starts a
comment.  Concept bodies may reference concepts declared on any line;
host-type parents must be declared first.  A disjoint group names, once
each, only atoms that no line declares and that are not host types.

:func:`tokenize` is the one lexical pass: one ``findall`` yields the
tokens as plain strings, whose kind is their first character, and the
names inside same-as chains are collected from them.  Offsets are computed
only for an error.  ``parse_description`` lexes its text once and
``parse_kb`` each line once; a concept body is parsed from its line's
tokens, so its error offsets count from the start of the line like every
other KB error.  A two-entry memo on ``tokenize`` makes
``infer_attr_names(d, c)`` followed by ``parse_description`` of each lex
each distinct text once.

With a knowledge base in hand the parser is strict: every role, attribute,
and individual must be declared, in KB files and in descriptions parsed
against one.  Without one it infers — names used in same-as chains are
attributes, other role-or-attribute positions default to roles, and bare
names in individual positions are classic individuals.
"""

from __future__ import annotations

import functools
import re

from .descriptions import (
    AllAttr,
    AllRole,
    And,
    AtLeast,
    AtMost,
    BUILTIN_ATOMS,
    ClassicThing,
    ConceptName,
    Description,
    FillsAttr,
    FillsRole,
    HostConcept,
    HostThing,
    Individual,
    NamedRef,
    Nothing,
    OneOf,
    Primitive,
    REALM_CLASSIC,
    REALM_HOST,
    SameAs,
    Test,
    Thing,
    host_int,
    host_real,
    host_string,
    walk,
)
from .kb import DEFAULT_LATTICE, KbError, KnowledgeBase, _definition_order


class ParseError(Exception):
    """Syntax or name-resolution error with a source position."""

    def __init__(self, message: str, pos: int, line: int | None = None):
        self.message = message
        self.pos = pos
        self.line = line
        where = ("line %d, " % line if line is not None else "") + \
            "offset %d" % pos
        super().__init__("%s (%s)" % (message, where))


# One token: an identifier, a parenthesis or comma, a number, a string
# literal, ``:=`` or a comment.  A token's kind is its first character.
_TOKEN = (r"""[A-Za-z_][A-Za-z0-9_!?-]*|[(),]|\d+\.\d+|\d+|"""
          r""""(?:[^"\\]|\\.)*"|:=|#[^\n]*""")
# ``findall`` yields the tokens of a text without bad characters.
_TOKEN_RE = re.compile(r"\s*(%s)" % _TOKEN, re.DOTALL)
# The longest prefix of a text that is a run of tokens and whitespace: it
# ends at the first character that starts no token.
_TEXT_RE = re.compile(r"(?:[\s(),]+|%s)*" % _TOKEN, re.DOTALL)
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_"
                        "abcdefghijklmnopqrstuvwxyz")

# Per name position: the token expected, the noun for an unknown name, and
# the message for a name declared as another kind.
_REFS = {
    ("role", "attribute"): (
        "a role or attribute name", "role or attribute",
        "%s is declared as a %s, not a role or attribute"),
    ("role",): ("a role name", "role", "number restrictions take a role; "
                "%s is declared as a %s"),
    ("attribute",): ("an attribute name", "attribute", "same-as chains "
                     "contain attributes only; %s is declared as a %s"),
}
_CONSTANTS = {"thing": Thing, "classic-thing": ClassicThing,
              "host-thing": HostThing, "nothing": Nothing}
KEYWORDS = frozenset({"and", "all", "at-least", "at-most", "same-as",
                      "fills", "one-of", "primitive", "test", *_CONSTANTS})


def _is_name(token: str) -> bool:
    return token[:1] in _NAME_START


@functools.lru_cache(maxsize=2)
def tokenize(text: str, line: int | None = None
             ) -> tuple[tuple[str, ...], frozenset[str]]:
    """The token strings of ``text``, without comments and ending with an
    empty string, and the names inside its same-as chains: identifiers two
    or more parentheses deep after a ``same-as``, up to the parenthesis
    that closes it.  Both are immutable, as the memo shares them; errors
    carry each call's line.  A token's offset is computed only for an
    error message (:func:`_offsets`)."""
    end = _TEXT_RE.match(text).end()
    if end < len(text):
        raise ParseError("unexpected character %r" % text[end], end, line)
    # Trailing whitespace would be searched again from each of its offsets.
    tokens = _TOKEN_RE.findall(text, 0, len(text.rstrip()))
    if "#" in text:
        tokens = [tok for tok in tokens if tok[0] != "#"]
    tokens = (*tokens, "")
    return tokens, _chain_names(tokens) if "same-as" in text else frozenset()


def _chain_names(tokens: tuple[str, ...]) -> frozenset[str]:
    names = set()
    i = 0
    try:
        while True:
            i = tokens.index("same-as", i) + 1
            depth = 0
            for i in range(i, len(tokens)):
                tok = tokens[i]
                if tok == "(":
                    depth += 1
                elif tok == ")":
                    depth -= 1
                    if depth <= 0:
                        break
                elif depth >= 2:
                    names.add(tok)
    except ValueError:  # no further same-as
        return frozenset(filter(_is_name, names))


def _offsets(text: str) -> list[int]:
    """The offset of each token of ``tokenize(text)``, the end included."""
    matches = _TOKEN_RE.finditer(text, 0, len(text.rstrip()))
    return [m.start(1) for m in matches if m.group(1)[0] != "#"] + [len(text)]


def _unquote(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text[1:-1], flags=re.DOTALL)


class _DescriptionParser:
    """Recursive descent over the token strings of ``text`` from token
    ``start``; ``self.i`` is the index of the next token."""

    def __init__(self, tokens: tuple[str, ...], kb: KnowledgeBase | None,
                 inferred_attrs: set[str], text: str,
                 line: int | None = None, start: int = 0):
        self.tokens = tokens
        self.kb = kb
        self.inferred_attrs = inferred_attrs
        self.text = text
        self.line = line
        self.i = start

    def fail(self, message: str, i: int | None = None):
        """Raise at token ``i``, by default the next one."""
        i = self.i if i is None else i
        raise ParseError(message, _offsets(self.text)[i], self.line)

    def expected(self, what: str, i: int | None = None):
        i = self.i if i is None else i
        self.fail("expected %s, found %r"
                  % (what, self.tokens[i] or "end of input"), i)

    def name(self, what: str) -> str:
        """Take the next token, which must be an identifier."""
        name = self.tokens[self.i]
        if not _is_name(name):
            self.expected(what)
        self.i += 1
        return name

    def whole(self) -> Description:
        """A description that runs to the end of the tokens."""
        d = self.description()
        if self.tokens[self.i]:
            self.fail("unexpected trailing input %r" % self.tokens[self.i])
        return d

    # -- name classification --

    def kind_of(self, name: str) -> str | None:
        if self.kb is not None:
            return self.kb.kind_of(name)
        if name in self.inferred_attrs:
            return "attribute"
        return None

    def ref(self, kinds: tuple[str, ...]) -> tuple[str, str]:
        """Take the next token as the name of one of ``kinds`` and return
        it with its kind; without a knowledge base an unknown name is a
        ``kinds[0]``."""
        name = self.tokens[self.i]
        if not _is_name(name):
            self.expected(_REFS[kinds][0])
        kind = self.kind_of(name)
        if kind not in kinds:
            _, noun, misuse = _REFS[kinds]
            if kind is not None:
                self.fail(misuse % (name, kind))
            if self.kb is not None:
                self.fail("unknown %s: %s" % (noun, name))
            kind = kinds[0]
        self.i += 1
        return name, kind

    def individual(self) -> Individual:
        tok = self.tokens[self.i]
        first = tok[:1]
        if first.isdecimal():
            ind = host_int(int(tok)) if tok.isdecimal() else \
                host_real(float(tok))
        elif first == '"':
            ind = host_string(_unquote(tok))
        elif not _is_name(tok):
            self.fail("expected an individual")
        elif self.kb is None:
            ind = Individual(tok)
        elif tok in self.kb.individuals:
            ind = self.kb.individuals[tok]
        else:
            kind = self.kb.kind_of(tok)
            self.fail("%s is declared as a %s, not an individual" % (tok, kind)
                      if kind else "unknown individual: %s" % tok)
        self.i += 1
        return ind

    # -- grammar --

    def description(self) -> Description:
        i = self.i
        name = self.tokens[i]
        if name in _CONSTANTS:
            self.i = i + 1
            return _CONSTANTS[name]()
        if name in KEYWORDS:
            return self.compound(name)
        if not _is_name(name):
            self.fail("expected a description")
        self.i = i + 1
        # Graph node labels are reserved so user atoms never collide with
        # them.
        if name in BUILTIN_ATOMS:
            self.fail("%s is reserved; use the lowercase keyword" % name, i)
        if self.kb is not None:
            kind = self.kb.kind_of(name)
            if kind == "concept":
                return NamedRef(name)
            if kind == "host-type":
                return HostConcept(name)
            if kind is not None:
                self.fail("%s is declared as a %s, not a concept"
                          % (name, kind), i)
        elif DEFAULT_LATTICE.is_type(name):
            return HostConcept(name)
        return ConceptName(name)

    def compound(self, head: str) -> Description:
        """The constructor ``head`` at the next token, through its closing
        parenthesis: ``(``, ``,`` and ``)`` are checked in place."""
        tokens = self.tokens
        self.i += 1
        if tokens[self.i] != "(":
            self.expected("'('")
        self.i += 1
        if head == "and":
            items = [self.description()]
            while tokens[self.i] == ",":
                self.i += 1
                items.append(self.description())
            if len(items) < 2:
                self.fail("and(...) needs at least two conjuncts")
            d = And(tuple(items))
        elif head in ("all", "fills"):
            name, kind = self.ref(("role", "attribute"))
            if tokens[self.i] != ",":
                self.expected("','")
            self.i += 1
            attr = kind == "attribute"
            if head == "all":
                d = (AllAttr if attr else AllRole)(name, self.description())
            else:
                d = (FillsAttr if attr else FillsRole)(name, self.individual())
        elif head in ("at-least", "at-most"):
            at = self.i
            if not tokens[at].isdecimal():
                self.expected("an integer")
            if tokens[at + 1] != ",":
                self.expected("','", at + 1)
            self.i = at + 2
            n, role = int(tokens[at]), self.ref(("role",))[0]
            if head == "at-most":
                d = AtMost(n, role)
            elif n > 0:
                d = AtLeast(n, role)
            elif tokens[self.i] != ")":
                self.expected("')'")
            else:
                self.fail("at-least bound must be positive", at)
        elif head == "same-as":
            left = self.attr_chain()
            if tokens[self.i] != ",":
                self.expected("','")
            self.i += 1
            d = SameAs(left, self.attr_chain())
        elif head == "one-of":
            members = [self.individual()]
            while tokens[self.i] == ",":
                self.i += 1
                members.append(self.individual())
            if tokens[self.i] != ")":
                self.expected("')'")
            if len({m.is_host for m in members}) > 1:
                self.fail("one-of members must be all host values or all "
                          "classic individuals")
            d = OneOf(tuple(members))
        elif head == "primitive":
            body = self.description()
            if tokens[self.i] != ",":
                self.expected("','")
            self.i += 1
            d = Primitive(body, self.name("a primitive tag"))
        else:  # test
            func = self.name("a function name")
            if tokens[self.i] != ",":
                self.expected("','")
            self.i += 1
            realm = self.name("'classic' or 'host'")
            if realm not in (REALM_CLASSIC, REALM_HOST):
                self.fail("test realm must be 'classic' or 'host'",
                          self.i - 1)
            d = Test(func, realm)
        if tokens[self.i] != ")":
            self.expected("')'")
        self.i += 1
        return d

    def attr_chain(self) -> tuple[str, ...]:
        tokens = self.tokens
        if tokens[self.i] != "(":
            self.expected("'('")
        self.i += 1
        names = [self.ref(("attribute",))[0]]
        while tokens[self.i] == ",":
            self.i += 1
            names.append(self.ref(("attribute",))[0])
        if tokens[self.i] != ")":
            self.expected("')'")
        self.i += 1
        return tuple(names)


def parse_description(text: str, kb: KnowledgeBase | None = None,
                      inferred_attrs: set[str] | None = None) -> Description:
    """Parse one description.  With a knowledge base every name must be
    declared.  Without one, ``inferred_attrs`` are the attribute names
    (the CLI pools them across two descriptions to keep them consistent
    with each other); by default they are the text's same-as names."""
    tokens, chain_names = tokenize(text)
    if inferred_attrs is None:
        inferred_attrs = chain_names
    return _DescriptionParser(tokens, kb, inferred_attrs, text).whole()


def infer_attr_names(*texts: str) -> set[str]:
    """The same-as names of all ``texts``, pooled."""
    return set().union(*(tokenize(text)[1] for text in texts))


def _line_error(message: str, raw: str, k: int, lineno: int) -> ParseError:
    """An error at token ``k`` of the KB line ``raw``."""
    return ParseError(message, _offsets(raw)[k], lineno)


def parse_kb(text: str) -> KnowledgeBase:
    """Parse a line-oriented knowledge-base file."""
    kb = KnowledgeBase.empty()
    declared: dict[str, int] = {}
    concept_bodies: list[tuple[str, tuple[str, ...], str, int]] = []
    disjoint_names: list[tuple[str, int, str, int]] = []

    def declare(name: str, raw: str, lineno: int):
        """Declare ``name``, token 1 of the line ``raw``."""
        if name in BUILTIN_ATOMS:
            raise _line_error("%s is reserved" % name, raw, 1, lineno)
        if name in declared:
            raise _line_error("%s already declared on line %d"
                              % (name, declared[name]), raw, 1, lineno)
        if kb.lattice.is_type(name):
            raise _line_error("%s is a built-in host type" % name, raw, 1,
                              lineno)
        declared[name] = lineno

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = tokenize(raw, lineno)[0]
        word = tokens[0]
        if not word:
            continue
        if not _is_name(word):
            raise _line_error("expected a declaration", raw, 0, lineno)
        if word in ("role", "attribute", "individual"):
            if not _is_name(tokens[1]) or tokens[2]:
                raise _line_error("expected: %s NAME" % word, raw, 1, lineno)
            name = tokens[1]
            declare(name, raw, lineno)
            if word == "role":
                kb.roles.add(name)
            elif word == "attribute":
                kb.attributes.add(name)
            else:
                kb.individuals[name] = Individual(name)
        elif word == "host-type":
            if not _is_name(tokens[1]):
                raise _line_error("expected: host-type NAME [subtype-of NAME]",
                                  raw, 1, lineno)
            name = tokens[1]
            parent = None
            if tokens[2] == "subtype-of":
                if not _is_name(tokens[3]) or tokens[4]:
                    raise _line_error("expected a parent type name", raw, 3,
                                      lineno)
                parent = tokens[3]
            elif tokens[2]:
                raise _line_error("expected: host-type NAME [subtype-of NAME]",
                                  raw, 2, lineno)
            declare(name, raw, lineno)
            try:
                kb.lattice.add_type(name, parent)
            except KbError as exc:
                # ``declare`` rejected a repeated name, so what failed is
                # the parent, token 3.
                raise _line_error(str(exc), raw, 3, lineno) from exc
        elif word == "concept":
            if not _is_name(tokens[1]) or tokens[2] != ":=":
                raise _line_error("expected: concept NAME := DESCRIPTION",
                                  raw, 1, lineno)
            name = tokens[1]
            declare(name, raw, lineno)
            concept_bodies.append((name, tokens, raw, lineno))
            kb.named[name] = Thing()  # placeholder until the second pass
        elif word == "disjoint":
            names = set()
            for k in range(1, len(tokens) - 1):
                name = tokens[k]
                if not _is_name(name):
                    raise _line_error("expected concept names", raw, k, lineno)
                if name in BUILTIN_ATOMS:
                    raise _line_error("%s is reserved" % name, raw, k, lineno)
                if name in names:
                    raise _line_error("disjoint names %s twice" % name, raw, k,
                                      lineno)
                names.add(name)
                disjoint_names.append((name, k, raw, lineno))
            if len(names) < 2:
                raise _line_error("disjoint needs at least two names", raw, 0,
                                  lineno)
            kb.disjoint_groups.append(frozenset(names))
        else:
            raise _line_error("unknown declaration %r" % word, raw, 0, lineno)

    # Only undeclared atoms can be disjoint.  Expansion replaces a concept
    # name by its definition and roles, attributes and individuals never
    # stand as atoms, so a group naming one never fires; the type lattice
    # alone decides which host types are disjoint.
    for name, k, raw, lineno in disjoint_names:
        kind = kb.kind_of(name)
        if kind is not None:
            raise _line_error("disjoint names the %s %s; only undeclared "
                              "atoms can be disjoint" % (kind, name), raw, k,
                              lineno)

    # Second pass: concept bodies, after ``concept NAME :=``, may reference
    # any declared concept.
    for name, tokens, raw, lineno in concept_bodies:
        kb.named[name] = _DescriptionParser(tokens, kb, set(), raw, lineno,
                                            3).whole()

    _definition_order({name: {d.name for d in walk(body)
                              if isinstance(d, NamedRef)}
                       for name, body in kb.named.items()})
    return kb

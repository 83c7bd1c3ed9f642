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
host-type parents must be declared first.  A disjoint group names only
atoms that no line declares and that are not host types.

:func:`tokenize` is the one lexical pass; it also collects the names
inside same-as chains.  Tokens are plain ``(kind, text, pos)`` tuples.
``parse_description`` lexes its text once and ``parse_kb`` each line once;
a concept body is parsed from its line's tokens, so its error offsets
count from the start of the line like every other KB error.  A two-entry
memo on ``tokenize`` makes ``infer_attr_names(d, c)`` followed by
``parse_description`` of each lex each distinct text once.

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
from .kb import KbError, KnowledgeBase, _definition_order


class ParseError(Exception):
    """Syntax or name-resolution error with a source position."""

    def __init__(self, message: str, pos: int, line: int | None = None):
        self.message = message
        self.pos = pos
        self.line = line
        where = ("line %d, " % line if line is not None else "") + \
            "offset %d" % pos
        super().__init__("%s (%s)" % (message, where))


# Whitespace and comments are skipped before each token; the most frequent
# kinds come first.  ``eof`` matches at the end of the text and ``bad`` at
# any other character, so the matches cover the text without gaps.
_TOKEN_RE = re.compile(r"""
    \s*(?:\#[^\n]*\s*)*
    (?:
        (?P<ident>[A-Za-z_][A-Za-z0-9_!?-]*)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<decimal>\d+\.\d+)
      | (?P<int>\d+)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<assign>:=)
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
""", re.VERBOSE | re.DOTALL)

KEYWORDS = frozenset({
    "and", "all", "at-least", "at-most", "same-as", "fills", "one-of",
    "primitive", "test", "thing", "classic-thing", "host-thing", "nothing",
})

# Graph node labels are reserved so user atoms never collide with them.
_RESERVED_ATOMS = frozenset({"THING", "CLASSIC-THING", "HOST-THING",
                             "NOTHING"})


@functools.lru_cache(maxsize=2)
def tokenize(text: str, line: int | None = None
             ) -> tuple[tuple[tuple[str, str, int], ...], frozenset[str]]:
    """The tokens of ``text``, ending with an ``eof`` token, and the names
    inside its same-as chains: identifiers two or more parentheses deep
    after a ``same-as``, up to the parenthesis that closes it.  Both are
    immutable, as the memo shares them; errors carry each call's line."""
    tokens = []
    chain_names = set()
    depth = None  # parenthesis depth inside the open same-as, if any
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "eof":
            break
        value = m.group(kind)
        pos = m.start(kind)
        if kind == "bad":
            raise ParseError("unexpected character %r" % value, pos, line)
        tokens.append((kind, value, pos))
        if depth is not None:
            if kind == "lparen":
                depth += 1
            elif kind == "rparen":
                depth -= 1
                if depth <= 0:
                    depth = None
            elif kind == "ident" and depth >= 2:
                chain_names.add(value)
        elif kind == "ident" and value == "same-as":
            depth = 0
    tokens.append(("eof", "", len(text)))
    return tuple(tokens), frozenset(chain_names)


def _unquote(text: str) -> str:
    out = []
    i = 1
    while i < len(text) - 1:
        c = text[i]
        if c == "\\":
            i += 1
            c = text[i]
        out.append(c)
        i += 1
    return "".join(out)


class _DescriptionParser:
    def __init__(self, tokens: tuple, kb: KnowledgeBase | None,
                 inferred_attrs: set[str], line: int | None = None):
        self.tokens = tokens
        self.kb = kb
        self.line = line
        self.pos = 0
        self.inferred_attrs = inferred_attrs

    # -- token plumbing --

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def take(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple:
        tok = self.peek()
        if tok[0] != kind:
            self.fail("expected %s, found %r" % (what, tok[1] or "end of input"),
                      tok)
        return self.take()

    def fail(self, message: str, tok: tuple | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], self.line)

    def whole(self) -> Description:
        """A description that runs to the end of the tokens."""
        d = self.description()
        tok = self.peek()
        if tok[0] != "eof":
            self.fail("unexpected trailing input %r" % tok[1], tok)
        return d

    # -- name classification --

    def kind_of(self, name: str) -> str | None:
        if self.kb is not None:
            return self.kb.kind_of(name)
        if name in self.inferred_attrs:
            return "attribute"
        return None

    def pname(self, what: str = "role or attribute") -> tuple[str, str]:
        tok = self.expect("ident", "a %s name" % what)
        name = tok[1]
        kind = self.kind_of(name)
        if kind in ("role", "attribute"):
            return name, kind
        if kind is not None:
            self.fail("%s is declared as a %s, not a role or attribute"
                      % (name, kind), tok)
        if self.kb is not None:
            self.fail("unknown role or attribute: %s" % name, tok)
        return name, "role"

    def rname(self) -> str:
        tok = self.expect("ident", "a role name")
        name = tok[1]
        kind = self.kind_of(name)
        if kind == "role":
            return name
        if kind is not None:
            self.fail("number restrictions take a role; %s is declared as "
                      "a %s" % (name, kind), tok)
        if self.kb is not None:
            self.fail("unknown role: %s" % name, tok)
        return name

    def aname(self) -> str:
        tok = self.expect("ident", "an attribute name")
        name = tok[1]
        kind = self.kind_of(name)
        if kind == "attribute":
            return name
        if kind is not None:
            self.fail("same-as chains contain attributes only; %s is "
                      "declared as a %s" % (name, kind), tok)
        if self.kb is not None:
            self.fail("unknown attribute: %s" % name, tok)
        return name

    def individual(self) -> Individual:
        tok = self.take()
        lexeme, text, _ = tok
        if lexeme == "int":
            return host_int(int(text))
        if lexeme == "decimal":
            return host_real(float(text))
        if lexeme == "string":
            return host_string(_unquote(text))
        if lexeme == "ident":
            if self.kb is not None:
                if text in self.kb.individuals:
                    return self.kb.individuals[text]
                kind = self.kb.kind_of(text)
                if kind is not None:
                    self.fail("%s is declared as a %s, not an individual"
                              % (text, kind), tok)
                self.fail("unknown individual: %s" % text, tok)
            return Individual(text)
        self.fail("expected an individual", tok)

    # -- grammar --

    def description(self) -> Description:
        tok = self.peek()
        if tok[0] != "ident":
            self.fail("expected a description", tok)
        name = tok[1]
        if name == "thing":
            self.take()
            return Thing()
        if name == "classic-thing":
            self.take()
            return ClassicThing()
        if name == "host-thing":
            self.take()
            return HostThing()
        if name == "nothing":
            self.take()
            return Nothing()
        if name in KEYWORDS:
            return self.compound(name)
        self.take()
        if name in _RESERVED_ATOMS:
            self.fail("%s is reserved; use the lowercase keyword" % name, tok)
        if self.kb is not None:
            kind = self.kb.kind_of(name)
            if kind == "concept":
                return NamedRef(name)
            if kind == "host-type":
                return HostConcept(name)
            if kind is not None:
                self.fail("%s is declared as a %s, not a concept"
                          % (name, kind), tok)
        elif name in ("STRING", "NUMBER", "COMPLEX", "REAL", "INTEGER"):
            return HostConcept(name)
        return ConceptName(name)

    def compound(self, head: str) -> Description:
        self.take()
        self.expect("lparen", "'('")
        if head == "and":
            items = [self.description()]
            while self.peek()[0] == "comma":
                self.take()
                items.append(self.description())
            if len(items) < 2:
                self.fail("and(...) needs at least two conjuncts")
            self.expect("rparen", "')'")
            return And(tuple(items))
        if head == "all":
            name, kind = self.pname()
            self.expect("comma", "','")
            body = self.description()
            self.expect("rparen", "')'")
            if kind == "attribute":
                return AllAttr(name, body)
            return AllRole(name, body)
        if head in ("at-least", "at-most"):
            tok = self.expect("int", "an integer")
            n = int(tok[1])
            self.expect("comma", "','")
            role = self.rname()
            self.expect("rparen", "')'")
            if head == "at-least":
                if n < 1:
                    raise ParseError("at-least bound must be positive",
                                     tok[2], self.line)
                return AtLeast(n, role)
            return AtMost(n, role)
        if head == "same-as":
            left = self.attr_chain()
            self.expect("comma", "','")
            right = self.attr_chain()
            self.expect("rparen", "')'")
            return SameAs(left, right)
        if head == "fills":
            name, kind = self.pname()
            self.expect("comma", "','")
            who = self.individual()
            self.expect("rparen", "')'")
            if kind == "attribute":
                return FillsAttr(name, who)
            return FillsRole(name, who)
        if head == "one-of":
            members = [self.individual()]
            while self.peek()[0] == "comma":
                self.take()
                members.append(self.individual())
            close = self.peek()
            self.expect("rparen", "')'")
            hosts = {m.is_host for m in members}
            if len(hosts) > 1:
                raise ParseError("one-of members must be all host values or "
                                 "all classic individuals", close[2],
                                 self.line)
            return OneOf(tuple(members))
        if head == "primitive":
            body = self.description()
            self.expect("comma", "','")
            tag = self.expect("ident", "a primitive tag")[1]
            self.expect("rparen", "')'")
            return Primitive(body, tag)
        if head == "test":
            func = self.expect("ident", "a function name")[1]
            self.expect("comma", "','")
            realm_tok = self.expect("ident", "'classic' or 'host'")
            if realm_tok[1] not in (REALM_CLASSIC, REALM_HOST):
                self.fail("test realm must be 'classic' or 'host'", realm_tok)
            self.expect("rparen", "')'")
            return Test(func, realm_tok[1])
        self.fail("unknown constructor %r" % head)

    def attr_chain(self) -> tuple[str, ...]:
        self.expect("lparen", "'('")
        names = [self.aname()]
        while self.peek()[0] == "comma":
            self.take()
            names.append(self.aname())
        self.expect("rparen", "')'")
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
    return _DescriptionParser(tokens, kb, inferred_attrs).whole()


def infer_attr_names(*texts: str) -> set[str]:
    """The same-as names of all ``texts``, pooled."""
    return set().union(*(tokenize(text)[1] for text in texts))


def parse_kb(text: str) -> KnowledgeBase:
    """Parse a line-oriented knowledge-base file."""
    kb = KnowledgeBase.empty()
    declared: dict[str, int] = {}
    concept_bodies: list[tuple[str, tuple, int]] = []
    disjoint_names: list[tuple[tuple, int]] = []

    def declare(name: str, lineno: int):
        if name in declared:
            raise ParseError("%s already declared on line %d"
                             % (name, declared[name]), 0, lineno)
        if kb.lattice.is_type(name):
            raise ParseError("%s is a built-in host type" % name, 0, lineno)
        declared[name] = lineno

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = tokenize(raw, lineno)[0]
        kind, word, pos = tokens[0]
        if kind == "eof":
            continue
        if kind != "ident":
            raise ParseError("expected a declaration", pos, lineno)
        if word in ("role", "attribute", "individual"):
            if tokens[1][0] != "ident" or tokens[2][0] != "eof":
                raise ParseError("expected: %s NAME" % word,
                                 tokens[1][2], lineno)
            name = tokens[1][1]
            declare(name, lineno)
            if word == "role":
                kb.roles.add(name)
            elif word == "attribute":
                kb.attributes.add(name)
            else:
                kb.individuals[name] = Individual(name)
        elif word == "host-type":
            if tokens[1][0] != "ident":
                raise ParseError("expected: host-type NAME [subtype-of NAME]",
                                 tokens[1][2], lineno)
            name = tokens[1][1]
            parent = None
            if tokens[2][0] == "ident" and tokens[2][1] == "subtype-of":
                if tokens[3][0] != "ident" or tokens[4][0] != "eof":
                    raise ParseError("expected a parent type name",
                                     tokens[3][2], lineno)
                parent = tokens[3][1]
            elif tokens[2][0] != "eof":
                raise ParseError("expected: host-type NAME [subtype-of NAME]",
                                 tokens[2][2], lineno)
            declare(name, lineno)
            try:
                kb.lattice.add_type(name, parent)
            except KbError as exc:
                raise ParseError(str(exc), pos, lineno) from exc
        elif word == "concept":
            if tokens[1][0] != "ident" or tokens[2][0] != "assign":
                raise ParseError("expected: concept NAME := DESCRIPTION",
                                 tokens[1][2], lineno)
            name = tokens[1][1]
            declare(name, lineno)
            concept_bodies.append((name, tokens[3:], lineno))
            kb.named[name] = Thing()  # placeholder until the second pass
        elif word == "disjoint":
            names = []
            for tok in tokens[1:]:
                if tok[0] == "eof":
                    break
                if tok[0] != "ident":
                    raise ParseError("expected concept names", tok[2],
                                     lineno)
                names.append(tok[1])
                disjoint_names.append((tok, lineno))
            if len(names) < 2:
                raise ParseError("disjoint needs at least two names",
                                 pos, lineno)
            kb.disjoint_groups.append(frozenset(names))
        else:
            raise ParseError("unknown declaration %r" % word, pos,
                             lineno)

    # Only undeclared atoms can be disjoint.  Expansion replaces a concept
    # name by its definition and roles, attributes and individuals never
    # stand as atoms, so a group naming one never fires; the type lattice
    # alone decides which host types are disjoint.
    for tok, lineno in disjoint_names:
        kind = kb.kind_of(tok[1])
        if kind is not None:
            raise ParseError("disjoint names the %s %s; only undeclared "
                             "atoms can be disjoint" % (kind, tok[1]),
                             tok[2], lineno)

    # Second pass: concept bodies may reference any declared concept.
    for name, tokens, lineno in concept_bodies:
        kb.named[name] = _DescriptionParser(tokens, kb, set(), lineno).whole()

    _definition_order({name: {d.name for d in walk(body)
                              if isinstance(d, NamedRef)}
                       for name, body in kb.named.items()})
    return kb

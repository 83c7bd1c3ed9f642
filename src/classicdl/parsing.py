"""Tokenizer and parsers for descriptions and KB files.

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

:func:`tokenize` is the one lexical pass.  ASCII text without string
literals, comments and numbers glued to a name, as in ``2x``, is split at
whitespace after spaces are put around ``(``, ``)``, ``,`` and ``:=``; any
other text is lexed by one ``findall``.  Both paths yield the same tokens,
plain strings whose kind is their first character, and the names inside
same-as chains are collected from them.  Offsets are computed only for an
error.  One loop over the tokens parses a description, with an explicit
stack of open ``and``, ``all`` and ``primitive`` constructors, so any depth
parses.  ``parse_description`` lexes its text once and ``parse_kb`` each
line once; a concept body is parsed from its line's tokens, so its error
offsets count from the start of the line like every other KB error.  A
two-entry memo on ``tokenize`` makes ``infer_attr_names(d, c)`` followed
by ``parse_description`` of each lex each distinct text once.

With a knowledge base in hand the parser is strict: every role, attribute,
and individual must be declared, in KB files and in descriptions parsed
against one.  Without one it infers — names used in same-as chains are
attributes, other role-or-attribute positions default to roles, and bare
names in individual positions are classic individuals.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Set

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
# A number followed directly by an identifier, as in ``2x``: one token
# that ``findall`` splits in two.
_GLUED_RE = re.compile(r"[0-9][A-Za-z_]")
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
    if text.isascii() and '"' not in text and "#" not in text \
            and not _GLUED_RE.search(text):
        # Then only whitespace, punctuation and ``:=`` end a token, so
        # splitting at them gives ``findall``'s tokens.
        tokens = (*text.replace("(", " ( ").replace(")", " ) ")
                  .replace(",", " , ").replace(":=", " := ").split(), "")
    else:
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


class _Failure(Exception):
    """A parse error at a token index; :func:`_parse_tokens` raises it as a
    :class:`ParseError` at the token's offset."""


def _expected(what: str, tok: str, k: int) -> _Failure:
    return _Failure("expected %s, found %r" % (what, tok or "end of input"), k)


def _ref(name: str, k: int, kinds: tuple[str, ...],
         kb: KnowledgeBase | None, inferred_attrs: Set[str]) -> str:
    """The kind of token ``k``, ``name``, as the name of one of ``kinds``;
    without a knowledge base an unknown name is a ``kinds[0]``."""
    if not _is_name(name):
        raise _expected(_REFS[kinds][0], name, k)
    kind = kb.kind_of(name) if kb is not None else \
        "attribute" if name in inferred_attrs else None
    if kind not in kinds:
        _, noun, misuse = _REFS[kinds]
        if kind is not None:
            raise _Failure(misuse % (name, kind), k)
        if kb is not None:
            raise _Failure("unknown %s: %s" % (noun, name), k)
        kind = kinds[0]
    return kind


def _integer(tok: str, k: int) -> int:
    try:
        return int(tok)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise _Failure("INTEGER literal too long", k) from None


def _individual(tok: str, k: int, kb: KnowledgeBase | None) -> Individual:
    if tok[:1].isdecimal():
        if tok.isdecimal():
            return host_int(_integer(tok, k))
        ind = host_real(float(tok))
        if not math.isfinite(ind.value):
            raise _Failure("REAL literal out of range", k)
        return ind
    if tok[:1] == '"':
        return host_string(_unquote(tok))
    if not _is_name(tok):
        raise _Failure("expected an individual", k)
    if kb is None:
        return Individual(tok)
    if tok in kb.individuals:
        return kb.individuals[tok]
    kind = kb.kind_of(tok)
    raise _Failure("%s is declared as a %s, not an individual" % (tok, kind)
                   if kind else "unknown individual: %s" % tok, k)


def _attr_chain(tokens: tuple[str, ...], i: int, kb: KnowledgeBase | None,
                inferred_attrs: Set[str]) -> tuple[tuple[str, ...], int]:
    """The attribute chain ``(a, b, ...)`` at token ``i``, and the index of
    the token after it."""
    if tokens[i] != "(":
        raise _expected("'('", tokens[i], i)
    start = i + 1
    while True:
        i += 1
        _ref(tokens[i], i, ("attribute",), kb, inferred_attrs)
        i += 1
        if tokens[i] != ",":
            break
    if tokens[i] != ")":
        raise _expected("')'", tokens[i], i)
    return tokens[start:i:2], i + 1


def _parse_tokens(tokens: tuple[str, ...], start: int,
                  kb: KnowledgeBase | None, inferred_attrs: Set[str],
                  text: str, line: int | None = None) -> Description:
    """The description at token ``start`` of ``tokenize(text)``, which must
    run to the end of the tokens.  ``and``, ``all`` and ``primitive`` open a
    frame on ``stack``; each finished description joins or closes the top
    one, and any other constructor is read whole where it starts."""
    try:
        stack: list = []
        i = start
        while True:
            tok = tokens[i]
            if tok not in KEYWORDS:
                d = _atom(tok, i, kb)
                i += 1
            elif tok in _CONSTANTS:
                d = _CONSTANTS[tok]()
                i += 1
            else:
                if tokens[i + 1] != "(":
                    raise _expected("'('", tokens[i + 1], i + 1)
                i += 2
                # The most frequent constructors first.
                if tok == "same-as":
                    left, i = _attr_chain(tokens, i, kb, inferred_attrs)
                    if tokens[i] != ",":
                        raise _expected("','", tokens[i], i)
                    right, i = _attr_chain(tokens, i + 1, kb, inferred_attrs)
                    d = SameAs(left, right)
                elif tok == "at-least" or tok == "at-most":
                    if not tokens[i].isdecimal():
                        raise _expected("an integer", tokens[i], i)
                    if tokens[i + 1] != ",":
                        raise _expected("','", tokens[i + 1], i + 1)
                    n, role = _integer(tokens[i], i), tokens[i + 2]
                    _ref(role, i + 2, ("role",), kb, inferred_attrs)
                    if tok == "at-most":
                        d = AtMost(n, role)
                    elif n > 0:
                        d = AtLeast(n, role)
                    elif tokens[i + 3] != ")":
                        raise _expected("')'", tokens[i + 3], i + 3)
                    else:
                        raise _Failure("at-least bound must be positive", i)
                    i += 3
                elif tok == "and":
                    stack.append((And, []))
                    continue
                elif tok == "all" or tok == "fills":
                    name = tokens[i]
                    attr = _ref(name, i, ("role", "attribute"), kb,
                                inferred_attrs) == "attribute"
                    if tokens[i + 1] != ",":
                        raise _expected("','", tokens[i + 1], i + 1)
                    i += 2
                    if tok == "all":
                        stack.append((AllAttr if attr else AllRole, name))
                        continue
                    d = (FillsAttr if attr else FillsRole)(
                        name, _individual(tokens[i], i, kb))
                    i += 1
                elif tok == "primitive":
                    stack.append((Primitive, None))
                    continue
                elif tok == "one-of":
                    members = [_individual(tokens[i], i, kb)]
                    i += 1
                    while tokens[i] == ",":
                        members.append(_individual(tokens[i + 1], i + 1, kb))
                        i += 2
                    if tokens[i] != ")":
                        raise _expected("')'", tokens[i], i)
                    if len({m.is_host for m in members}) > 1:
                        raise _Failure("one-of members must be all host "
                                       "values or all classic individuals", i)
                    d = OneOf(tuple(members))
                else:  # test
                    if not _is_name(tokens[i]):
                        raise _expected("a function name", tokens[i], i)
                    if tokens[i + 1] != ",":
                        raise _expected("','", tokens[i + 1], i + 1)
                    realm = tokens[i + 2]
                    if not _is_name(realm):
                        raise _expected("'classic' or 'host'", realm, i + 2)
                    if realm not in (REALM_CLASSIC, REALM_HOST):
                        raise _Failure("test realm must be 'classic' or "
                                       "'host'", i + 2)
                    d = Test(tokens[i], realm)
                    i += 3
                if tokens[i] != ")":
                    raise _expected("')'", tokens[i], i)
                i += 1
            # Hand ``d`` to the open frames, closing each that it completes.
            while stack:
                head, arg = stack[-1]
                if head is And:
                    arg.append(d)
                    if tokens[i] == ",":
                        i += 1
                        break
                    if len(arg) < 2:
                        raise _Failure("and(...) needs at least two "
                                       "conjuncts", i)
                    d = And(tuple(arg))
                elif head is Primitive:
                    if tokens[i] != ",":
                        raise _expected("','", tokens[i], i)
                    tag = tokens[i + 1]
                    if not _is_name(tag):
                        raise _expected("a primitive tag", tag, i + 1)
                    d = Primitive(d, tag)
                    i += 2
                else:
                    d = head(arg, d)
                if tokens[i] != ")":
                    raise _expected("')'", tokens[i], i)
                i += 1
                stack.pop()
            else:
                if tokens[i]:
                    raise _Failure("unexpected trailing input %r" % tokens[i],
                                   i)
                return d
    except _Failure as exc:
        message, k = exc.args
        raise ParseError(message, _offsets(text)[k], line) from None


def _atom(name: str, k: int, kb: KnowledgeBase | None) -> Description:
    """The description that the name at token ``k`` stands for."""
    if not _is_name(name):
        raise _Failure("expected a description", k)
    # Graph node labels are reserved so user atoms never collide with them.
    if name in BUILTIN_ATOMS:
        raise _Failure("%s is reserved; use the lowercase keyword" % name, k)
    kind = kb.kind_of(name) if kb is not None else \
        "host-type" if DEFAULT_LATTICE.is_type(name) else None
    if kind is None:
        return ConceptName(name)
    if kind == "host-type":
        return HostConcept(name)
    if kind == "concept":
        return NamedRef(name)
    raise _Failure("%s is declared as a %s, not a concept" % (name, kind), k)


def parse_description(text: str, kb: KnowledgeBase | None = None,
                      inferred_attrs: set[str] | None = None) -> Description:
    """Parse one description.  With a knowledge base every name must be
    declared.  Without one, ``inferred_attrs`` are the attribute names
    (the CLI pools them across two descriptions to keep them consistent
    with each other); by default they are the text's same-as names."""
    tokens, chain_names = tokenize(text)
    if inferred_attrs is None:
        inferred_attrs = chain_names
    return _parse_tokens(tokens, 0, kb, inferred_attrs, text)


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
        kb.named[name] = _parse_tokens(tokens, 3, kb, frozenset(), raw, lineno)

    _definition_order({name: {d.name for d in walk(body)
                              if isinstance(d, NamedRef)}
                       for name, body in kb.named.items()})
    return kb

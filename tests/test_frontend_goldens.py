"""The front end's outputs on a fixed corpus, pinned.

``goldens/frontend_digests.json`` holds one SHA-256 digest per input
family.  Each input contributes either its parsed AST, as
``descriptions.to_jsonable``, with its inferred same-as names, or its
``ParseError`` as ``(message, line, pos)``.  The families are the texts of
the first 500 ``random_pair`` draws of seeds 0-2, parsed with and without
the random corpus's vocabulary; the malformed same-as texts and a token
soup from ``test_frontend``; KB files with an error on different lines;
and lexical corner cases: comments, ``#`` inside string literals,
decimals, Unicode digits, unterminated strings and stray characters.  A
change to the scanner or the parsers that alters any AST, inferred name,
error message or error offset shows up here.  Print fresh digests with
``python tests/test_frontend_goldens.py``.
"""

import hashlib
import json
import pathlib
import random

from classicdl import descriptions
from classicdl.descriptions import to_text
from classicdl.kb import KbError
from classicdl.parsing import ParseError, infer_attr_names, parse_description, \
    parse_kb
from classicdl.randgen import corpus_kb, random_pair
from test_frontend import MALFORMED, _token_soup

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "frontend_digests.json"
SEEDS = (0, 1, 2)
PAIRS = 500
SOUPS = 3000

LEXICAL = [
    "", "   ", "\t\n", "# only a comment", "A # trailing comment (",
    "and(A, # inside\n B)", "all(r, #c\n A)", "and(A,B)#c", "#",
    'fills(r, "a # not a comment")', 'one-of("x#y", "z")',
    'fills(r, "esc\\"aped")', 'fills(r, "back\\\\")', 'fills(r, "")',
    'fills(r, "unterminated)', '"', 'one-of("a", "b', 'fills(r, "a\\',
    "fills(r, 1.5)", "one-of(1.25, 3.0, 7)", "fills(r, 1.)", "fills(r, .5)",
    "fills(r, 007)", "at-least(1.5, r)", "at-least(0, r)", "at-least(-1, r)",
    "at-least(٣, r)", "at-most(١٠, r)", "fills(r, ٣)",
    "fills(r, ١.٥)", "at-least(², r)", "at-least(３, r)",
    ":", "and(A, :)", "A := B", ":=", "and(A, $)", "$", "Aé", "é",
    "a\tb", "and(A,\nB)", "and(A, B", "and(A)", "and()", "thing thing",
    "THING", "one-of(1, Pat)", "test(f, bogus)", "test(f, host)",
    "test(f, classic)", "primitive(A, t)", "primitive(A, 1)",
    "same-as((f, g),(h))", "same-as((f),(1))", "A-b", "_x", "x?!",
    "at-least(1, r))", "all(r)", "all(r, )", "fills(r, ,)", "one-of(Pat,",
    "same-as", "same-as(", "STRING", "and(INTEGER, REAL)", "r(",
]

KB_LINES = [
    "# a knowledge base",
    "role r",
    "role s  # trailing comment",
    "attribute f",
    "attribute g",
    "",
    "individual Pat",
    "individual Kim",
    "host-type TEMPERATURE subtype-of REAL",
    "host-type COLOR",
    "concept B := and(A, all(r, same-as((f),(g))))",
    "   ",
    "concept A := and(GAME, fills(r, Pat), at-least(2, s))",
    'concept C := and(B, fills(f, "x # y"), fills(g, 1.5))',
    "concept D := one-of(Pat, Kim)",
    "disjoint MALE FEMALE",
    "disjoint TALL SMALL MEDIUM",
]

KB_ERRORS = [
    "role", "role r", "role 1", "role r s", "attribute", "individual $",
    "host-type", "host-type T subtype-of", "host-type T subtype-of NOPE",
    "host-type T extra", "host-type REAL", "concept", "concept X",
    "concept X = Y", "concept X := ", "concept X := and(Y, $)",
    "concept X := all(q, Y)", "concept X := Y Z", "concept r := Y",
    "disjoint", "disjoint ONE", "disjoint A (", "disjoint r TALLER",
    "disjoint INTEGER TALLER", "frobnicate X", "(", "1 2", ":", "$",
    '"str"', "concept X := fills(r, Nobody)", "concept X := at-least(1, f)",
]


def _update(h, obj) -> None:
    h.update(json.dumps(obj, sort_keys=True).encode())
    h.update(b"\n")


def _error(exc: ParseError) -> list:
    return ["error", exc.message, exc.line, exc.pos]


def outcome(text: str, kb=None) -> list:
    """The AST and the inferred same-as names of ``text``, or its error."""
    try:
        d = parse_description(text, kb)
        return [descriptions.to_jsonable(d), sorted(infer_attr_names(text))]
    except ParseError as exc:
        return _error(exc)


def kb_outcome(text: str) -> list:
    """The declarations and parsed bodies of a KB file, or its error."""
    try:
        kb = parse_kb(text)
    except ParseError as exc:
        return _error(exc)
    except KbError as exc:
        return ["kb-error", str(exc)]
    return [sorted(kb.roles), sorted(kb.attributes), sorted(kb.individuals),
            {name: kb.lattice.ancestors(name)
             for name in ("TEMPERATURE", "COLOR") if kb.lattice.is_type(name)},
            {name: descriptions.to_jsonable(body)
             for name, body in sorted(kb.named.items())},
            sorted(sorted(group) for group in kb.disjoint_groups)]


def kb_texts() -> list[str]:
    texts = ["\n".join(KB_LINES)]
    for bad in KB_ERRORS:
        for at in (0, 5, 11, len(KB_LINES)):
            texts.append("\n".join(KB_LINES[:at] + [bad] + KB_LINES[at:]))
    return texts


def digests() -> dict:
    kb = corpus_kb()
    texts = [to_text(desc) for seed in SEEDS
             for rng in [random.Random(seed)] for _ in range(PAIRS)
             for desc in random_pair(rng)]
    rng = random.Random(15)
    soups = [_token_soup(rng) for _ in range(SOUPS)]
    families = {
        "pairs": [outcome(text) for text in texts],
        "pairs_kb": [outcome(text, kb) for text in texts],
        "malformed": [outcome(text) for text in MALFORMED],
        "soup": [outcome(text) for text in soups],
        "kb_files": [kb_outcome(text) for text in kb_texts()],
        "lexical": [outcome(text) for text in LEXICAL],
        "lexical_kb_lines": [kb_outcome("role r\nconcept X := " + text)
                             for text in LEXICAL if "\n" not in text],
    }
    out = {}
    for name, results in families.items():
        h = hashlib.sha256()
        for result in results:
            _update(h, result)
        out[name] = h.hexdigest()
    return out


def test_front_end_outputs_match_golden():
    assert digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2))

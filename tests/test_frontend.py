"""The front end's single lexical pass: same-as inference against a two-pass
reference, one tokenization per text or KB line, strict KB parsing, line
offsets in concept bodies and the order-independent cycle check."""

import random

import pytest

from classicdl import parsing
from classicdl.descriptions import to_text
from classicdl.kb import KbError
from classicdl.parsing import ParseError, parse_description, parse_kb
from classicdl.randgen import random_pair


def reference_chain_names(tokens) -> set[str]:
    """The two-pass inference: after each ``same-as``, rescan the following
    tokens and collect identifiers at depth two or more until the
    parenthesis that closes it."""
    names: set[str] = set()
    for i, tok in enumerate(tokens):
        if tok.kind == "ident" and tok.text == "same-as":
            depth = 0
            for t in tokens[i + 1:]:
                if t.kind == "lparen":
                    depth += 1
                elif t.kind == "rparen":
                    depth -= 1
                    if depth <= 0:
                        break
                elif t.kind == "ident" and depth >= 2:
                    names.add(t.text)
    return names


def _and_text(n):
    items = [("A%d" % i, "at-least(%d, r%d)" % (1 + i % 3, i),
              "same-as((f%d),(g%d))" % (i, i))[i % 3] for i in range(n)]
    return "and(%s)" % ", ".join(items)


def _chain_text(n):
    parts = ["same-as((a%d),(b%d))" % (i, i) for i in range(1, n + 1)]
    parts += ["same-as((a%d),(a%d))" % (i, i + 1) for i in range(1, n)]
    return "and(%s)" % ", ".join(parts)


def _nested_text(n):
    text = "and(X0, same-as((f),(g, h)))"
    for k in range(1, n + 1):
        text = "all(r, and(X%d, at-least(1, r), %s))" % (k, text)
    return text


MALFORMED = [
    "and(same-as((a),(b)), all(r, all(q, X)))",
    "same-as((a),(b))) all(q, same-as((c),(d)))",
    "same-as(same-as((a),(b)),(c))",
    "same-as((a, same-as((b),(c))),(d))",
    "same-as((a),(b)",
    "same-as((a)",
    "same-as)",
    "same-as ) ((x))",
    "same-as",
    "((same-as))",
    "same-as(((a)), b, (c)) ((d))",
    "all(r, same-as((a),(b))) same-as((c, d),(e))",
]


def _token_soup(rng: random.Random) -> str:
    words = ["same-as", "(", "(", ")", ")", ",", "a", "b", "c", "all", "r"]
    return " ".join(rng.choice(words) for _ in range(rng.randint(1, 24)))


def test_chain_names_match_the_two_pass_reference():
    rng = random.Random(9)
    texts = [to_text(d) for _ in range(2500) for d in random_pair(rng)]
    texts += [make(n) for make in (_and_text, _chain_text, _nested_text)
              for n in (1, 2, 3, 8, 32, 64)]
    texts += MALFORMED
    texts += [_token_soup(rng) for _ in range(3000)]
    nonempty = 0
    for text in texts:
        tokens, names = parsing.tokenize(text)
        assert names == reference_chain_names(tokens), text
        nonempty += bool(names)
    assert nonempty > 500


def test_chain_names_stop_at_the_closing_parenthesis():
    _, names = parsing.tokenize("and(same-as((a),(b)), all(r, all(q, X)))")
    assert names == {"a", "b"}


@pytest.fixture
def tokenize_calls(monkeypatch):
    calls = []
    scan = parsing.tokenize

    def counting(text, line=None):
        calls.append(text)
        return scan(text, line)

    monkeypatch.setattr(parsing, "tokenize", counting)
    return calls


def test_parse_kb_tokenizes_each_line_once(tokenize_calls):
    lines = ["# a knowledge base", "role r", "attribute f", "attribute g",
             "", "individual Pat", "host-type TEMPERATURE subtype-of REAL",
             "concept B := and(A, all(r, same-as((f),(g))))  # uses A",
             "   ", "concept A := and(GAME, fills(r, Pat))",
             "disjoint MALE FEMALE"]
    parse_kb("\n".join(lines))
    assert len(tokenize_calls) <= len(lines)
    assert [t for t in tokenize_calls if t.strip()] == \
        [line for line in lines if line.strip()]


def test_parse_description_tokenizes_once(tokenize_calls):
    kb = parse_kb("attribute f\nattribute g")
    tokenize_calls.clear()
    text = "and(X, same-as((f),(g)))"
    parse_description(text)
    parse_description(text, kb)
    parse_description(text, None, {"f", "g"})
    assert tokenize_calls == [text] * 3


def test_kb_concept_bodies_do_not_infer_same_as_attributes():
    with pytest.raises(ParseError, match="unknown attribute: f") as exc:
        parse_kb("role r\nconcept A := same-as((f),(g))")
    assert (exc.value.line, exc.value.pos) == (2, 22)
    parse_kb("attribute f\nattribute g\nconcept A := same-as((f),(g))")


def test_descriptions_against_a_kb_do_not_infer_same_as_attributes():
    kb = parse_kb("role r")
    with pytest.raises(ParseError, match="unknown role or attribute: f"):
        parse_description("all(f, same-as((f),(g)))", kb)
    with pytest.raises(ParseError, match="unknown attribute: f"):
        parse_description("same-as((f),(g))", kb)
    assert to_text(parse_description("all(f, same-as((f),(g)))")) == \
        "all(f, same-as((f),(g)))"


@pytest.mark.parametrize("line, message, pos", [
    ("concept A := and(X, ,)", "expected a description", 20),
    ("concept A := and(X, $)", "unexpected character", 20),
    ("concept A := X Y", "unexpected trailing input 'Y'", 15),
    ("concept A :=", "expected a description", 12),
    ("concept A := all(q, X)", "unknown role or attribute: q", 17),
])
def test_concept_body_errors_report_line_offsets(line, message, pos):
    with pytest.raises(ParseError, match=message) as exc:
        parse_kb("role r\n" + line)
    assert (exc.value.line, exc.value.pos) == (2, pos)


def _chain_kb_lines(n):
    return ["concept C0 := Y0"] + ["concept C%d := and(C%d, Y%d)"
                                   % (i, i - 1, i) for i in range(1, n)]


def test_long_definition_chain_parses_in_either_line_order():
    lines = _chain_kb_lines(1200)
    forward = parse_kb("\n".join(lines))
    backward = parse_kb("\n".join(reversed(lines)))
    assert backward.named == forward.named


def test_long_definition_cycle_is_rejected_in_either_line_order():
    lines = _chain_kb_lines(1200)
    lines[0] = "concept C0 := and(Y0, C1199)"
    for order in (lines, lines[::-1]):
        with pytest.raises(KbError, match="recursive named concept: C"):
            parse_kb("\n".join(order))

"""The front end's single lexical pass: same-as inference against a two-pass
reference, one tokenization per text or KB line, one scan per distinct text
on the infer-then-parse path, the token memo's safety, strict KB parsing,
line offsets in concept bodies and the order-independent cycle check."""

import random

import pytest

from classicdl import cli, parsing
from classicdl.descriptions import to_text
from classicdl.kb import KbError
from classicdl.parsing import (
    ParseError,
    infer_attr_names,
    parse_description,
    parse_kb,
)
from classicdl.randgen import random_pair


def reference_chain_names(tokens) -> set[str]:
    """The two-pass inference: after each ``same-as``, rescan the following
    tokens and collect identifiers at depth two or more until the
    parenthesis that closes it."""
    names: set[str] = set()
    for i, tok in enumerate(tokens):
        if tok == "same-as":
            depth = 0
            for t in tokens[i + 1:]:
                if t == "(":
                    depth += 1
                elif t == ")":
                    depth -= 1
                    if depth <= 0:
                        break
                elif (t[:1].isalpha() or t[:1] == "_") and depth >= 2:
                    names.add(t)
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


@pytest.fixture
def scans(monkeypatch):
    """The texts lexed, one entry per lexical pass on either path: every
    pass starts by matching the text against ``_TEXT_RE``, which a proxy
    counts, with the token memo cleared first."""
    texts = []
    pattern = parsing._TEXT_RE

    class CountingPattern:
        def match(self, text, *span):
            texts.append(text)
            return pattern.match(text, *span)

    parsing.tokenize.cache_clear()
    monkeypatch.setattr(parsing, "_TEXT_RE", CountingPattern())
    yield texts
    parsing.tokenize.cache_clear()


LEX_ONCE_PAIRS = [
    ("and(X, same-as((f),(g)))", "all(f, same-as((g),(h)))"),
    (_chain_text(8), _chain_text(8)),
    (_nested_text(4), "and(%s, EXTRA)" % _nested_text(4)),
]
LEX_ONCE_IDS = ["distinct", "equal", "nested"]


@pytest.mark.parametrize("d, c", LEX_ONCE_PAIRS, ids=LEX_ONCE_IDS)
def test_infer_then_parse_scans_each_text_once(scans, d, c):
    attrs = infer_attr_names(d, c)
    parse_description(d, None, attrs)
    parse_description(c, None, attrs)
    assert scans == list(dict.fromkeys([d, c]))


@pytest.mark.parametrize("d, c", LEX_ONCE_PAIRS, ids=LEX_ONCE_IDS)
def test_cli_subsumes_scans_each_text_once(scans, capsys, d, c):
    assert cli.main(["subsumes", d, c]) in (0, 1)
    capsys.readouterr()
    assert scans == list(dict.fromkeys([d, c]))


def test_parse_kb_scans_each_line_once(scans):
    lines = ["# a knowledge base", "role r", "attribute f", "attribute g",
             "", "individual Pat", "concept A := and(GAME, fills(r, Pat))",
             "concept B := and(A, all(r, same-as((f),(g))))", "   ",
             "disjoint MALE FEMALE"]
    parse_kb("\n".join(lines))
    assert scans == lines


def test_tokens_from_the_memo_are_immutable():
    tokens, names = parsing.tokenize("and(X, same-as((f),(g, h)))")
    assert isinstance(tokens, tuple) and isinstance(names, frozenset)
    assert all(isinstance(tok, str) for tok in tokens)
    assert tokens[-1] == "" and names == {"f", "g", "h"}
    assert parsing.tokenize("and(X, same-as((f),(g, h)))") == (tokens, names)


def test_bad_character_raises_on_every_call_with_its_own_line():
    bad = "concept A := and(X, $)"
    short = "role r\n" + bad
    long = "role r\nrole s\nattribute f\nattribute g\n" + bad
    for kb_text, line in [(short, 2), (long, 5), (short, 2), (long, 5)]:
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse_kb(kb_text)
        assert (exc.value.line, exc.value.pos) == (line, 20)
    for _ in range(3):
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse_description("and(X, $)")
        assert (exc.value.line, exc.value.pos) == (None, 7)


@pytest.mark.parametrize("text, message", [
    ("all(f, same-as((f),(g)))", "unknown role or attribute: f"),
    ("same-as((f),(g))", "unknown attribute: f"),
])
def test_memoized_text_still_gets_strict_kb_errors(text, message):
    kb = parse_kb("role r")
    infer_attr_names(text)
    assert to_text(parse_description(text)) == text
    with pytest.raises(ParseError, match=message):
        parse_description(text, kb)
    assert to_text(parse_description(text)) == text

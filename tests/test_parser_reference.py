"""The front end against its reference in ``oracles``.

``parsing.tokenize`` lexes plain ASCII text by ``str.split`` and any other
text by ``findall``; ``parsing._parse_tokens`` keeps an explicit stack of
open constructors.  Their tokens, same-as names, ASTs and ``ParseError``
(message, line, offset) must equal those of ``oracles.reference_tokenize``,
which lexes every text by ``findall``, and the recursive-descent
``oracles._DescriptionParser``: on the front-end goldens' corpora, on the
``deep`` benchmark ladders and on texts built for each lexing path.  The
benchmark's plain inputs must take the ``split`` path, and string
literals, comments, non-ASCII text and glued numbers the ``findall`` one.
"""

import importlib.util
import pathlib
import random

import pytest

from classicdl import parsing
from classicdl.descriptions import to_jsonable, to_text
from classicdl.parsing import ParseError
from classicdl.randgen import corpus_kb, random_pair
from oracles import reference_parse_tokens, reference_tokenize
from test_frontend import MALFORMED, _token_soup
from test_frontend_goldens import LEXICAL, kb_outcome, kb_texts

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" \
    / "inputs.py"


def _bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


# Texts on either side of each condition that selects the lexing path.
SPLIT_TEXTS = [
    "and(A,\x1cB)", "\x1d and(A, B)\x1e", "all(r,\x1fX)",
    "and(A,\tB\n,\x0bC\x0c)\r", "X:=Y", "and(X:=Y)", "a:=:=b", ":= :=",
    "at-least(12, r)", "at-least(1,r)", "one-of(1.5, 2, 007)",
    "fills(r, 10.25)", "and(x-1, y?, z!)", "all(r-s!, X)", "fills(r,1.5)",
    "1.5.5", "1..5", "at-least(1.5, r)", "and(X1, Y2)",
    "same-as((a1,b_2),(c3))", "test(f1, host)", "primitive(A9, t0)",
]
FINDALL_TEXTS = [
    "2x", "at-least(2x, r)", "one-of(2x)", "fills(r, 1.5x)",
    "at-least(2_, r)", "and(A1b, r2d2)", "fills(r, 3a)",
    'fills(r, "a (b), c")', 'one-of("x", "y")', 'fills(r, "2x")',
    "and(A, B) # c", "and(A, # c\n B)", "#", "and(A,\u2003B)",
    "at-least(٣, r)", "and(A, é)", "fills(r, ١.٥)",
]


def _outcome(text, kb, tokenize, parse_tokens):
    try:
        tokens, names = tokenize(text)
        d = parse_tokens(tokens, 0, kb, names, text)
    except ParseError as exc:
        return "error", exc.message, exc.line, exc.pos
    return tokens, names, to_jsonable(d)


def _assert_matches_reference(texts, kb=None):
    for text in texts:
        assert _outcome(text, kb, parsing.tokenize, parsing._parse_tokens) \
            == _outcome(text, kb, reference_tokenize,
                        reference_parse_tokens), text


def _golden_pair_texts():
    return [to_text(d) for seed in (0, 1, 2)
            for rng in [random.Random(seed)] for _ in range(500)
            for d in random_pair(rng)]


def test_descriptions_match_the_reference():
    texts = _golden_pair_texts()
    _assert_matches_reference(texts)
    _assert_matches_reference(texts, corpus_kb())
    rng = random.Random(15)
    _assert_matches_reference([_token_soup(rng) for _ in range(3000)])
    _assert_matches_reference(MALFORMED + LEXICAL + SPLIT_TEXTS
                              + FINDALL_TEXTS)
    _assert_matches_reference([text for ladder in _bench_inputs()
                               .deep_ladders(0) for text in ladder[3:]])


def test_kb_files_match_the_reference(monkeypatch):
    texts = kb_texts() + ["role r\nconcept X := " + text
                          for text in LEXICAL + SPLIT_TEXTS + FINDALL_TEXTS
                          if "\n" not in text]
    texts += ["concept X:=Y", "concept X:=and(A,B)", "role r\x1c"]
    outcomes = [kb_outcome(text) for text in texts]
    monkeypatch.setattr(parsing, "tokenize", reference_tokenize)
    monkeypatch.setattr(parsing, "_parse_tokens", reference_parse_tokens)
    assert [kb_outcome(text) for text in texts] == outcomes


@pytest.fixture
def findall_texts(monkeypatch):
    """The texts that ``tokenize`` lexes by ``findall``, with the token memo
    cleared first."""
    texts = []
    pattern = parsing._TOKEN_RE

    class CountingPattern:
        def findall(self, text, *span):
            texts.append(text)
            return pattern.findall(text, *span)

    parsing.tokenize.cache_clear()
    monkeypatch.setattr(parsing, "_TOKEN_RE", CountingPattern())
    yield texts
    parsing.tokenize.cache_clear()


def _lex(texts) -> list[str]:
    """Tokenize each of ``texts``; the ones without a bad character."""
    valid = []
    for text in texts:
        try:
            parsing.tokenize(text)
        except ParseError:
            continue
        valid.append(text)
    return valid


def test_benchmark_inputs_are_split(findall_texts):
    inputs = _bench_inputs()
    texts = [text for ladder in inputs.deep_ladders(0) for text in ladder[3:]]
    texts += [text for pair in inputs.pairs_corpus(0, 500) for text in pair]
    texts += [line for _, kb in inputs.taxonomy_kbs(0)
              for line in kb.splitlines()]
    assert len(_lex(texts)) == len(texts)
    assert len(_lex(SPLIT_TEXTS)) > 15
    assert findall_texts == []


def test_literals_comments_non_ascii_and_glued_numbers_use_findall(
        findall_texts):
    assert findall_texts == _lex(FINDALL_TEXTS)
    assert len(findall_texts) == len(FINDALL_TEXTS) - 1

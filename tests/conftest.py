from collections import Counter

import pytest
from hypothesis import settings

from classicdl import normalize, subsume
from classicdl.kb import KnowledgeBase
from classicdl.parsing import parse_description, parse_kb
from classicdl.worlds import eval_description
from oracles import world_domain

# Every run draws the same hypothesis examples: each test's examples are
# seeded from the test itself, and no example database replays earlier
# failures.  A test's own settings keep their ``max_examples``.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

BASIC_KB_TEXT = """\
# shared test vocabulary
role r
role s
role participants
role wantsToVisit
attribute f
attribute g
attribute h
attribute coach
attribute captain
attribute father
attribute friend
attribute hasPenguins
individual Pat
individual Kim
individual P
individual Q
individual V
individual Arctic
individual Antarctic
"""


@pytest.fixture(scope="session")
def kb() -> KnowledgeBase:
    return parse_kb(BASIC_KB_TEXT)


@pytest.fixture(scope="session")
def parse(kb):
    def go(text: str):
        return parse_description(text, kb)

    return go


@pytest.fixture
def count_steps(monkeypatch):
    """``count_steps(fn, *args)`` returns ``(fn(*args), steps)``, where
    ``steps`` counts the structural test's clause checks: the calls of its
    recursive core ``subsume._failure``."""
    real = subsume._failure

    def count(fn, *args):
        steps = [0]

        def counted(*a):
            steps[0] += 1
            return real(*a)

        monkeypatch.setattr(subsume, "_failure", counted)
        return fn(*args), steps[0]

    return count


@pytest.fixture
def count_rounds(monkeypatch):
    """``count_rounds(fn, *args)`` returns ``(fn(*args), rounds)``, where
    ``rounds`` maps each graph that ``normalize`` normalized to the number
    of fixpoint rounds it ran: the calls of a round's first pass."""
    def count(fn, *args):
        rounds = Counter()
        first = normalize._PASSES[0]

        def counted(g, *a):
            rounds[g] += 1
            return first(g, *a)

        monkeypatch.setattr(normalize, "_PASSES",
                            (counted, *normalize._PASSES[1:]))
        return fn(*args), rounds

    return count


@pytest.fixture
def count_tests(monkeypatch):
    """``count_tests(fn, *args)`` returns ``(fn(*args), tests)``, where
    ``tests`` counts the structural tests: the calls of
    ``subsume.subsumes_graph``."""
    real = subsume.subsumes_graph

    def count(fn, *args):
        tests = [0]

        def counted(*a):
            tests[0] += 1
            return real(*a)

        monkeypatch.setattr(subsume, "subsumes_graph", counted)
        return fn(*args), tests[0]

    return count


@pytest.fixture(scope="session")
def within_agrees():
    """``within_agrees(d, world, rng)`` checks that
    ``eval_description(d, world, S)`` is ``ext(d) & S`` for every
    single-element ``S`` and three random subsets of the domain, and
    returns the number of single elements checked."""
    def check(d, world, rng) -> int:
        ext = eval_description(d, world)
        domain = list(world_domain(world))
        for e in domain:
            assert eval_description(d, world, {e}) == ext & {e}, (d, e)
        for _ in range(3):
            s = frozenset(rng.sample(domain, rng.randint(0, len(domain))))
            assert eval_description(d, world, s) == ext & s, d
        return len(domain)

    return check

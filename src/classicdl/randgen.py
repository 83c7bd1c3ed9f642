"""Seeded random descriptions, description pairs, and property runners.

The corpus matches the acceptance envelope: nesting depth at most four,
number restrictions at most three, at most three classic individuals.
Individuals in generated descriptions are classic only; host values have
built-in type memberships that the structural test deliberately ignores,
so they are exercised by targeted unit tests instead of the random suites
(see the package docs).
"""

from __future__ import annotations

import random
from operator import attrgetter

from .countermodel import CounterModelError, construct_graphical_world
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
    Individual,
    Nothing,
    OneOf,
    SameAs,
    Thing,
    to_text,
)
from .graph import translate
from .kb import KnowledgeBase
from .normalize import canonicalize
from .subsume import subsumes_graph
from .worlds import (
    _below,
    eval_description,
    eval_graph,
    sample_interpretation,
    signature_of_description,
)

ATOMS = ("GAME", "PERSON", "TALL", "SMALL")
ROLES = ("r", "s")
ATTRS = ("f", "g", "h")
INDIVIDUALS = (Individual("P"), Individual("Q"), Individual("V"))


def corpus_kb() -> KnowledgeBase:
    kb = KnowledgeBase.empty()
    kb.roles.update(ROLES)
    kb.attributes.update(ATTRS)
    for ind in INDIVIDUALS:
        kb.individuals[ind.name] = ind
    return kb


def _pick(getrandbits, seq):
    """``Random.choice(seq)`` drawn from ``getrandbits``; over a range it
    is ``Random.randint``."""
    n = len(seq)
    return seq[_below(getrandbits, n, n.bit_length())]


def _sample(getrandbits, population, k: int) -> list:
    """``Random.sample(population, k)`` of at most 21 members, as 3.11."""
    pool, out = list(population), []
    for n in range(len(pool), len(pool) - k, -1):
        j = _below(getrandbits, n, n.bit_length())
        out.append(pool[j])
        pool[j] = pool[n - 1]
    return out


def random_description(rng: random.Random, depth: int = 4) -> Description:
    """One random description with nesting depth at most ``depth``."""
    leaf_ops = ("atom", "atom", "one-of", "fills-role", "fills-attr",
                "at-least", "at-most", "same-as", "thing", "classic-thing",
                "nothing")
    deep_ops = leaf_ops + ("and", "and", "all-role", "all-role", "all-attr")
    bits = rng.getrandbits
    op = _pick(bits, deep_ops if depth > 0 else leaf_ops)
    if op == "atom":
        return ConceptName(_pick(bits, ATOMS))
    if op == "thing":
        return Thing()
    if op == "classic-thing":
        return ClassicThing()
    if op == "nothing":
        return Nothing()
    if op == "one-of":
        k = _pick(bits, range(1, len(INDIVIDUALS) + 1))
        return OneOf(tuple(_sample(bits, INDIVIDUALS, k)))
    if op == "fills-role":
        return FillsRole(_pick(bits, ROLES), _pick(bits, INDIVIDUALS))
    if op == "fills-attr":
        return FillsAttr(_pick(bits, ATTRS), _pick(bits, INDIVIDUALS))
    if op == "at-least":
        return AtLeast(_pick(bits, range(1, 4)), _pick(bits, ROLES))
    if op == "at-most":
        return AtMost(_pick(bits, range(4)), _pick(bits, ROLES))
    if op == "same-as":
        left = tuple(_pick(bits, ATTRS) for _ in range(_pick(bits, (1, 2))))
        right = tuple(_pick(bits, ATTRS) for _ in range(_pick(bits, (1, 2))))
        return SameAs(left, right)
    if op == "and":
        n = _pick(bits, range(2, 4))
        return And(tuple(random_description(rng, depth - 1)
                         for _ in range(n)))
    if op == "all-role":
        return AllRole(_pick(bits, ROLES), random_description(rng, depth - 1))
    return AllAttr(_pick(bits, ATTRS), random_description(rng, depth - 1))


def random_pair(rng: random.Random) -> tuple[Description, Description]:
    """A (subsumer candidate, subsumee candidate) pair.  Mixes independent
    draws with deliberately related pairs so both answers appear often."""
    mode = rng.random()
    d = random_description(rng)
    if mode < 0.40:
        return d, random_description(rng)
    if mode < 0.65:
        # The subsumee strengthens the subsumer, so "yes" is likely.
        extra = random_description(rng, depth=2)
        return d, And((d, extra))
    if mode < 0.80:
        return d, d
    # Weaken a number restriction or wrap in a shared context.
    c = random_description(rng, depth=2)
    role = _pick(rng.getrandbits, ROLES)
    n = _pick(rng.getrandbits, range(1, 4))
    return (
        And((AtLeast(n, role), d)) if rng.random() < 0.5 else AtLeast(n, role),
        And((AtLeast(n + _pick(rng.getrandbits, range(2)), role), c, d)),
    )


class PropertyRunStats:
    __slots__ = ("cases", "positives", "negatives", "violations", "failures",
                 "nonvacuous_cases", "nonvacuous_worlds")
    def __init__(self):
        self.cases = self.positives = self.negatives = self.violations = 0
        self.failures: list[str] = []
        # soundness only: positive cases with a sampled world in which C has
        # a member, and the number of such worlds; the others check nothing
        self.nonvacuous_cases = self.nonvacuous_worlds = 0

    def __eq__(self, other):
        key = attrgetter(*self.__slots__)
        return type(other) is PropertyRunStats and key(self) == key(other)

    def record_failure(self, message: str) -> None:
        self.violations += 1
        if len(self.failures) < 10:
            self.failures.append(message)


def soundness_run(seed: int, cases: int, worlds_per_case: int = 50,
                  max_domain: int = 5) -> PropertyRunStats:
    """Whenever the engine answers yes, extension containment must hold in
    every sampled world.  D is evaluated only inside ext(C): ext(C) lies
    in ext(D) exactly when ext(D) ∩ ext(C) is all of ext(C)."""
    rng = random.Random(seed)
    kb = corpus_kb()
    stats = PropertyRunStats()
    for case in range(cases):
        d, c = random_pair(rng)
        stats.cases += 1
        canon = canonicalize(translate(c), kb)
        if not subsumes_graph(d, canon):
            stats.negatives += 1
            continue
        stats.positives += 1
        sig = signature_of_description(d).merge(signature_of_description(c))
        nonvacuous = False
        for w in range(worlds_per_case):
            world = sample_interpretation(sig, seed=seed * 1_000_003
                                          + case * 101 + w,
                                          max_domain=max_domain)
            ext_c = eval_description(c, world)
            if ext_c:
                nonvacuous = True
                stats.nonvacuous_worlds += 1
                if eval_description(d, world, ext_c) != ext_c:
                    stats.record_failure(
                        "containment violated: D=%s C=%s world=%d"
                        % (to_text(d), to_text(c), w))
                    break
        stats.nonvacuous_cases += nonvacuous
    return stats


def completeness_run(seed: int, cases: int) -> PropertyRunStats:
    """Whenever the engine answers no, the steered graphical world must
    produce a separating element."""
    rng = random.Random(seed)
    kb = corpus_kb()
    stats = PropertyRunStats()
    for _ in range(cases):
        d, c = random_pair(rng)
        stats.cases += 1
        canon = canonicalize(translate(c), kb)
        if subsumes_graph(d, canon):
            stats.positives += 1
            continue
        stats.negatives += 1
        if canon.incoherent:
            # Incoherent subsumees are below everything, so the test cannot
            # answer no for them; defensive only.
            stats.record_failure("incoherent graph answered no")
            continue
        try:
            world, elem = construct_graphical_world(canon, steering=d, kb=kb)
        except CounterModelError as exc:
            stats.record_failure(
                "construction failed: D=%s C=%s (%s)"
                % (to_text(d), to_text(c), exc))
            continue
        if elem not in eval_graph(canon, world):
            stats.record_failure(
                "witness outside subsumee: D=%s C=%s" % (to_text(d),
                                                         to_text(c)))
        elif elem in eval_description(d, world):
            stats.record_failure(
                "witness not separating: D=%s C=%s" % (to_text(d),
                                                       to_text(c)))
    return stats

"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns plain text (or, for
``fuzz``, the seeds the property runners expand themselves), so the engine
only ever receives generated input.  The same seed gives the same inputs.
"""

from __future__ import annotations

import random

from classicdl.descriptions import to_text
from classicdl.randgen import ATTRS, INDIVIDUALS, ROLES, random_pair

# -- pairs ------------------------------------------------------------------

PAIRS_CORPUS = 4000

# The vocabulary of ``randgen``'s corpus, declared as a knowledge-base file
# so the parser resolves roles, attributes and individuals exactly as the
# generator meant them.
PAIRS_KB_TEXT = "\n".join(
    ["role %s" % r for r in ROLES]
    + ["attribute %s" % a for a in ATTRS]
    + ["individual %s" % i.name for i in INDIVIDUALS])


def pairs_corpus(seed: int, size: int = PAIRS_CORPUS) -> list[tuple[str, str]]:
    """``size`` (subsumer, subsumee) texts drawn by ``randgen.random_pair``."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        d, c = random_pair(rng)
        out.append((to_text(d), to_text(c)))
    return out


# -- deep -------------------------------------------------------------------

# Four doublings per family: enough points for a log-log fit, and small
# enough that one pass over all three ladders takes about two seconds.
DEEP_SIZES = {
    "and": (32, 64, 128, 256),
    "chain": (16, 32, 64, 128),
    "nested": (8, 16, 32, 64),
}


def and_text(n: int, extra: bool = False) -> str:
    """The n-ary conjunction of the criterion-10 family: atoms, at-least
    restrictions and same-as pairs in rotation, each on its own names."""
    items = []
    for i in range(n):
        if i % 3 == 0:
            items.append("A%d" % i)
        elif i % 3 == 1:
            items.append("at-least(%d, r%d)" % (1 + i % 3, i))
        else:
            items.append("same-as((f%d),(g%d))" % (i, i))
    if extra:
        items.append("EXTRA")
    return "and(%s)" % ", ".join(items)


def chain_text(n: int, extra: bool = False) -> str:
    """Same-as chain: a_i = b_i for every i and a_i = a_(i+1) along the
    chain, so canonicalization collapses n attribute targets into one."""
    parts = ["same-as((a%d),(b%d))" % (i, i) for i in range(1, n + 1)]
    parts += ["same-as((a%d),(a%d))" % (i, i + 1) for i in range(1, n)]
    if extra:
        parts.append("same-as((a1),(z1))")
    return "and(%s)" % ", ".join(parts)


def nested_text(n: int, extra: bool = False) -> str:
    """``n`` levels of all(r, and(X_k, at-least(1, r), ...)); the extra
    conjunct sits at the innermost level so a "no" answer is only found at
    the bottom of the recursion."""
    text = "and(X0, EXTRA)" if extra else "X0"
    for k in range(1, n + 1):
        text = "all(r, and(X%d, at-least(1, r), %s))" % (k, text)
    return text


DEEP_FAMILIES = {"and": and_text, "chain": chain_text, "nested": nested_text}


def deep_ladders(seed: int) -> list[tuple[str, int, bool, str, str]]:
    """(family, size, expected answer, subsumer text, subsumee text) for
    every ladder member, once as a yes query (D = C) and once as a no query
    (D has one conjunct C lacks).  The ladders are fixed shapes; the seed
    only shuffles the order of queries within a pass."""
    out = []
    for family, sizes in DEEP_SIZES.items():
        make = DEEP_FAMILIES[family]
        for n in sizes:
            c = make(n)
            out.append((family, n, True, c, c))
            out.append((family, n, False, make(n, extra=True), c))
    random.Random(seed).shuffle(out)
    return out


# -- taxonomy ---------------------------------------------------------------

# One pass classifies these knowledge bases.  In the larger ones the n^2
# subsumption-test loop of ``classify`` dominates (10,000 tests at 100
# concepts); averaging over several knowledge bases of each size keeps the
# pass cost steady from seed to seed, and the small ones keep the operation
# count high enough for a tail percentile within one run.  The counts put
# the median inside the 40-concept group and p90 inside the 60-concept
# group, not on a boundary between two sizes: the latency of the smallest
# knowledge bases swings far more with the machine's load than the rest.
TAXONOMY_SIZES = (100, 60, 60, 60) + (40,) * 8 + (20,) * 4 + (10,) * 4

_GROUPS = (("RED", "GREEN", "BLUE"), ("SMALL", "LARGE"))
_PRIMITIVES = {
    "animal": "at-least(1, r0)",
    "artifact": "and(all(r1, thing), at-most(3, r1))",
    "agent": "and(at-least(1, r2), same-as((f),(g)))",
}


def taxonomy_kb_text(seed: int, n: int, k: int) -> str:
    """The ``k``-th knowledge base of ``n`` named concepts.

    Concepts refer to earlier ones (told subsumers), share primitive tags
    with one fixed body per tag, take atoms from two disjointness groups,
    and restrict roles by number and by earlier named concepts.  The shape
    of the definitions is fixed by ``n`` and only the names, bounds and tags
    are drawn from the seed, so the cost of classifying the knowledge base
    hardly depends on the seed.
    """
    rng = random.Random("%d/%d/%d" % (seed, n, k))
    lines = ["role r0", "role r1", "role r2", "attribute f", "attribute g",
             "individual I0", "individual I1"]
    lines += ["disjoint %s" % " ".join(g) for g in _GROUPS]
    for i in range(n):
        parts = []
        # Told subsumers form a 4-ary heap, so the definition DAG is
        # log4(n) deep; every tenth concept has a second one among the roots.
        if i >= 4:
            parts.append("C%d" % (i // 4))
            if i % 10 == 0:
                parts.append("C%d" % rng.randrange(4))
        if i % 3 == 0:
            tag = rng.choice(sorted(_PRIMITIVES))
            parts.append("primitive(%s, %s)" % (_PRIMITIVES[tag], tag))
        if rng.random() < 0.08:
            parts.append(rng.choice(rng.choice(_GROUPS)))
        else:
            parts.append("A%d" % rng.randrange(8))
        role = "r%d" % rng.randrange(3)
        if i % 4 == 0:
            parts.append("at-least(%d, %s)" % (rng.randint(1, 2), role))
        elif i % 4 == 1:
            parts.append("at-most(%d, %s)" % (rng.randint(2, 4), role))
        elif i % 4 == 2:
            parts.append("all(%s, C%d)" % (role, rng.randrange(min(i, 4))))
        else:
            parts.append("fills(%s, I%d)" % (role, rng.randrange(2)))
        body = parts[0] if len(parts) == 1 else "and(%s)" % ", ".join(parts)
        lines.append("concept C%d := %s" % (i, body))
    return "\n".join(lines) + "\n"


def taxonomy_kbs(seed: int) -> list[tuple[int, str]]:
    return [(n, taxonomy_kb_text(seed, n, k))
            for k, n in enumerate(TAXONOMY_SIZES)]


# -- fuzz -------------------------------------------------------------------

FUZZ_BLOCKS = 16
FUZZ_SOUND_CASES = 20
FUZZ_SOUND_CHUNKS = 4
FUZZ_COMPLETE_CASES = 80
FUZZ_WORLDS_PER_CASE = 10
FUZZ_MAX_DOMAIN = 5


def fuzz_chunks(seed: int) -> list[tuple[str, int, int]]:
    """(runner, seed, cases) for consecutive chunks of property cases.

    Each block runs four soundness chunks of 20 cases and one completeness
    chunk of 80 cases, so both runners see the same number of cases while
    four in five runner calls are soundness calls: the median latency then
    always falls inside one runner's distribution.  Twenty cases per chunk
    keep the share of positive cases, which sets a soundness call's cost,
    close to its mean.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(FUZZ_BLOCKS):
        for _ in range(FUZZ_SOUND_CHUNKS):
            out.append(("soundness", rng.randrange(1 << 30), FUZZ_SOUND_CASES))
        out.append(("completeness", rng.randrange(1 << 30),
                    FUZZ_COMPLETE_CASES))
    return out


"""Canonical forms and graphical worlds of the random corpus, pinned.

``goldens/canonical_digests.json`` holds SHA-256 digests of the dumps
that the inputs below produce: the canonical form of every description
of the first 500 ``random_pair`` draws of seeds 0-2, in the engine's rule
order and with the passes and the nodes in reverse (``oracles.rule_order``),
and the counter-model world of each coherent subsumee, built
unsteered and steered by its subsumer.  A change to canonicalization or
to the counter-model construction that alters any graph or world shows
up here.  Print fresh digests with ``python tests/test_canonical_goldens.py``.
"""

import hashlib
import json
import pathlib
import random

from classicdl import graph, normalize, worlds
from classicdl.countermodel import CounterModelError, construct_graphical_world
from classicdl.normalize import canonicalize
from classicdl.randgen import corpus_kb, random_pair
from classicdl.subsume import subsumes_graph
from oracles import rule_order

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "canonical_digests.json"
SEEDS = (0, 1, 2)
PAIRS = 500


def golden_kb():
    """The random corpus's vocabulary with one disjointness group, so the
    disjointness rule fires too."""
    kb = corpus_kb()
    kb.disjoint_groups.append(frozenset({"TALL", "SMALL"}))
    return kb


def _update(h, obj) -> None:
    h.update(json.dumps(obj, sort_keys=True).encode())
    h.update(b"\n")


def digests() -> dict:
    kb = golden_kb()
    canon_h = hashlib.sha256()
    world_h = hashlib.sha256()
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(PAIRS):
            d, c = random_pair(rng)
            for desc in (d, c):
                canon = canonicalize(graph.translate(desc), kb)
                _update(canon_h, graph.to_jsonable(canon))
                with rule_order(reversed(normalize._PASSES),
                                reverse_nodes=True):
                    _update(canon_h, graph.to_jsonable(
                        canonicalize(graph.translate(desc), kb)))
            # ``canon`` is now the subsumee's canonical form
            if canon.incoherent:
                continue
            world, elem = construct_graphical_world(canon, kb=kb)
            _update(world_h, worlds.to_jsonable(world, elem))
            if subsumes_graph(d, canon):
                continue
            try:
                world, elem = construct_graphical_world(canon, steering=d,
                                                        kb=kb)
            except CounterModelError as exc:
                _update(world_h, "error: %s" % exc)
            else:
                _update(world_h, worlds.to_jsonable(world, elem))
    return {"canonical": canon_h.hexdigest(), "worlds": world_h.hexdigest()}


def test_canonical_forms_and_worlds_match_golden():
    assert digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2))

"""The four workloads: their operations and their correctness checks.

An operation returns ``(answer, evidence)``.  The answer is JSON data that
is compared across passes and with ``answers.json``; the evidence is what
the correctness check, run after the timed loop, needs to re-check the
answer independently of the structural test (counter-model worlds,
expanded descriptions, the loaded knowledge base).  The timed loop drops
the evidence.  The engine is always reached through module attributes, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from classicdl import countermodel, graph, kb as kbmod, normalize, parsing
from classicdl import randgen, subsume, worlds
from classicdl.descriptions import And, NamedRef

import inputs


@dataclass
class Op:
    label: str
    items: int
    run: Callable[[], tuple[object, object]]
    check: Callable[[object, object], str | None]


@dataclass
class Workload:
    ops: list[Op]
    warm: list[int]          # ops run during set-up, before timing
    traced: tuple[str, ...]  # engine functions the traced run wraps
    inputs: list             # the generated input text, for its digest


_QUERY_LAYERS = ("parsing.parse_description", "kb.expand", "graph.translate",
                 "graph.merge_graphs", "normalize.canonicalize",
                 "subsume.subsumes_graph",
                 "countermodel.construct_graphical_world",
                 "worlds.eval_description", "worlds.element_in_graph")


# -- subsumption queries (pairs, deep) --------------------------------------


def _query(kb, d_text: str, c_text: str):
    """The CLI ``subsumes``/``countermodel`` path: text to answer, with a
    counter-model world for every "no".  Without a knowledge base the
    attribute names are inferred from both texts together, as the CLI
    does."""
    if kb is None:
        attrs = parsing.infer_attr_names(d_text, c_text)
        d = parsing.parse_description(d_text, None, inferred_attrs=set(attrs))
        c = parsing.parse_description(c_text, None, inferred_attrs=set(attrs))
        kb = kbmod.KnowledgeBase.empty()
    else:
        d = parsing.parse_description(d_text, kb)
        c = parsing.parse_description(c_text, kb)
    de = kbmod.expand(d, kb)
    ce = kbmod.expand(c, kb)
    canon = normalize.canonicalize(graph.translate(ce), kb)
    if subsume.subsumes_graph(de, canon):
        return "yes", (de, ce, None)
    world, elem = countermodel.construct_graphical_world(canon, steering=de,
                                                         kb=kb)
    return "no", (de, ce, (canon, world, elem))


def _interpret_rest(world, *descs) -> None:
    """Interpret the names of the descriptions that the world leaves open.

    The counter-model interprets the names of C's canonical graph and of D;
    names that canonicalization removed from C get an empty concept or a
    fresh isolated element.  Neither changes the graph's extension, which
    C must equal in every world.
    """
    sig = worlds.Signature()
    for d in descs:
        sig = sig.merge(worlds.signature_of_description(d))
    for atom in sig.atoms:
        world.concept_ext.setdefault(atom, set())
    next_id = max((e.eid for e in world.classic), default=-1) + 1
    for name in sorted(sig.individuals - set(world.indiv_ext)):
        elem = worlds.ClassicElement(next_id)
        next_id += 1
        world.classic.add(elem)
        world.indiv_ext[name] = {elem}


def _disjointness_broken(world, groups) -> bool:
    for group in groups:
        seen: set = set()
        for atom in sorted(group):
            ext = world.concept_ext.get(atom, set())
            if ext & seen:
                return True
            seen |= ext
    return False


def _impose_disjointness(world, groups) -> None:
    """Make a sampled world a model of the disjointness groups: an element
    keeps only the first atom of each group it was drawn into."""
    for group in groups:
        seen: set = set()
        for atom in sorted(group):
            ext = world.concept_ext.get(atom)
            if ext is not None:
                ext -= seen
                seen |= ext


def _check_separation(de, ce, canon, world, elem, groups=()) -> str | None:
    """A counter-model element must lie in C's extension and outside D's,
    in a world that respects the knowledge base's disjointness groups."""
    try:
        world.check()
    except ValueError as exc:
        return "counter-model world is malformed: %s" % exc
    if _disjointness_broken(world, groups):
        return "counter-model world breaks a disjointness group"
    if elem not in worlds.eval_graph(canon, world):
        return "counter-model element outside the subsumee graph"
    _interpret_rest(world, de, ce)
    if elem not in worlds.eval_description(ce, world):
        return "counter-model element outside the subsumee"
    if elem in worlds.eval_description(de, world):
        return "counter-model element inside the subsumer"
    return None


def _check_containment(de, ce, samples: int, groups=()) -> str | None:
    """A "yes" must keep ext(C) inside ext(D) in sampled worlds that are
    models of the disjointness groups."""
    sig = worlds.signature_of_description(de).merge(
        worlds.signature_of_description(ce))
    for seed in range(samples):
        world = worlds.sample_interpretation(sig, seed=seed)
        _impose_disjointness(world, groups)
        if not worlds.eval_description(ce, world) <= \
                worlds.eval_description(de, world):
            return "containment fails in sampled world %d" % seed
    return None


def _check_query(answer, evidence, expected: str | None = None,
                 samples: int = 0) -> str | None:
    if expected is not None and answer != expected:
        return "answered %s, expected %s" % (answer, expected)
    de, ce, cm = evidence
    if answer == "no":
        return _check_separation(de, ce, *cm)
    return _check_containment(de, ce, samples) if samples else None


def pairs(seed: int) -> Workload:
    """Small random pairs; fixed per-query costs dominate.  Every canonical
    graph is built once and queried once."""
    kb = parsing.parse_kb(inputs.PAIRS_KB_TEXT)
    corpus = inputs.pairs_corpus(seed)
    ops = []
    for i, (d_text, c_text) in enumerate(corpus):
        ops.append(Op(
            "pair/%d" % i, 1,
            lambda d=d_text, c=c_text: _query(kb, d, c),
            lambda a, e: _check_query(a, e, samples=3)))
    return Workload(ops, list(range(50)), _QUERY_LAYERS,
                    [inputs.PAIRS_KB_TEXT, corpus])


def deep(seed: int) -> Workload:
    """Size ladders of the three scaling families; answers are known by
    construction."""
    ladders = inputs.deep_ladders(seed)
    ops = []
    for family, n, yes, d_text, c_text in ladders:
        expected = "yes" if yes else "no"
        ops.append(Op(
            "%s/%d/%s" % (family, n, expected), 1,
            lambda d=d_text, c=c_text: _query(None, d, c),
            lambda a, e, x=expected: _check_query(a, e, expected=x)))
    smallest = min(inputs.DEEP_SIZES[f][0] for f in inputs.DEEP_SIZES)
    warm = [i for i, op in enumerate(ops)
            if int(op.label.split("/")[1]) <= smallest]
    return Workload(ops, warm, _QUERY_LAYERS + ("parsing.infer_attr_names",),
                    ladders)


# -- taxonomy ---------------------------------------------------------------


def _classify(text: str):
    kb = parsing.parse_kb(text)
    return kbmod.classify(kb).to_jsonable(), kb


def _told_subsumers(kb) -> dict[str, list[str]]:
    out = {}
    for name, body in kb.named.items():
        items = body.items if isinstance(body, And) else (body,)
        out[name] = [d.name for d in items if isinstance(d, NamedRef)]
    return out


# Parent edges per knowledge base re-checked in worlds.
_EDGE_CHECKS = 12


def _check_taxonomy(answer, kb) -> str | None:
    """Structural checks on the DAG, told subsumers, and a sample of parent
    edges re-checked in worlds: a sampled world must keep the child inside
    the parent, and a counter-model must separate the parent from the
    child (the parent is strictly more general)."""
    node_of = {}
    for node in answer:
        for m in node["members"]:
            if m in node_of:
                return "%s appears twice in the taxonomy" % m
            node_of[m] = node["node"]
        if any(not 0 <= p < len(answer) or p == node["node"]
               for p in node["parents"]):
            return "node %d has an invalid parent" % node["node"]
    if set(node_of) != set(kb.named) | {"THING"}:
        return "taxonomy members differ from the named concepts"

    def ancestors(i, seen):
        for p in answer[i]["parents"]:
            if p not in seen:
                seen.add(p)
                ancestors(p, seen)
        return seen

    anc = [ancestors(i, set()) for i in range(len(answer))]
    if any(i in anc[i] for i in range(len(answer))):
        return "taxonomy has a cycle"
    for name, told in _told_subsumers(kb).items():
        for parent in told:
            a, b = node_of[name], node_of[parent]
            if a != b and b not in anc[a]:
                return "told subsumer %s is not above %s" % (parent, name)

    edges = [(answer[p]["members"][0], node["members"][0])
             for node in answer[1:] for p in node["parents"] if p != 0]
    rng = random.Random(len(answer))
    for parent, child in rng.sample(edges, min(_EDGE_CHECKS, len(edges))):
        pe = kbmod.expand(NamedRef(parent), kb)
        ce = kbmod.expand(NamedRef(child), kb)
        err = _check_containment(pe, ce, 2, kb.disjoint_groups)
        if err:
            return "%s above %s: %s" % (parent, child, err)
        canon = normalize.canonicalize(graph.translate(pe), kb)
        world, elem = countermodel.construct_graphical_world(
            canon, steering=ce, kb=kb)
        err = _check_separation(ce, pe, canon, world, elem,
                                kb.disjoint_groups)
        if err:
            return "%s strictly above %s: %s" % (parent, child, err)
    return None


def taxonomy(seed: int) -> Workload:
    """Knowledge bases with told subsumers, shared primitives, disjointness
    and role restrictions over named concepts.  Each canonical graph is
    queried about n times."""
    kbs = inputs.taxonomy_kbs(seed)
    ops = [Op("kb/%d/%d" % (n, k), n, lambda t=text: _classify(t),
              _check_taxonomy)
           for k, (n, text) in enumerate(kbs)]
    smallest = min(inputs.TAXONOMY_SIZES)
    warm = [i for i, op in enumerate(ops) if op.items == smallest][:2]
    return Workload(ops, warm, (
        "parsing.parse_kb", "kb.expand", "kb.classify", "graph.translate",
        "graph.merge_graphs", "normalize.canonicalize",
        "subsume.subsumes_graph"), kbs)


# -- fuzz -------------------------------------------------------------------


def _property_run(runner: str, seed: int, cases: int):
    if runner == "soundness":
        stats = randgen.soundness_run(
            seed, cases, worlds_per_case=inputs.FUZZ_WORLDS_PER_CASE,
            max_domain=inputs.FUZZ_MAX_DOMAIN)
    else:
        stats = randgen.completeness_run(seed, cases)
    answer = {"cases": stats.cases, "positives": stats.positives,
              "negatives": stats.negatives, "violations": stats.violations}
    return answer, stats.failures


def _check_property_run(answer, failures, cases: int) -> str | None:
    if answer["violations"]:
        return "%d violations: %s" % (answer["violations"], failures[:1])
    if answer["cases"] != cases or \
            answer["positives"] + answer["negatives"] != cases:
        return "case counts do not add up: %r" % (answer,)
    return None


def fuzz(seed: int) -> Workload:
    """The CLI ``fuzz`` path on consecutive chunks of property cases;
    world sampling and evaluation dominate."""
    chunks = inputs.fuzz_chunks(seed)
    ops = [Op("%s/%d" % (runner, s), cases,
              lambda r=runner, s=s, n=cases: _property_run(r, s, n),
              lambda a, e, n=cases: _check_property_run(a, e, n))
           for runner, s, cases in chunks]
    warm = [0, inputs.FUZZ_SOUND_CHUNKS]
    return Workload(ops, warm, (
        "randgen.soundness_run", "randgen.completeness_run",
        "graph.translate", "graph.merge_graphs", "normalize.canonicalize",
        "subsume.subsumes_graph", "countermodel.construct_graphical_world",
        "worlds.sample_interpretation", "worlds.eval_description",
        "worlds.eval_graph", "worlds.element_in_graph"),
        # The inputs are the pairs each runner call draws from its seed,
        # with the same random_pair calls.
        [(runner, s, n, inputs.pairs_corpus(s, n)) for runner, s, n in chunks])


WORKLOADS = {"pairs": pairs, "deep": deep, "taxonomy": taxonomy,
             "fuzz": fuzz}

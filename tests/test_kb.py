import gc
import importlib.util
import json
import random
from graphlib import CycleError, TopologicalSorter

import pytest

from classicdl import graph, normalize, subsume
from classicdl.descriptions import (
    AllAttr,
    AllRole,
    And,
    AtLeast,
    AtMost,
    CLASSIC_THING,
    ClassicThing,
    ConceptName,
    FillsAttr,
    FillsRole,
    HOST_THING,
    HostConcept,
    HostThing,
    NamedRef,
    NOTHING,
    Nothing,
    OneOf,
    SameAs,
    THING,
    Thing,
    to_text,
    walk,
)
from classicdl.graph import GraphNode, to_jsonable, translate
from classicdl.kb import (
    HostLattice,
    KbError,
    KnowledgeBase,
    Taxonomy,
    TaxonomyNode,
    _definition_order,
    _told_graphs,
    classify,
    expand,
)
from classicdl.normalize import canonicalize
from classicdl.parsing import parse_description, parse_kb
from classicdl.randgen import random_description, random_pair
from classicdl.subsume import equivalent, subsumes
from oracles import isomorphic, merge_told_graphs
from test_translate import INPUTS


def test_expand_two_step():
    kb = parse_kb("role r\nconcept E := GAME\nconcept F := E")
    assert expand(NamedRef("F"), kb) == ConceptName("GAME")


def test_expand_idempotent(kb, parse):
    kbx = parse_kb("role r\nconcept E := and(GAME, at-least(1, r))\n"
                   "concept F := and(E, PERSON)")
    d = expand(parse_description("and(F, E)", kbx), kbx)
    assert expand(d, kbx) == d


def test_primitive_rewrite():
    kb = parse_kb("role employeeNr")
    d = parse_description(
        "primitive(and(PERSON, at-least(1, employeeNr)), employee)", kb)
    out = expand(d, kb)
    assert out == And((
        ConceptName("@prim:employee"),
        And((ConceptName("PERSON"), AtLeast(1, "employeeNr"))),
    ))
    # the primitive is below its necessary conditions, not equal to them
    body = parse_description("and(PERSON, at-least(1, employeeNr))", kb)
    assert subsumes(body, d, kb)
    assert not subsumes(d, body, kb)


def test_primitive_tag_reuse_equivalent_ok():
    kb = parse_kb("role r")
    a = parse_description("primitive(and(GAME, PERSON), g1)", kb)
    b = parse_description("primitive(and(PERSON, GAME), g1)", kb)
    ea, eb = expand(a, kb), expand(b, kb)
    assert ea.items[0] == eb.items[0]
    assert equivalent(a, b, kb)


def test_primitive_tag_conflict():
    kb = parse_kb("role r")
    expand(parse_description("primitive(GAME, g1)", kb), kb)
    with pytest.raises(KbError, match="non-equivalent"):
        expand(parse_description("primitive(PERSON, g1)", kb), kb)


def test_test_concepts_are_black_boxes(parse, kb):
    t = parse("test(prime, host)")
    assert equivalent(t, parse("test(prime, host)"), kb)
    assert not subsumes(t, parse("test(odd, host)"), kb)
    assert not subsumes(t, parse("INTEGER"), kb)
    # realm marker keeps the two families apart
    assert subsumes(parse("host-thing"), t, kb)
    assert subsumes(parse("classic-thing"), parse("test(adult, classic)"),
                    kb)
    from classicdl.graph import translate
    from classicdl.normalize import canonicalize
    g = canonicalize(translate(expand(
        parse("and(test(prime, host), test(adult, classic))"), kb)), kb)
    assert g.incoherent


def test_minted_atoms_are_namespaced(parse, kb):
    out = expand(parse("primitive(GAME, employee)"), kb)
    atom = out.items[0].name
    assert atom.startswith("@")
    from classicdl.parsing import ParseError
    with pytest.raises(ParseError):
        parse_description(atom, kb)


def _doubling_chain_kb() -> KnowledgeBase:
    # growth of the expansion is exponential in the number of definitions
    lines = ["role r", "concept C0 := and(GAME, at-least(1, r))"]
    for i in range(1, 18):
        lines.append("concept C%d := and(C%d, C%d)" % (i, i - 1, i - 1))
    return parse_kb("\n".join(lines))


def test_expansion_limit():
    kb = _doubling_chain_kb()
    with pytest.raises(KbError, match="size limit"):
        expand(NamedRef("C17"), kb)


def test_classify_does_not_expand_told_names():
    # Every name of the doubling chain is equivalent to C0, although the
    # expansion of the last ones exceeds the size limit.
    kb = _doubling_chain_kb()
    tax = classify(kb)
    assert [(n.members, n.parents) for n in tax.nodes] == \
        [(["THING"], []), (sorted(kb.named), [0])]


def test_host_lattice_rules():
    lat = HostLattice()
    assert lat.leq("INTEGER", "NUMBER")
    assert not lat.leq("NUMBER", "INTEGER")
    assert lat.comparable("REAL", "INTEGER")
    assert not lat.comparable("STRING", "REAL")
    with pytest.raises(KbError, match="already declared"):
        lat.add_type("INTEGER")


def test_classify_rejects_told_cycle():
    kb = KnowledgeBase.empty()
    kb.named["A"] = And((NamedRef("B"), ConceptName("GAME")))
    kb.named["B"] = NamedRef("A")
    with pytest.raises(KbError, match="recursive named concept"):
        classify(kb)


def _random_refs(rng: random.Random, n: int, cycle: int):
    """``n`` names, each referring to up to three names before it in a
    random order, so the map is a DAG; with ``cycle`` > 0, also one cycle
    through that many names (one is a name referring to itself).  The
    map's own order is shuffled too."""
    names = ["N%d" % i for i in range(n)]
    rng.shuffle(names)
    refs = {name: set(rng.sample(names[:i], min(i, rng.randint(0, 3))))
            for i, name in enumerate(names)}
    ring = rng.sample(names, cycle)
    for a, b in zip(ring, ring[1:] + ring[:1]):
        refs[a].add(b)
    return {name: refs[name] for name in rng.sample(names, n)}


def _on_a_cycle(refs, name) -> bool:
    seen, stack = set(), list(refs[name])
    while stack:
        ref = stack.pop()
        if ref == name:
            return True
        if ref not in seen:
            seen.add(ref)
            stack.extend(refs[ref])
    return False


@pytest.mark.parametrize("seed", range(40))
def test_definition_order_against_graphlib(seed):
    # One depth-first pass must list what graphlib's sort lists, each name
    # after the names it refers to, and raise on every cycle, naming a
    # name on it.
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    dag = _random_refs(rng, n, 0)
    order = _definition_order(dag)
    assert sorted(order) == sorted(TopologicalSorter(dag).static_order())
    at = {name: k for k, name in enumerate(order)}
    assert all(at[ref] < at[name] for name, refs in dag.items()
               for ref in refs)
    cyclic = _random_refs(rng, n, rng.randint(1, min(n, 5)))
    with pytest.raises(CycleError):
        list(TopologicalSorter(cyclic).static_order())
    with pytest.raises(KbError, match="recursive named concept: ") as exc:
        _definition_order(cyclic)
    assert _on_a_cycle(cyclic, str(exc.value).rsplit(" ", 1)[1])


def test_classify_orders_by_strength():
    kb = parse_kb("role r\n"
                  "concept BIG := at-least(4, r)\n"
                  "concept SMALL := at-least(2, r)")
    tax = classify(kb)
    by_member = {m: i for i, n in enumerate(tax.nodes) for m in n.members}
    small_node = tax.nodes[by_member["BIG"]]
    assert small_node.parents == [by_member["SMALL"]]
    assert tax.nodes[by_member["SMALL"]].parents == [0]


def test_classify_collapses_equivalents():
    kb = parse_kb("concept A := GAME\nconcept B := GAME")
    tax = classify(kb)
    (node,) = [n for n in tax.nodes if "A" in n.members]
    assert node.members == ["A", "B"]


def test_classify_empty_kb():
    tax = classify(KnowledgeBase.empty())
    assert len(tax.nodes) == 1
    assert tax.nodes[0].members == ["THING"]


def test_classify_transitive_reduction():
    kb = parse_kb("role r\n"
                  "concept N1 := at-least(1, r)\n"
                  "concept N2 := at-least(2, r)\n"
                  "concept N3 := at-least(3, r)")
    tax = classify(kb)
    by_member = {m: i for i, n in enumerate(tax.nodes) for m in n.members}
    assert tax.nodes[by_member["N3"]].parents == [by_member["N2"]]
    assert tax.nodes[by_member["N2"]].parents == [by_member["N1"]]
    assert tax.nodes[by_member["N1"]].parents == [0]


def test_classify_spot_check_against_subsumes():
    import random

    from classicdl.randgen import corpus_kb, random_description

    rng = random.Random(13)
    kb = corpus_kb()
    for i in range(8):
        kb.named["N%d" % i] = random_description(rng, depth=2)
    tax = classify(kb)
    by_member = {m: i for i, n in enumerate(tax.nodes) for m in n.members}
    for i in range(8):
        for j in range(8):
            a, b = "N%d" % i, "N%d" % j
            if by_member[a] == by_member[b]:
                assert equivalent(NamedRef(a), NamedRef(b), kb)
    # parent edges agree with pairwise subsumption
    for idx, node in enumerate(tax.nodes):
        if idx == 0:
            continue
        child = node.members[0]
        for p in node.parents:
            if p == 0:
                continue
            parent = tax.nodes[p].members[0]
            assert subsumes(NamedRef(parent), NamedRef(child), kb)
            assert not subsumes(NamedRef(child), NamedRef(parent), kb)


def test_taxonomy_dump_shape():
    kb = parse_kb("concept A := GAME")
    data = classify(kb).to_jsonable()
    assert data[0]["members"] == ["THING"]
    assert {"node", "members", "parents"} <= set(data[1].keys())


# -- classification against the n^2 reference ------------------------------

def reference_classify(kb: KnowledgeBase) -> Taxonomy:
    """The n^2 classification, kept as an oracle: every name's whole
    expanded definition is tested against every canonical graph, and
    THING-equivalence is a test against the canonical graph of ``thing``."""
    names = sorted(kb.named)
    expanded = {n: expand(NamedRef(n), kb) for n in names}
    canon = {n: canonicalize(translate(expanded[n]), kb) for n in names}
    geq = {(a, b): subsume.subsumes_graph(expanded[a], canon[b])
           for a in names for b in names}
    top = canonicalize(translate(Thing()))
    equiv_thing = {n: subsume.subsumes_graph(expanded[n], top)
                   for n in names}

    classes: list[list[str]] = []
    for n in names:
        for cls in classes:
            rep = cls[0]
            if geq[(n, rep)] and geq[(rep, n)]:
                cls.append(n)
                break
        else:
            classes.append([n])

    nodes = [TaxonomyNode(members=["THING"], parents=[])]
    index_of: dict[int, int] = {}
    for i, cls in enumerate(classes):
        if equiv_thing[cls[0]]:
            nodes[0].members.extend(cls)
            continue
        index_of[i] = len(nodes)
        nodes.append(TaxonomyNode(members=list(cls), parents=[]))

    def above(i: int, j: int) -> bool:
        return geq[(classes[i][0], classes[j][0])] and \
            not geq[(classes[j][0], classes[i][0])]

    for i, idx in index_of.items():
        ancestors = [j for j in index_of if above(j, i)]
        nearest = [j for j in ancestors
                   if not any(above(j, k) for k in ancestors if k != j)]
        nodes[idx].parents = sorted(index_of[j] for j in nearest) or [0]
    return Taxonomy(nodes)


_VOCABULARY = ["role r", "role s", "attribute f", "attribute g",
               "attribute h", "individual P", "individual Q", "individual V",
               "disjoint RED GREEN BLUE", "disjoint TALL SMALL"]
_TAGS = {"animal": "at-least(1, r)", "artifact": "all(s, GAME)",
         "agent": "and(PERSON, same-as((f),(g)))"}


def oracle_kb_text(seed: int, n: int) -> str:
    """``n`` named concepts in every shape classification meets: told
    chains, two told parents, told synonyms, ``thing`` and ``and(D, thing)``,
    told names nested inside ``and``, primitives with one body per tag,
    test concepts, atoms of disjointness groups, value restrictions on
    earlier names, and random clauses (incoherent ones included)."""
    rng = random.Random("oracle/%d/%d" % (seed, n))

    def clause() -> str:
        if rng.random() < 0.3:
            return rng.choice(("RED", "GREEN", "BLUE", "TALL", "SMALL"))
        return to_text(random_description(rng, depth=2))

    lines = list(_VOCABULARY)
    for i in range(n):
        earlier = ["C%d" % j for j in range(i)]
        shape = rng.randrange(11) if earlier else 0
        if shape == 0:
            body = clause()
        elif shape == 1:
            body = rng.choice(earlier)
        elif shape == 2:
            body = "thing"
        elif shape == 3:
            body = "and(%s, thing)" % rng.choice(earlier)
        elif shape == 4:
            body = "and(C%d, %s)" % (i - 1, clause())
        elif shape == 5:
            p, q = rng.choice(earlier), rng.choice(earlier)
            body = "and(%s, %s, %s)" % (p, q, clause())
        elif shape == 6:
            body = "and(%s, and(%s, %s))" % (
                rng.choice(earlier), rng.choice(earlier), clause())
        elif shape == 7:
            tag = rng.choice(sorted(_TAGS))
            body = "and(%s, primitive(%s, %s))" % (
                rng.choice(earlier), _TAGS[tag], tag)
        elif shape == 8:
            body = "and(%s, test(%s, classic))" % (
                rng.choice(earlier), rng.choice(("big", "odd")))
        elif shape == 9:
            body = "and(%s, all(%s, %s))" % (
                clause(), rng.choice("rs"), rng.choice(earlier))
        else:
            body = "and(%s, %s)" % (rng.choice(earlier), rng.choice(earlier))
        lines.append("concept C%d := %s" % (i, body))
    return "\n".join(lines) + "\n"


def told_heap_kb_text(n: int) -> str:
    """``n`` concepts whose told subsumers form a 4-ary heap, each adding
    one atom and one number restriction."""
    lines = ["role r0", "role r1"]
    for i in range(n):
        own = "A%d, at-least(%d, r%d)" % (i % 8, 1 + i % 3, i % 2)
        body = "and(C%d, %s)" % (i // 4, own) if i >= 4 else "and(%s)" % own
        lines.append("concept C%d := %s" % (i, body))
    return "\n".join(lines) + "\n"


def test_oracle_kbs_cover_every_shape():
    text = "".join(oracle_kb_text(seed, n)
                   for seed in range(3) for n in (10, 40, 100))
    for shape in (" := C", ":= thing", ", thing)", "primitive(", "test(",
                  "and(C", ", and(C", "RED"):
        assert shape in text


@pytest.mark.parametrize("n, seed", [(n, seed) for seed in range(3)
                                     for n in (10, 25, 50, 100)]
                         + [(200, 0)])
def test_classify_matches_reference(seed, n):
    kb = parse_kb(oracle_kb_text(seed, n))
    got = json.dumps(classify(kb).to_jsonable())
    assert got == json.dumps(reference_classify(kb).to_jsonable())


def test_classify_matches_reference_on_told_heap():
    for n in (100, 400):
        kb = parse_kb(told_heap_kb_text(n))
        got = json.dumps(classify(kb).to_jsonable())
        assert got == json.dumps(reference_classify(kb).to_jsonable()), n


def bottom_kb_text(coherent: int, incoherent: int) -> str:
    """``told_heap_kb_text(coherent)`` and ``incoherent`` names that conjoin
    the disjoint atoms X and Y directly, under a coherent told name, or
    through an earlier incoherent name."""
    lines = ["role s", "disjoint X Y"]
    for j in range(incoherent):
        if j % 3 == 0:
            body = "and(X, Y, A%d)" % (j % 8)
        elif j % 3 == 1:
            body = "and(C%d, X, all(s, B%d), Y)" % (j % coherent, j % 5)
        else:
            body = "and(C%d, D%d)" % (j % coherent, j - 1)
        lines.append("concept D%d := %s" % (j, body))
    return told_heap_kb_text(coherent) + "\n".join(lines) + "\n"


def test_incoherent_names_form_the_bottom_class(count_tests):
    # An incoherent name is below every name: classify gives it all names
    # as subsumers and tests nothing against it, so the structural tests
    # grow with the coherent names only (669 here without the root index,
    # none with it; 67,226 when every incoherent name stayed a candidate
    # of every test).
    coherent, incoherent = 40, 160
    kb = parse_kb(bottom_kb_text(coherent, incoherent))
    tax, calls = count_tests(classify, kb)
    assert calls <= 25 * coherent, calls
    got = tax.to_jsonable()
    assert json.dumps(got) == json.dumps(reference_classify(kb).to_jsonable())
    assert sorted("D%d" % j for j in range(incoherent)) in (
        sorted(node["members"]) for node in got)


@pytest.mark.parametrize("text, budget", [
    (told_heap_kb_text(400), 0),
    (oracle_kb_text(0, 200), 4_000),
], ids=["told-heap-400", "oracle-0-200"])
def test_classify_answers_root_clauses_from_the_index(text, budget,
                                                      count_tests):
    # Atoms, number restrictions and role fillers are answered from the
    # root index; only the other clauses run the structural test, on the
    # candidates the index leaves (28,380 and 12,626 tests when every
    # clause ran it on every candidate).
    _, calls = count_tests(classify, parse_kb(text))
    assert calls <= budget, calls


# Leaves every knowledge base is asked about: THING in each spelling, the
# realm markers as constructors and as atoms, and the default host types.
_FIXED_LEAVES = (
    Thing(), ClassicThing(), HostThing(), Nothing(),
    ConceptName(THING), HostConcept(THING),
    ConceptName(CLASSIC_THING), ConceptName(HOST_THING), ConceptName(NOTHING),
    *(HostConcept(h) for h in ("STRING", "NUMBER", "COMPLEX", "REAL",
                               "INTEGER")),
)

# The leaves that read beyond a subsumee's root and its r-edges.
_NOT_INDEXED = {AllAttr, SameAs, FillsAttr, OneOf}


def _root_leaves(d):
    if isinstance(d, And):
        return [leaf for c in d.items for leaf in _root_leaves(c)]
    return [d]


def assert_root_index_agrees(kb: KnowledgeBase) -> int:
    """The root index answers every root leaf of the names' clauses, the
    fixed leaves, and each bound and filler over the declared roles, for
    each coherent name exactly as ``subsume._failure`` does at its root,
    and answers "not indexed" exactly for the leaves that read further.
    Returns the number of leaves checked."""
    _, parts, canon = _told_graphs(kb)
    graphs = {n: g for n, g in canon.items() if not g.incoherent}
    index = subsume.RootIndex(graphs)
    leaves = set(_FIXED_LEAVES)
    for _, clauses in parts.values():
        for c in clauses:
            leaves.update(_root_leaves(c))
    for r in kb.roles:
        leaves.update(AtLeast(k, r) for k in (1, 2, 3))
        leaves.update(AtMost(k, r) for k in (0, 1, 2, 3))
        leaves.update(FillsRole(r, i) for i in kb.individuals.values())
    names = set(graphs)
    half = set(sorted(names)[::2])
    for leaf in leaves:
        got = index.holds_for(leaf, names)
        if type(leaf) in _NOT_INDEXED:
            assert got is None, to_text(leaf)
            continue
        want = {n for n, g in graphs.items()
                if subsume._failure(leaf, g, g.root) is None}
        assert got == want, to_text(leaf)
        assert index.holds_for(leaf, half) == want & half, to_text(leaf)
    return len(leaves)


@pytest.mark.parametrize("seed", range(3))
def test_root_index_agrees_with_the_structural_test(seed):
    assert assert_root_index_agrees(parse_kb(oracle_kb_text(seed, 100))) \
        > len(_FIXED_LEAVES)


def _assert_told_built_graphs_are_canonical(kb):
    # A name's graph, built from its told names' canonical graphs, is the
    # canonical graph of its whole expanded definition, and every graph in
    # it is frozen under ``kb`` (or every knowledge base), so copying a
    # frozen graph alone leaves none of its nested graphs open to change.
    _, _, canon = _told_graphs(kb)
    for name in kb.named:
        whole = canonicalize(translate(expand(NamedRef(name), kb)), kb)
        assert isomorphic(canon[name], whole), name
        assert all(sub.canonical_under(kb)
                   for sub in canon[name].subgraphs()), name


@pytest.mark.parametrize("seed", range(3))
def test_told_built_graphs_are_canonical(seed):
    for n in (10, 25, 50, 100, 200):
        _assert_told_built_graphs_are_canonical(
            parse_kb(oracle_kb_text(seed, n)))


# B's told graphs are P's and A's, which is built from P's: the two share
# every node of P's graph unless they are copied apart.  The r-edge case
# shares the nodes of a nested restriction graph instead.
SHARED_TOLD_KBS = [
    "attribute f\n"
    "concept P := all(f, X)\n"
    "concept A := and(P, all(f, Y))\n"
    "concept B := and(A, P)\n"
    "concept D := and(P, A, P)\n",
    "role r\nattribute f\n"
    "concept P := all(r, all(f, X))\n"
    "concept A := and(P, all(r, all(f, Y)))\n"
    "concept B := and(A, P)\n",
]


@pytest.mark.parametrize("text", SHARED_TOLD_KBS, ids=("a-edge", "r-edge"))
def test_told_names_that_share_a_told_name(text):
    kb = parse_kb(text)
    _assert_told_built_graphs_are_canonical(kb)
    got = json.dumps(classify(kb).to_jsonable())
    assert got == json.dumps(reference_classify(kb).to_jsonable())


# A child name C runs a rule that changes a restriction graph on the one
# it shares with its told name P: the zero-max rule on the shared {THING}
# restriction, filler bookkeeping that narrows the dom of the r-edge
# merged with P's, and a second all(r, ...) merged into P's restriction.
RESTRICTION_RULE_KBS = [
    "role r\n"
    "concept P := and(A, at-least(1, r))\n"
    "concept C := and(P, at-most(0, r))\n",
    "role r\nindividual I0\n"
    "concept P := and(A, all(r, B))\n"
    "concept C := and(P, fills(r, I0), at-most(1, r))\n",
    "role r\nattribute f\nattribute g\nindividual I0\n"
    "concept P := all(r, all(f, all(g, X)))\n"
    "concept C := and(P, all(r, all(f, fills(g, I0))))\n",
]


@pytest.mark.parametrize("text", [
    *(oracle_kb_text(seed, 100) for seed in range(3)),
    told_heap_kb_text(100),
    *SHARED_TOLD_KBS,
    *RESTRICTION_RULE_KBS,
], ids=["oracle-0", "oracle-1", "oracle-2", "told-heap", "shared-a-edge",
        "shared-r-edge", "max-zero", "narrow-dom", "merge-restriction"])
def test_classify_leaves_told_graphs_unchanged(text, monkeypatch):
    # Told canonical graphs are frozen: building the names that share
    # them changes none of them.
    kb = parse_kb(text)
    built = []
    real = normalize.canonical_graph

    def snapshot(d, kb=None, told=()):
        canon = real(d, kb, told)
        built.append((canon, to_jsonable(canon)))
        return canon

    monkeypatch.setattr(normalize, "canonical_graph", snapshot)
    classify(kb)
    assert len(built) == len(kb.named)
    for canon, before in built:
        assert to_jsonable(canon) == before


def _taxonomy_kbs(seed):
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [text for _, text in inputs.taxonomy_kbs(seed)]


@pytest.mark.parametrize("text", [
    *(oracle_kb_text(seed, 100) for seed in range(3)),
    told_heap_kb_text(100),
    *SHARED_TOLD_KBS,
    *RESTRICTION_RULE_KBS,
    *_taxonomy_kbs(0),
])
def test_told_graphs_match_the_merging_builder(text):
    # Each told graph, built once from its own clauses' translation and
    # copies of its told graphs, dumps as the merge of the told graphs
    # and of one translation per clause, canonicalized whole.
    kb = parse_kb(text)
    _, _, canon = _told_graphs(kb)
    merged = merge_told_graphs(kb)
    for name in kb.named:
        assert to_jsonable(canon[name]) == to_jsonable(merged[name]), name


def test_classify_clones_only_told_graph_nodes(monkeypatch):
    # Building a name's graph copies the parts of its told graphs that
    # normalization may change, each told graph's root r-edges and its
    # other nodes, and nothing of the fresh translation: on a told chain
    # that is one clone per non-root node of each told graph, and every
    # node cloned belongs to a told graph.
    n = 30
    kb = parse_kb("role r\nattribute f\nconcept C0 := all(f, A0)\n" + "".join(
        "concept C%d := and(C%d, all(f, A%d), all(r, B%d))\n"
        % (i, i - 1, i, i) for i in range(1, n)))
    cloned = []
    real = GraphNode.clone

    def counted(node):
        cloned.append(node)
        return real(node)

    monkeypatch.setattr(GraphNode, "clone", counted)
    _, parts, canon = _told_graphs(kb)
    told_nodes = {id(node) for g in canon.values() for sub in g.subgraphs()
                  for node in sub.nodes.values()}
    assert cloned and all(id(node) in told_nodes for node in cloned)
    expected = sum(len(canon[p].nodes) - 1
                   for told, _ in parts.values() for p in told)
    assert len(cloned) == expected
    cloned.clear()
    classify(kb)
    assert len(cloned) == expected


def test_classify_translates_each_clause_once(monkeypatch):
    # A told chain C_i := and(C_i-1, A_i): rebuilding every told name
    # inside each name that conjoins it takes about n^2 translate calls,
    # nested ones included.
    n = 200
    kb = parse_kb("concept C0 := A0\n" + "".join(
        "concept C%d := and(C%d, A%d)\n" % (i, i - 1, i) for i in range(1, n)))
    calls = [0]
    real = graph.translate

    def counted(d):
        calls[0] += 1
        return real(d)

    monkeypatch.setattr(graph, "translate", counted)
    tax = classify(kb)
    assert calls[0] <= 3 * n
    node_of = {m: i for i, node in enumerate(tax.nodes) for m in node.members}
    assert all(tax.nodes[node_of["C%d" % i]].parents
               == [node_of["C%d" % (i - 1)]] for i in range(1, n))


def test_classify_reuses_told_rows(count_steps):
    # On a told heap most pairs are settled by a told subsumer's row, so
    # classify needs far fewer structural tests than the n^2 reference.
    kb = parse_kb(told_heap_kb_text(100))
    _, fast = count_steps(classify, kb)
    _, slow = count_steps(reference_classify, kb)
    assert fast * 10 <= slow


def test_classify_without_told_names_costs_no_more(count_steps):
    kb = parse_kb("\n".join(_VOCABULARY) + "\n" + "".join(
        "concept C%d := %s\n" % (i, to_text(random_description(
            random.Random(i), depth=2))) for i in range(30)))
    assert not any(isinstance(c, NamedRef)
                   for d in kb.named.values() for c in walk(d))
    _, fast = count_steps(classify, kb)
    _, slow = count_steps(reference_classify, kb)
    assert fast <= slow


def test_expand_keeps_a_description_without_names():
    rng = random.Random(4)
    for _ in range(300):
        for d in random_pair(rng):
            assert expand(d, KnowledgeBase.empty()) is d


def test_expand_builds_no_reference_cycle():
    kb = parse_kb("\n".join(["role r", "concept C0 := Y0"] + [
        "concept C%d := and(C%d, all(r, Y%d))" % (i, i - 1, i)
        for i in range(1, 40)]))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        expanded = expand(NamedRef("C39"), kb)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert to_text(expanded).count("all(r, ") == 39

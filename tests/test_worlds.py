import random

import pytest

from classicdl.countermodel import construct_graphical_world
from classicdl.descriptions import (
    AllRole,
    AtLeast,
    AtMost,
    FillsRole,
    Individual,
    walk,
)
from classicdl.graph import GraphNode, translate
from classicdl.kb import expand
from classicdl.normalize import canonicalize
from classicdl.randgen import corpus_kb, random_pair
from classicdl.worlds import (
    ClassicElement,
    EvalError,
    HostElement,
    Interpretation,
    Signature,
    eval_description,
    eval_graph,
    sample_interpretation,
    signature_of_description,
)
from oracles import bounded_model_search, world_domain


def _world() -> Interpretation:
    w = Interpretation()
    w.classic = {ClassicElement(i) for i in range(4)}
    w.concept_ext = {"GAME": {ClassicElement(0), ClassicElement(1)}}
    w.role_ext = {"r": {}}
    w.attr_ext = {"f": {}}
    w.indiv_ext = {}
    return w


def test_thing_is_whole_domain(parse):
    w = _world()
    assert eval_description(parse("thing"), w) == \
        frozenset(w.classic) | frozenset(w.hosts)
    assert eval_description(parse("classic-thing"), w) == frozenset(w.classic)
    assert eval_description(parse("nothing"), w) == frozenset()


def test_uninterpreted_name_errors(parse):
    w = _world()
    with pytest.raises(EvalError, match="uninterpreted"):
        eval_description(parse("PERSON"), w)
    with pytest.raises(EvalError, match="uninterpreted"):
        eval_description(parse("one-of(P)"), w)


def test_congruent_fillers_count_once(parse):
    w = _world()
    e0, e1, e2 = ClassicElement(0), ClassicElement(1), ClassicElement(2)
    w.indiv_ext["P"] = {e1, e2}
    w.role_ext["r"] = {e0: {e1, e2}}
    # two fillers inside one individual's extension: congruent, counted once
    assert e0 in eval_description(parse("at-most(1, r)"), w)
    assert e0 not in eval_description(parse("at-least(2, r)"), w)
    assert e0 in eval_description(parse("fills(r, P)"), w)


def _count_by_owner_scan(world, elems) -> int:
    """Congruence classes found element by element: an element of an
    individual stands for that individual, any other for itself."""
    keys = set()
    for e in elems:
        owners = [n for n, ext in world.indiv_ext.items() if e in ext]
        keys.add(("ind", owners[0]) if owners else e)
    return len(keys)


def test_count_non_congruent_matches_owner_scan():
    sig = Signature(roles={"r", "s"}, individuals={"P", "Q", "V"},
                    max_number=3)
    merged = 0
    for seed in range(50):
        world = sample_interpretation(sig, seed)
        for table in world.role_ext.values():
            for fillers in table.values():
                count = world.count_non_congruent(fillers)
                assert count == _count_by_owner_scan(world, fillers)
                merged += count < len(fillers)
    assert merged > 20, merged


def test_jaded_person_witness_world(parse, kb):
    # two distinct realizations of the enumerated places, both with
    # penguins: the body holds while the one-filler bound fails
    w = Interpretation()
    d1, d2, d3, d4, e = (ClassicElement(i) for i in range(5))
    yes = HostElement("STRING", "Yes")
    no = HostElement("STRING", "No")
    w.classic = {d1, d2, d3, d4, e}
    w.hosts |= {yes, no}
    w.indiv_ext = {"Arctic": {d1, d2}, "Antarctic": {d3, d4}}
    w.attr_ext = {"hasPenguins": {d1: yes, d2: no, d3: yes, d4: no}}
    w.role_ext = {"wantsToVisit": {e: {d1, d3}}}
    w.check()
    body = parse('all(wantsToVisit, and(one-of(Arctic, Antarctic), '
                 'all(hasPenguins, one-of("Yes"))))')
    assert e in eval_description(body, w)
    assert e not in eval_description(parse("at-most(1, wantsToVisit)"), w)
    assert w.count_non_congruent([d1, d3]) == 2


def test_same_as_requires_identity(parse):
    w = _world()
    e0, e1, e2 = ClassicElement(0), ClassicElement(1), ClassicElement(2)
    w.attr_ext = {"f": {e0: e1}, "g": {e0: e1, e1: e2}}
    assert e0 in eval_description(parse("same-as((f),(g))"), w)
    # chains through the host sink are undefined, not equal
    assert e1 not in eval_description(parse("same-as((f),(g))"), w)
    assert e1 not in eval_description(parse("same-as((f,f),(f,f))"), w)


def test_host_one_of_and_concepts(parse):
    w = _world()
    four = HostElement("INTEGER", 4)
    w.hosts.add(four)
    assert four in eval_description(parse("one-of(4)"), w)
    assert four in eval_description(parse("INTEGER"), w)
    assert four in eval_description(parse("NUMBER"), w)
    assert four not in eval_description(parse("STRING"), w)
    assert w.sink not in eval_description(parse("one-of(4)"), w)


def test_eval_graph_matches_eval_description(parse, kb):
    texts = [
        "and(GAME, at-least(1, r))",
        "and(all(r, one-of(P, Q)), at-least(2, r))",
        "same-as((f),(g,h))",
        "and(fills(coach, Pat), all(coach, classic-thing))",
        "and(all(friend, TALL), same-as((friend),(friend,friend)))",
        "one-of(4, 7)",
        "and(at-most(0, r), all(r, GAME))",
    ]
    for text in texts:
        d = expand(parse(text), kb)
        g = translate(d)
        cg = canonicalize(g, kb)
        sig = signature_of_description(d)
        for seed in range(6):
            w = sample_interpretation(sig, seed=seed * 31 + 1)
            ext = eval_description(d, w)
            assert eval_graph(g, w) == ext, text
            assert eval_graph(cg, w) == ext, text


def test_incoherent_graph_empty_everywhere(parse, kb):
    g = canonicalize(translate(parse("and(at-least(2, r), at-most(1, r))")),
                     kb)
    sig = signature_of_description(parse("at-least(1, r)"))
    for seed in range(5):
        assert eval_graph(g, sample_interpretation(sig, seed)) == frozenset()


def test_elements_are_interned():
    assert ClassicElement(3) is ClassicElement(3)
    assert HostElement("INTEGER", 4) is HostElement("INTEGER", 4)
    assert HostElement("INTEGER", anon_id=2) is \
        HostElement("INTEGER", None, 2)
    assert HostElement("INTEGER", 4) is not HostElement("REAL", 4)
    assert HostElement(None, anon_id=-1) is Interpretation().sink
    assert repr(ClassicElement(3)) == "ClassicElement(eid=3)"


def test_elements_are_immutable():
    e, h = ClassicElement(5), HostElement("STRING", "x")
    for elem, name in ((e, "eid"), (h, "value"), (h, "anon_id")):
        with pytest.raises(AttributeError):
            setattr(elem, name, 7)
        with pytest.raises(AttributeError):
            delattr(elem, name)
    assert (e.eid, h.value, h.anon_id) == (5, "x", None)


def test_countermodel_and_sampled_elements_meet(parse, kb):
    # the builder and the sampler make their elements independently; equal
    # elements are one object, so sets of either kind meet
    d = expand(parse("and(GAME, fills(r, P), fills(f, 3))"), kb)
    g = canonicalize(translate(d), kb)
    built, _ = construct_graphical_world(g, kb=kb)
    sampled = sample_interpretation(signature_of_description(d), seed=2)
    shared = (built.classic | built.hosts) & (sampled.classic | sampled.hosts)
    assert ClassicElement(0) in shared
    assert HostElement("INTEGER", 3) in shared
    for elem in shared:
        assert any(elem is x for x in built.classic | built.hosts)
        assert any(elem is x for x in sampled.classic | sampled.hosts)


def test_sampler_reproducible(parse):
    sig = signature_of_description(
        parse("and(GAME, fills(r, P), same-as((f),(g,h)))"))
    a = sample_interpretation(sig, seed=11)
    b = sample_interpretation(sig, seed=11)
    assert a.concept_ext == b.concept_ext
    assert a.role_ext == b.role_ext
    assert a.attr_ext == b.attr_ext
    assert a.indiv_ext == b.indiv_ext
    a.check()


def test_sampler_closes_equations(parse):
    # same-as clauses hold somewhere in most sampled worlds, not only by
    # a rare coincidence of random attribute tables
    for text in ["same-as((f),(g,h))", "same-as((f),(f,f))"]:
        d = parse(text)
        sig = signature_of_description(d)
        assert sig.equations == {(d.left, d.right)}
        held = 0
        for seed in range(50):
            w = sample_interpretation(sig, seed=seed)
            w.check()
            held += bool(eval_description(d, w))
        assert held > 25, (text, held)
    both = signature_of_description(parse("same-as((f),(g))")).merge(
        signature_of_description(parse("same-as((g),(h))")))
    assert both.equations == {(("f",), ("g",)), (("g",), ("h",))}


def test_sampler_draws_role_fillers_from_classic_elements(parse):
    # a fills(role, ind) clause needs a filler inside the individual's
    # extension; role fillers are drawn from the classic elements half the
    # time, as attribute targets are, so the clause holds in most worlds
    # (in 31 of these 50; in 17 when fillers came uniformly from all
    # elements, mostly host ones)
    d = parse("fills(s, Q)")
    sig = signature_of_description(d)
    held = 0
    for seed in range(50):
        w = sample_interpretation(sig, seed=seed)
        w.check()
        held += bool(eval_description(d, w))
    assert held > 25, held


def test_sampler_draws_distinct_role_fillers(parse):
    # each element's fillers are drawn until they are distinct, so the top
    # filler count is reached and at-least(4, r) holds in 26 of these 50
    # worlds (18 when repeated draws collapsed into fewer fillers)
    d = parse("at-least(4, r)")
    sig = signature_of_description(d)
    held = 0
    for seed in range(50):
        w = sample_interpretation(sig, seed=seed)
        w.check()
        held += bool(eval_description(d, w))
    assert held > 22, held


ROLE_CLAUSES = (AllRole, AtLeast, AtMost, FillsRole)


def _role_clause_by_element(d, world) -> frozenset:
    """A role clause's extension from a role_fillers lookup per element."""
    if isinstance(d, AllRole):
        inner = eval_description(d.restriction, world)
    if isinstance(d, FillsRole):
        ext = world.individual_ext(d.who)
    out = set()
    for e in world.classic:
        fillers = world.role_fillers(d.role, e)
        if isinstance(d, AllRole):
            holds = all(x in inner for x in fillers)
        elif isinstance(d, AtLeast):
            holds = world.count_non_congruent(fillers) >= d.n
        elif isinstance(d, AtMost):
            holds = world.count_non_congruent(fillers) <= d.n
        else:
            holds = any(x in ext for x in fillers)
        if holds:
            out.add(e)
    return frozenset(out)


def test_role_clauses_match_per_element_lookup():
    # eval_description scans each role once per clause; it must agree with
    # looking up each element's fillers on its own
    kinds, proper = set(), 0
    for seed in range(50):
        rng = random.Random(seed)
        d = expand(random_pair(rng)[1], corpus_kb())
        sig = signature_of_description(d)
        for w in range(3):
            world = sample_interpretation(sig, seed=seed * 7 + w)
            for sub in walk(d):
                if not isinstance(sub, ROLE_CLAUSES):
                    continue
                got = eval_description(sub, world)
                assert got == _role_clause_by_element(sub, world), sub
                kinds.add(type(sub))
                proper += 0 < len(got) < len(world.classic)
    assert kinds == set(ROLE_CLAUSES)
    assert proper > 50


def test_sampler_individual_sizes(parse):
    sig = signature_of_description(parse("one-of(P, Q)"))
    for seed in range(10):
        w = sample_interpretation(sig, seed)
        for ext in w.indiv_ext.values():
            assert 1 <= len(ext) <= 3


def test_bounded_search_finds_models(parse, kb):
    g = canonicalize(translate(expand(parse("at-least(1, r)"), kb)), kb)
    found = bounded_model_search(g, k=2)
    assert found is not None
    world, elem = found
    assert elem in eval_graph(g, world)


def test_bounded_search_rejects_incoherent(parse, kb):
    for text in ["and(at-least(2, r), at-most(1, r))",
                 "and(fills(coach, Pat), fills(coach, Kim))"]:
        g = canonicalize(translate(expand(parse(text), kb)), kb)
        assert g.incoherent
        # search the pre-canonical graph: no bounded model either
        raw = translate(expand(parse(text), kb))
        assert bounded_model_search(raw, k=2) is None


def test_world_check_rejects_overlapping_individuals():
    w = _world()
    e0 = ClassicElement(0)
    w.indiv_ext = {"P": {e0}, "Q": {e0}}
    with pytest.raises(ValueError, match="overlap"):
        w.check()


def test_world_check_rejects_host_sources():
    host = HostElement("INTEGER", 1)
    w = _world()
    w.role_ext["r"] = {host: {ClassicElement(0)}}
    with pytest.raises(ValueError, match="role r source off classic"):
        w.check()
    w = _world()
    w.attr_ext["f"] = {host: ClassicElement(0)}
    with pytest.raises(ValueError, match="attr f source off classic"):
        w.check()


def test_world_check_rejects_bad_individual_extensions():
    w = _world()
    w.indiv_ext = {"P": set()}
    with pytest.raises(ValueError, match="P has empty extension"):
        w.check()
    w = _world()
    w.indiv_ext = {"P": {ClassicElement(9)}}
    with pytest.raises(ValueError, match="P outside classic realm"):
        w.check()


def test_incoherence_agrees_with_bounded_search():
    # marked-incoherent canonical graphs admit no bounded model; coherent
    # ones always have one within the bound
    import random

    from classicdl.descriptions import (
        AllAttr,
        AllRole,
        And,
        AtLeast,
        AtMost,
        ConceptName,
        FillsAttr,
        FillsRole,
        Nothing,
        OneOf,
        SameAs,
    )
    from classicdl.randgen import corpus_kb

    inds = (Individual("P"), Individual("Q"))

    def tiny(rng, depth):
        ops = ["atom", "one-of", "fills-role", "fills-attr", "at-least",
               "at-most", "nothing", "same-as"]
        if depth > 0:
            ops += ["and", "and", "all-role", "all-attr"]
        op = rng.choice(ops)
        if op == "atom":
            return ConceptName("A")
        if op == "nothing":
            return Nothing()
        if op == "one-of":
            return OneOf(tuple(rng.sample(inds, rng.randint(1, 2))))
        if op == "fills-role":
            return FillsRole("r", rng.choice(inds))
        if op == "fills-attr":
            return FillsAttr("f", rng.choice(inds))
        if op == "at-least":
            return AtLeast(rng.randint(1, 2), "r")
        if op == "at-most":
            return AtMost(rng.randint(0, 2), "r")
        if op == "same-as":
            tail = ("f",) if rng.random() < 0.5 else ("f", "f")
            return SameAs(("f",), tail)
        if op == "and":
            return And(tuple(tiny(rng, depth - 1) for _ in range(2)))
        if op == "all-role":
            return AllRole("r", tiny(rng, depth - 1))
        return AllAttr("f", tiny(rng, depth - 1))

    kb = corpus_kb()
    rng = random.Random(4242)
    for _ in range(40):
        d = expand(tiny(rng, 2), kb)
        g = canonicalize(translate(d), kb)
        found = bounded_model_search(g, k=2)
        if g.incoherent:
            assert found is None, d
        else:
            assert found is not None, d
            world, elem = found
            assert elem in eval_graph(g, world)


def test_node_merge_extension_is_intersection(parse, kb):
    # single-node graphs make the node-level merge law directly testable
    from classicdl.graph import merge_graphs
    from classicdl.worlds import signature_of_description

    pairs = [("GAME", "at-least(1, r)"),
             ("one-of(P, Q)", "one-of(Q, V)"),
             ("at-most(2, r)", "fills(r, P)")]
    for t1, t2 in pairs:
        d1, d2 = expand(parse(t1), kb), expand(parse(t2), kb)
        # merging moves its inputs, so the parts are translated afresh
        merged = merge_graphs(translate(d1), translate(d2))
        g1, g2 = translate(d1), translate(d2)
        sig = signature_of_description(d1).merge(
            signature_of_description(d2))
        for seed in range(4):
            w = sample_interpretation(sig, seed=seed)
            assert eval_graph(merged, w) == \
                eval_graph(g1, w) & eval_graph(g2, w)


def test_witness_mapping_clauses(parse, kb):
    # the exposed witness satisfies the membership clauses directly
    from classicdl.worlds import find_witness, signature_of_description

    d = expand(parse("and(GAME, same-as((f),(g,h)), at-least(1, r))"), kb)
    g = canonicalize(translate(d), kb)
    sig = signature_of_description(d)
    seen = 0
    for seed in range(12):
        w = sample_interpretation(sig, seed=seed)
        for elem in eval_graph(g, w):
            witness = find_witness(g, elem, w)
            assert witness is not None
            assert witness[g.root] == elem
            for e in g.a_edges:
                assert w.attr_value(e.attr, witness[e.src]) == witness[e.dst]
            seen += 1
    assert seen > 0
    # and absence of a witness matches non-membership
    w = sample_interpretation(sig, seed=0)
    outside = [x for x in world_domain(w) if x not in eval_graph(g, w)]
    assert all(find_witness(g, x, w) is None for x in outside)


def test_unreached_node_raises(parse, kb):
    # a hand-built graph whose second node no a-edge reaches
    g = canonicalize(translate(expand(parse("GAME"), kb)), kb)
    lost = g.add_node(GraphNode(atoms={"GAME"}))
    w = _world()
    with pytest.raises(ValueError, match="node %d" % lost):
        eval_graph(g, w)


def test_unreached_restriction_node_raises(parse, kb):
    # the same one restriction graph down, met at the r-filler of c0
    g = canonicalize(translate(expand(parse("all(r, GAME)"), kb)), kb)
    lost = g.root_node.r_edges[0].restriction.add_node(
        GraphNode(atoms={"GAME"}))
    w = _world()
    w.role_ext["r"] = {ClassicElement(0): {ClassicElement(1)}}
    with pytest.raises(ValueError, match="node %d" % lost):
        eval_graph(g, w)


def _reached(g) -> set:
    seen, todo = {g.root}, [g.root]
    while todo:
        nid = todo.pop()
        for e in g.a_edges:
            if e.src == nid and e.dst not in seen:
                seen.add(e.dst)
                todo.append(e.dst)
    return seen


def test_translated_and_canonical_graphs_reach_every_node():
    # find_witness relies on it: a-edges from the root assign every node
    kb = corpus_kb()
    for seed in range(2000):
        for d in random_pair(random.Random(seed)):
            raw = translate(d)
            for g in (raw, canonicalize(raw, kb)):
                for sub in g.subgraphs():
                    assert _reached(sub) == set(sub.nodes), (seed, d)


def test_within_is_extension_intersected_with_candidates(within_agrees):
    # every sub-description of the corpus pairs, in one sampled world each
    kb, checks, proper = corpus_kb(), 0, 0
    for seed in range(800):
        rng = random.Random(seed)
        d, c = (expand(x, kb) for x in random_pair(rng))
        sig = signature_of_description(d).merge(signature_of_description(c))
        world = sample_interpretation(sig, seed=seed)
        for sub in dict.fromkeys([*walk(d), *walk(c)]):
            checks += within_agrees(sub, world, rng)
            proper += 0 < len(eval_description(sub, world)) < len(
                world.classic)
    assert checks > 90_000 and proper > 1000, (checks, proper)

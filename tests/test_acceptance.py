"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import json
import math
import pathlib
import time

from classicdl.descriptions import (
    And,
    AtLeast,
    ConceptName,
    SameAs,
)
from classicdl.graph import (
    to_jsonable,
    translate,
)
from classicdl.kb import expand
from classicdl import normalize
from classicdl.normalize import canonicalize
from classicdl.parsing import parse_description
from classicdl.randgen import (
    completeness_run,
    corpus_kb,
    random_pair,
    soundness_run,
)
from classicdl.reduction import (
    CnfFormula,
    Literal,
    demonstrate_incompleteness,
)
from classicdl.subsume import equivalent, subsumes
from classicdl.worlds import (
    ClassicElement,
    HostElement,
    Interpretation,
    eval_description,
)
from oracles import (
    ast_size,
    graph_size,
    isomorphic,
    random_cnf,
    rule_order,
    truth_table_unsat,
)
from test_graph import thawed

GOLDENS = pathlib.Path(__file__).parent / "goldens"
CORPUS_SEED = 20260810
FIG1 = ("and(GAME, all(participants, PERSON), "
        "same-as((coach),(captain,father)))")


def _report(num: int, label: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print("ACCEPTANCE %2d: %s - %s" % (num, verdict, label))
            return False

    return _Ctx()


def _chain_text(n: int) -> str:
    parts = ["same-as((a%d),(b%d))" % (i, i) for i in range(1, n + 1)]
    parts += ["same-as((a%d),(a%d))" % (i, i + 1) for i in range(1, n)]
    return "and(%s)" % ", ".join(parts)


def _best_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_figure_graph():
    with _report(1, "figure graph reproduction, golden match, < 10 ms"):
        d = parse_description(FIG1)
        g = translate(d)
        assert len(g.nodes) == 3
        assert len(g.a_edges) == 3
        assert {e.attr for e in g.a_edges} == {"coach", "captain", "father"}
        assert "GAME" in g.root_node.atoms
        (edge,) = g.root_node.r_edges
        assert (edge.role, edge.min, edge.max) == \
            ("participants", 0, math.inf)
        assert len(edge.restriction.nodes) == 1
        assert edge.restriction.root_node.atoms == {"PERSON"}
        expected = json.loads((GOLDENS / "figure1.json").read_text())
        assert to_jsonable(g) == expected
        elapsed = _best_time(lambda: to_jsonable(translate(
            parse_description(FIG1))))
        assert elapsed < 0.010, "took %.4fs" % elapsed


def test_criterion_2_arbitrary_depth_same_as():
    with _report(2, "depth 1..10 value restriction vs. attribute loop, "
                    "< 100 ms total"):
        c = parse_description(
            "and(all(friend, TALL), same-as((friend),(friend,friend)))")
        t0 = time.perf_counter()
        for k in range(1, 11):
            d = ConceptName("TALL")
            for _ in range(k):
                from classicdl.descriptions import AllAttr

                d = AllAttr("friend", d)
            assert subsumes(d, c), "depth %d" % k
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.100, "took %.4fs" % elapsed


def test_criterion_3_chain_collapse():
    with _report(3, "n=5 equality chain collapses to 2 top-level nodes"):
        g = canonicalize(translate(parse_description(_chain_text(5))))
        assert len(g.nodes) == 2


def test_criterion_4_zero_max_equivalence():
    with _report(4, "at-most(0,r) equivalent to all(r, nothing)"):
        assert equivalent(parse_description("at-most(0, r)"),
                          parse_description("all(r, nothing)"))


def test_criterion_5_modified_semantics_envelope(parse, kb):
    with _report(5, "one-filler bound does not subsume the jaded body; "
                    "hand world shows two non-congruent fillers"):
        body = parse('all(wantsToVisit, and(one-of(Arctic, Antarctic), '
                     'all(hasPenguins, one-of("Yes"))))')
        assert not subsumes(parse("at-most(1, wantsToVisit)"), body, kb)

        w = Interpretation()
        d1, d2, d3, d4, e = (ClassicElement(i) for i in range(5))
        yes, no = HostElement("STRING", "Yes"), HostElement("STRING", "No")
        w.classic = {d1, d2, d3, d4, e}
        w.hosts |= {yes, no}
        w.indiv_ext = {"Arctic": {d1, d2}, "Antarctic": {d3, d4}}
        w.attr_ext = {"hasPenguins": {d1: yes, d2: no, d3: yes, d4: no}}
        w.role_ext = {"wantsToVisit": {e: {d1, d3}}}
        w.check()
        assert e in eval_description(expand(body, kb), w)
        assert w.count_non_congruent(w.role_fillers("wantsToVisit", e)) == 2
        assert e not in eval_description(
            expand(parse("at-most(1, wantsToVisit)"), kb), w)


def test_criterion_6_soundness_suite():
    with _report(6, "1000 random pairs: yes implies containment in 50 "
                    "worlds each, < 60 s"):
        t0 = time.perf_counter()
        stats = soundness_run(seed=CORPUS_SEED, cases=1000,
                              worlds_per_case=50)
        elapsed = time.perf_counter() - t0
        assert stats.cases == 1000
        assert stats.violations == 0, stats.failures
        assert stats.positives > 0 and stats.negatives > 0
        assert elapsed < 60, "took %.1fs" % elapsed


def test_criterion_7_completeness_suite():
    with _report(7, "1000 random pairs: no implies a separating witness, "
                    "< 60 s"):
        t0 = time.perf_counter()
        stats = completeness_run(seed=CORPUS_SEED, cases=1000)
        elapsed = time.perf_counter() - t0
        assert stats.cases == 1000
        assert stats.violations == 0, stats.failures
        assert stats.negatives > 0
        assert elapsed < 60, "took %.1fs" % elapsed


def test_criterion_8_idempotence_confluence():
    with _report(8, "canonicalization idempotent and rule-order-independent "
                    "on the full corpus"):
        import random

        rng = random.Random(CORPUS_SEED)
        kb = corpus_kb()
        failures = 0
        for _ in range(1000):
            d, c = random_pair(rng)
            for desc in (d, c):
                e = expand(desc, kb)
                c1 = canonicalize(translate(e), kb)
                if not isomorphic(c1, canonicalize(thawed(c1), kb)):
                    failures += 1
                with rule_order(reversed(normalize._PASSES),
                                reverse_nodes=True):
                    if not isomorphic(c1, canonicalize(translate(e), kb)):
                        failures += 1
        assert failures == 0


def test_criterion_9_reduction_demo():
    with _report(9, "engine verdict uniformly no on 100 random formulas "
                    "plus the contradiction; gap iff valid; < 30 s"):
        import random

        t0 = time.perf_counter()
        rng = random.Random(CORPUS_SEED)
        formulas = [CnfFormula(("p",), ((Literal("p", True),) * 3,
                                        (Literal("p", False),) * 3))]
        formulas += [random_cnf(rng, rng.randint(1, 8), rng.randint(1, 12))
                     for _ in range(100)]
        for f in formulas:
            rep = demonstrate_incompleteness(f)
            assert rep.engine_verdict is False
            assert rep.formula_valid == truth_table_unsat(f)
            assert rep.gap == rep.formula_valid
        assert formulas[0].variables == ("p",)
        assert demonstrate_incompleteness(formulas[0]).gap
        elapsed = time.perf_counter() - t0
        assert elapsed < 30, "took %.1fs" % elapsed


def _grown_conjunction(n: int) -> And:
    items = []
    for i in range(n):
        if i % 3 == 0:
            items.append(ConceptName("A%d" % i))
        elif i % 3 == 1:
            items.append(AtLeast(1 + i % 3, "r%d" % i))
        else:
            items.append(SameAs(("f%d" % i,), ("g%d" % i,)))
    return And(tuple(items))


def test_criterion_10_complexity_trends():
    with _report(10, "chain normalization exponent <= 2.3; query time "
                     "fits |D|*log|G| within factor 3"):
        # Normalization on the equality-chain family.
        xs, ys = [], []
        for n in (4, 8, 16, 32, 64):
            d = parse_description(_chain_text(n))
            # canonicalize normalizes a fresh graph in place, so each of
            # the five timings takes its own translation, built untimed.
            best = min(_best_time(lambda g=translate(d): canonicalize(g), 1)
                       for _ in range(5))
            xs.append(math.log(n))
            ys.append(math.log(best))
        k = len(xs)
        sx, sy = sum(xs), sum(ys)
        slope = (k * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / \
            (k * sum(x * x for x in xs) - sx * sx)
        assert slope <= 2.3, "slope %.2f" % slope

        # Subsumption queries on grown conjunctions.
        from classicdl.subsume import subsumes_graph

        metrics = []
        for n in (32, 64, 128, 256, 512):
            d = _grown_conjunction(n)
            g = canonicalize(translate(d))
            reps = 20

            def run(d=d, g=g):
                for _ in range(reps):
                    assert subsumes_graph(d, g)

            per_query = _best_time(run) / reps
            metrics.append(per_query / (ast_size(d)
                                        * math.log(graph_size(g))))
        ratio = max(metrics) / min(metrics)
        assert ratio <= 3.0, "trend ratio %.2f" % ratio


def test_criterion_10_operation_counts(count_steps):
    with _report(10, "a query on a grown conjunction of n clauses takes "
                     "n + 1 structural steps"):
        from classicdl.subsume import subsumes_graph

        for n in (32, 64, 128, 256, 512):
            d = _grown_conjunction(n)
            yes, steps = count_steps(subsumes_graph, d,
                                     canonicalize(translate(d)))
            assert yes
            assert steps == n + 1, "n=%d: %d steps" % (n, steps)

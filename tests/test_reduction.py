import random

import pytest

from classicdl.descriptions import to_text
from classicdl.parsing import parse_description
from classicdl.reduction import (
    CnfFormula,
    Literal,
    check_validity_bruteforce,
    demonstrate_incompleteness,
    encode,
    negate_to_dnf,
    parse_dimacs,
)
from oracles import random_cnf, truth_table_unsat


def lit(v, s=True):
    return Literal(v, s)


P_AND_NOT_P = CnfFormula(("p",), ((lit("p"),) * 3, (lit("p", False),) * 3))


def test_p_and_not_p_is_unsat():
    dnf = negate_to_dnf(P_AND_NOT_P)
    assert check_validity_bruteforce(dnf, P_AND_NOT_P.variables)
    assert truth_table_unsat(P_AND_NOT_P)


def test_single_clause_satisfiable():
    f = CnfFormula(("p", "q", "r"), ((lit("p"), lit("q"), lit("r")),))
    assert not check_validity_bruteforce(negate_to_dnf(f), f.variables)
    assert not truth_table_unsat(f)


def test_brute_force_agrees_with_truth_table():
    rng = random.Random(99)
    for _ in range(60):
        f = random_cnf(rng, rng.randint(2, 6), rng.randint(2, 20))
        assert check_validity_bruteforce(negate_to_dnf(f), f.variables) == \
            truth_table_unsat(f)


def test_variable_ceiling():
    f = CnfFormula(tuple("x%d" % i for i in range(25)),
                   ((lit("x0"), lit("x1"), lit("x2")),))
    with pytest.raises(ValueError, match="too many"):
        check_validity_bruteforce(negate_to_dnf(f), f.variables)


def test_dimacs_parsing():
    f = parse_dimacs("c example\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    assert f.variables == ("x1", "x2", "x3")
    assert f.clauses[0] == (lit("x1"), lit("x2", False), lit("x3"))


def test_dimacs_pads_short_clauses():
    f = parse_dimacs("p cnf 2 2\n1 0\n-1 -2 0\n")
    assert f.clauses[0] == (lit("x1"), lit("x1"), lit("x1"))


def test_dimacs_rejects_wide_clauses():
    with pytest.raises(ValueError, match="wider"):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")


def descriptors(out) -> dict[str, str]:
    """Each individual's descriptor, read back from LOWER, which wraps it
    as ``all(dummy, and(one-of(individual), descriptor))``."""
    texts = {}
    for wrapped in parse_description(out.lower_text, out.kb()).items:
        marker, descr = wrapped.restriction.items
        (ind,) = marker.members
        texts[ind.name] = to_text(descr)
    return texts


def test_encoder_output_counts():
    f = CnfFormula(("p", "q"), ((lit("p"), lit("q"), lit("q", False)),
                                (lit("p", False),) * 3))
    out = encode(f)
    kb = out.kb()
    nvars, nclauses = 2, 2
    assert len(kb.individuals) == 4 * nvars + nclauses + 1
    dummies = [a for a in kb.attributes if a.startswith("dummy")]
    assert len(dummies) + 1 == 4 * nvars + nclauses + 1  # plus 'formula'
    assert "VALID-FORMULAE" in kb.named


def test_encoder_output_parses_and_loads():
    f = CnfFormula(("p", "q"), ((lit("p"), lit("q"), lit("p")),))
    out = encode(f)
    kb = out.kb()
    parse_description(out.upper_text, kb)
    parse_description(out.lower_text, kb)
    texts = descriptors(out)
    assert texts.keys() == kb.individuals.keys()
    for text in texts.values():
        parse_description(text, kb)


def test_disjunct_structure():
    f = CnfFormula(("p", "q", "r"),
                   ((lit("p"), lit("q", False), lit("r", False)),))
    out = encode(f)
    c1 = descriptors(out)["C1"]
    # the disjunct carries the negated clause's literal individuals
    assert "one-of(NP-p, P-q, P-r)" in c1
    assert "at-least(3, conjuncts)" in c1


def test_repeated_literals_use_distinct_count():
    out = encode(P_AND_NOT_P)
    texts = descriptors(out)
    assert "at-least(1, conjuncts)" in texts["C1"]
    assert "at-least(1, conjuncts)" in texts["C2"]


def test_g_collects_disjuncts():
    f = CnfFormula(("p",), ((lit("p"),) * 3, (lit("p", False),) * 3))
    out = encode(f)
    texts = descriptors(out)
    assert texts["G"] == "all(disjunctsHolding, one-of(C1, C2))"


def test_gap_flagged_for_unsat():
    rep = demonstrate_incompleteness(P_AND_NOT_P)
    assert rep.formula_valid and not rep.engine_verdict and rep.gap


def test_no_gap_for_satisfiable():
    f = CnfFormula(("p", "q", "r"), ((lit("p"), lit("q"), lit("r")),))
    rep = demonstrate_incompleteness(f)
    assert not rep.formula_valid and not rep.engine_verdict and not rep.gap


def test_engine_verdict_always_no():
    rng = random.Random(7)
    for _ in range(15):
        f = random_cnf(rng, rng.randint(1, 5), rng.randint(1, 8))
        rep = demonstrate_incompleteness(f)
        assert rep.engine_verdict is False
        assert rep.gap == rep.formula_valid

"""Encoding 3CNF unsatisfiability as a description subsumption question.

``encode`` builds, from a 3CNF formula, a knowledge base of individuals
carrying truth-value machinery and two concepts LOWER and UPPER such that,
were subsumption to consult the asserted facts about individuals, UPPER
would subsume LOWER exactly when the formula is unsatisfiable.  The
structural engine never consults those facts, so its verdict is uniformly
"no" — ``demonstrate_incompleteness`` runs both the engine and an
independent propositional brute-force check and flags the gap.

Truth values are the host strings "True" and "False", whose fixed
identities match the construction's intent.  A clause may repeat literals
(encoding shorter clauses); the conjunct count then uses the number of
distinct literals so the encoding stays satisfiable by design.
"""

from __future__ import annotations

import itertools

from .descriptions import Value, _set
from .kb import KnowledgeBase
from .parsing import parse_description, parse_kb
from .subsume import subsumes


class Literal(Value):
    __slots__ = ("var", "positive")
    def __init__(self, var: str, positive: bool):
        _set(self, "var", var)
        _set(self, "positive", positive)

    def __str__(self):
        return self.var if self.positive else "~" + self.var


class CnfFormula(Value):
    __slots__ = ("variables", "clauses")
    def __init__(self, variables: tuple[str, ...],
                 clauses: tuple[tuple[Literal, Literal, Literal], ...]):
        if not clauses:
            raise ValueError("a formula needs at least one clause")
        for clause in clauses:
            if len(clause) != 3:
                raise ValueError("clauses carry exactly three literals")
            for lit in clause:
                if lit.var not in variables:
                    raise ValueError("undeclared variable %s" % lit.var)
        _set(self, "variables", variables)
        _set(self, "clauses", clauses)


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""


def _int(tok: str, line: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise DimacsError("not an integer in %r" % line) from None


def parse_dimacs(text: str) -> CnfFormula:
    """DIMACS CNF input; clauses of one or two literals are padded by
    repetition, wider clauses are rejected.  Every malformed input raises
    ``DimacsError``."""
    nvars = None
    clauses: list[tuple[Literal, Literal, Literal]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError("malformed DIMACS header: %r" % line)
            nvars = _int(parts[2], line)
            continue
        if nvars is None:
            raise DimacsError("clause before DIMACS header")
        nums = [_int(tok, line) for tok in line.split()]
        if nums and nums[-1] == 0:
            nums = nums[:-1]
        if not nums:
            continue
        if len(nums) > 3:
            raise DimacsError("clause wider than three literals: %r" % line)
        while len(nums) < 3:
            nums.append(nums[-1])
        lits = tuple(Literal("x%d" % abs(n), n > 0) for n in nums)
        clauses.append(lits)
    if nvars is None or not clauses:
        raise DimacsError("no DIMACS problem found")
    variables = tuple("x%d" % i for i in range(1, nvars + 1))
    try:
        return CnfFormula(variables, tuple(clauses))
    except ValueError as exc:
        raise DimacsError(str(exc)) from None


# ---------------------------------------------------------------------------
# Propositional ground truth


def negate_to_dnf(f: CnfFormula) -> tuple[tuple[Literal, ...], ...]:
    """The negation of the formula as a disjunction of literal conjunctions
    (each disjunct negates one clause)."""
    return tuple(
        tuple(Literal(lit.var, not lit.positive) for lit in clause)
        for clause in f.clauses)


# The most variables ``check_validity_bruteforce`` enumerates.
BRUTEFORCE_LIMIT = 20


def check_validity_bruteforce(dnf, variables) -> bool:
    """True iff every assignment satisfies some disjunct."""
    if len(variables) > BRUTEFORCE_LIMIT:
        raise ValueError("too many variables for brute force (%d > %d)"
                         % (len(variables), BRUTEFORCE_LIMIT))
    for bits in itertools.product((False, True), repeat=len(variables)):
        env = dict(zip(variables, bits))
        if not any(all(env[l.var] == l.positive for l in disjunct)
                   for disjunct in dnf):
            return False
    return True


# ---------------------------------------------------------------------------
# The encoding


class ReductionOutput:
    __slots__ = ("kb_text", "upper_text", "lower_text")
    def __init__(self, kb_text: str, upper_text: str, lower_text: str):
        self.kb_text = kb_text
        self.upper_text = upper_text
        self.lower_text = lower_text

    def kb(self) -> KnowledgeBase:
        return parse_kb(self.kb_text)


def _pos_name(var: str) -> str:
    return "P-" + var


def _neg_name(var: str) -> str:
    return "NP-" + var


def _lit_name(lit: Literal) -> str:
    return _pos_name(lit.var) if lit.positive else _neg_name(lit.var)


def encode(f: CnfFormula) -> ReductionOutput:
    """Build the knowledge base and the UPPER and LOWER concepts for a
    formula.

    Per variable p there are four individuals: the literal carriers P-p and
    NP-p (each with truthValue restricted to {"True","False"}) and the
    approvers Yes-p and No-p forcing opposite truth values onto them.  Per
    disjunct of the negated formula there is an individual C<i> whose
    conjuncts role carries exactly the disjunct's literals; the individual
    G collects the disjuncts.  LOWER wraps each individual's descriptor
    onto a fresh dummy attribute, as ``all(dummy, and(one-of(individual),
    descriptor))``; UPPER asks only that the formula attribute lands in
    VALID-FORMULAE.
    """
    dnf = negate_to_dnf(f)
    kb_lines = [
        "role conjuncts",
        "role disjunctsHolding",
        "attribute truthValue",
        "attribute approve",
        "attribute deny",
        "attribute formula",
    ]
    lower_parts: list[str] = []

    def dummy(kind: int, tag: str) -> str:
        name = "dummy%d-%s" % (kind, tag)
        kb_lines.append("attribute %s" % name)
        return name

    truth_pair = 'one-of("True", "False")'
    for var in f.variables:
        pos, neg = _pos_name(var), _neg_name(var)
        yes, no = "Yes-" + var, "No-" + var
        for ind in (pos, neg, yes, no):
            kb_lines.append("individual %s" % ind)
        carrier = "all(truthValue, %s)" % truth_pair
        yes_descr = ('all(approve, and(one-of(%s, %s), all(truthValue, '
                     'one-of("True"))))' % (pos, neg))
        no_descr = ('all(deny, and(one-of(%s, %s), all(truthValue, '
                    'one-of("False"))))' % (pos, neg))
        for ind, descr, kind in ((pos, carrier, 1), (neg, carrier, 2),
                                 (yes, yes_descr, 3), (no, no_descr, 4)):
            lower_parts.append("all(%s, and(one-of(%s), %s))"
                               % (dummy(kind, var), ind, descr))

    disjunct_names = []
    for i, disjunct in enumerate(dnf, start=1):
        name = "C%d" % i
        disjunct_names.append(name)
        kb_lines.append("individual %s" % name)
        members = sorted({_lit_name(l) for l in disjunct})
        descr = "and(all(conjuncts, one-of(%s)), at-least(%d, conjuncts))" \
            % (", ".join(members), len(members))
        lower_parts.append("all(%s, and(one-of(%s), %s))"
                           % (dummy(5, "c%d" % i), name, descr))

    kb_lines.append("individual G")
    g_descr = "all(disjunctsHolding, one-of(%s))" % ", ".join(disjunct_names)
    lower_parts.append("all(formula, and(one-of(G), %s))" % g_descr)

    kb_lines.append(
        "concept VALID-FORMULAE := and(at-least(1, disjunctsHolding), "
        "all(disjunctsHolding, all(conjuncts, all(truthValue, "
        'one-of("True")))))')

    return ReductionOutput(
        kb_text="\n".join(kb_lines) + "\n",
        upper_text="all(formula, VALID-FORMULAE)",
        lower_text="and(%s)" % ", ".join(lower_parts),
    )


class IncompletenessReport:
    __slots__ = ("formula_valid", "engine_verdict", "gap")
    def __init__(self, formula_valid: bool, engine_verdict: bool, gap: bool):
        self.formula_valid = formula_valid  # the CNF is unsatisfiable
        self.engine_verdict = engine_verdict  # subsumes(UPPER, LOWER)
        self.gap = gap  # valid but not derived

    def to_jsonable(self) -> dict:
        return {"validity": self.formula_valid,
                "engine_verdict": self.engine_verdict,
                "gap": self.gap}


def demonstrate_incompleteness(f: CnfFormula) -> IncompletenessReport:
    """Run the propositional ground truth against the engine's verdict on
    (UPPER, LOWER).  The engine ignores the facts asserted about the
    individuals, so its verdict is no for every input; the gap flag is set
    exactly when the formula is actually valid."""
    valid = check_validity_bruteforce(negate_to_dnf(f), f.variables)
    out = encode(f)
    kb = out.kb()
    upper = parse_description(out.upper_text, kb)
    lower = parse_description(out.lower_text, kb)
    verdict = subsumes(upper, lower, kb)
    return IncompletenessReport(formula_valid=valid, engine_verdict=verdict,
                                gap=valid and not verdict)

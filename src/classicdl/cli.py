"""Command-line front end.

Subcommands: ``parse``, ``graph``, ``canon``, ``subsumes``, ``classify``,
``countermodel``, ``reduce``, ``fuzz``.  Output is deterministic JSON (or
"yes"/"no" for subsumption; ``subsumes --explain`` prints the failing
clause as JSON instead).  Exit codes: 0 success (and "yes"), 1 "no"
or a failed property run, 2 usage errors, 3 parse, knowledge-base and
DIMACS errors, DIMACS files beyond the brute-force check, input files
that cannot be read or are not UTF-8, and input nested too deeply for
the interpreter's recursion limit.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import reduction
from .countermodel import (
    CounterModelError,
    construct_graphical_world,
    interpret_rest,
)
from .descriptions import to_jsonable as ast_jsonable
from .graph import to_jsonable as graph_jsonable, translate
from .kb import KbError, KnowledgeBase, classify, expand
from .normalize import canonical_graph
from .parsing import ParseError, infer_attr_names, parse_description, parse_kb
from .subsume import explain, subsumes_graph
from .worlds import to_jsonable as world_jsonable

PARSE_ERROR_EXIT = 3


def _read_file(path: str, error: type[Exception]) -> str:
    """The file's text; a file that cannot be read raises ``error``, so it
    is reported like the input errors of its kind (exit code 3)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise error("cannot read %s: %s" % (path, reason)) from None


def _load_kb(path: str | None) -> KnowledgeBase:
    if path is None:
        return KnowledgeBase.empty()
    return parse_kb(_read_file(path, KbError))


def _parse_all(kb_path: str | None, *texts: str):
    """Parse several descriptions against one context.  Without a KB file,
    attribute inference is pooled across the texts so they stay mutually
    consistent."""
    kb = _load_kb(kb_path)
    inferred = infer_attr_names(*texts) if kb_path is None else None
    descs = [parse_description(t, kb if kb_path else None, inferred)
             for t in texts]
    return kb, descs


def _positive_int(text: str) -> int:
    """An argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


_END = object()


def _emit(obj) -> None:
    """Print ``json.dumps(obj, indent=2)``, written with an explicit stack
    of open containers instead of the encoder's recursion, so a dump
    nested any depth prints."""
    out = []
    stack = []  # [items, is a dict, no item written yet] per open container
    value = obj
    while True:
        if isinstance(value, dict) and value:
            out.append("{")
            stack.append([iter(value.items()), True, True])
        elif isinstance(value, (list, tuple)) and value:
            out.append("[")
            stack.append([iter(value), False, True])
        else:
            out.append(json.dumps(value))
        while stack:
            frame = stack[-1]
            item = next(frame[0], _END)
            if item is _END:
                stack.pop()
                out.append("\n" + "  " * len(stack)
                           + ("}" if frame[1] else "]"))
                continue
            out.append(("\n" if frame[2] else ",\n") + "  " * len(stack))
            frame[2] = False
            if frame[1]:
                key, value = item
                # json.dumps writes a non-string key as its JSON text
                out.append(json.dumps(key if isinstance(key, str)
                                      else json.dumps(key)) + ": ")
            else:
                value = item
            break
        else:
            print("".join(out))
            return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="classicdl",
        description="Structural subsumption engine for CLASSIC "
                    "descriptions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        if "kb" in flags:
            p.add_argument("--kb", default=None, help="knowledge-base file")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=0)
        if "cases" in flags:
            p.add_argument("--cases", type=_positive_int, default=100)
        if "max-domain" in flags:
            p.add_argument("--max-domain", type=_positive_int, default=5)
        return p

    p = add("parse", "parse a description and dump its AST", "kb")
    p.add_argument("description")
    p = add("graph", "translate a description to a raw graph", "kb")
    p.add_argument("description")
    p = add("canon", "translate and canonicalize a description", "kb")
    p.add_argument("description")
    p = add("subsumes", "does the first description subsume the second?",
            "kb")
    p.add_argument("subsumer")
    p.add_argument("subsumee")
    p.add_argument("--explain", action="store_true",
                   help="print the failing clause as JSON (null for yes)")
    p = add("classify", "dump the taxonomy of a knowledge base", "kb")
    p = add("countermodel", "build a world separating two descriptions",
            "kb")
    p.add_argument("subsumer")
    p.add_argument("subsumee")
    p = add("reduce", "incompleteness report for a DIMACS 3CNF file")
    p.add_argument("cnf_file")
    p = add("fuzz", "run the soundness/completeness property suites",
            "seed", "cases", "max-domain")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, KbError, reduction.DimacsError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return PARSE_ERROR_EXIT
    except RecursionError:
        # The layers recurse once or more per nesting level, so the
        # interpreter's recursion limit bounds the depth of an input.
        print("error: input nested too deeply (recursion limit %d)"
              % sys.getrecursionlimit(), file=sys.stderr)
        return PARSE_ERROR_EXIT


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "parse":
        _, (d,) = _parse_all(args.kb, args.description)
        _emit(ast_jsonable(d))
        return 0
    if cmd == "graph":
        kb, (d,) = _parse_all(args.kb, args.description)
        _emit(graph_jsonable(translate(expand(d, kb))))
        return 0
    if cmd == "canon":
        kb, (d,) = _parse_all(args.kb, args.description)
        _emit(graph_jsonable(canonical_graph(expand(d, kb), kb)))
        return 0
    if cmd == "subsumes":
        kb, (d, c) = _parse_all(args.kb, args.subsumer, args.subsumee)
        failure = explain(expand(d, kb), canonical_graph(expand(c, kb), kb))
        if args.explain:
            _emit(failure and failure.to_jsonable())
        else:
            print("no" if failure else "yes")
        return 1 if failure else 0
    if cmd == "classify":
        kb = _load_kb(args.kb)
        _emit(classify(kb).to_jsonable())
        return 0
    if cmd == "countermodel":
        kb, (d, c) = _parse_all(args.kb, args.subsumer, args.subsumee)
        de, ce = expand(d, kb), expand(c, kb)
        canon = canonical_graph(ce, kb)
        if subsumes_graph(de, canon):
            print("error: subsumption holds; no counter-model exists",
                  file=sys.stderr)
            return 1
        try:
            world, elem = construct_graphical_world(canon, steering=de,
                                                    kb=kb)
        except CounterModelError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        interpret_rest(world, ce)
        _emit(world_jsonable(world, distinguished=elem))
        return 0
    if cmd == "reduce":
        formula = reduction.parse_dimacs(
            _read_file(args.cnf_file, reduction.DimacsError))
        if len(formula.variables) > reduction.BRUTEFORCE_LIMIT:
            raise reduction.DimacsError(
                "too many variables for the brute-force check (%d > %d)"
                % (len(formula.variables), reduction.BRUTEFORCE_LIMIT))
        report = reduction.demonstrate_incompleteness(formula)
        _emit(report.to_jsonable())
        return 0
    if cmd == "fuzz":
        from . import randgen  # only fuzz runs it: not imported per call
        sound = randgen.soundness_run(args.seed, args.cases,
                                      worlds_per_case=10,
                                      max_domain=args.max_domain)
        complete = randgen.completeness_run(args.seed, args.cases)
        _emit({
            "seed": args.seed,
            "cases": args.cases,
            "soundness": {"positives": sound.positives,
                          "nonvacuous_cases": sound.nonvacuous_cases,
                          "nonvacuous_worlds": sound.nonvacuous_worlds,
                          "violations": sound.violations,
                          "failures": sound.failures},
            "completeness": {"negatives": complete.negatives,
                             "violations": complete.violations,
                             "failures": complete.failures},
        })
        return 1 if (sound.violations or complete.violations) else 0
    raise AssertionError("unhandled command %r" % cmd)


if __name__ == "__main__":
    sys.exit(main())

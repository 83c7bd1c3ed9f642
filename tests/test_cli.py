import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import classicdl
from classicdl import cli
from classicdl.cli import main
from classicdl.countermodel import construct_graphical_world
from classicdl.descriptions import to_jsonable, to_text
from classicdl.graph import (
    DescriptionGraph,
    GraphNode,
    INF,
    REdge,
    to_jsonable as graph_jsonable,
    translate,
)
from classicdl.kb import expand
from classicdl.normalize import canonicalize
from classicdl.parsing import parse_description, parse_kb
from classicdl.randgen import ATTRS, INDIVIDUALS, ROLES, random_pair
from classicdl.subsume import explain
from classicdl.worlds import eval_description, to_jsonable as world_jsonable

FIG1 = ("and(GAME, all(participants, PERSON), "
        "same-as((coach),(captain,father)))")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_subsumes_yes(capsys):
    code, out, _ = run(capsys, "subsumes", "at-least(2,participants)",
                       "and(GAME, at-least(4,participants))")
    assert code == 0 and out.strip() == "yes"


def test_subsumes_no(capsys):
    code, out, _ = run(capsys, "subsumes", "at-least(4,participants)",
                       "and(GAME, at-least(2,participants))")
    assert code == 1 and out.strip() == "no"


def test_parse_dump(capsys):
    code, out, _ = run(capsys, "parse", FIG1)
    assert code == 0
    data = json.loads(out)
    assert data["op"] == "and" and len(data["items"]) == 3


def test_graph_dump(capsys):
    code, out, _ = run(capsys, "graph", FIG1)
    data = json.loads(out)
    assert code == 0
    assert len(data["nodes"]) == 3 and len(data["aedges"]) == 3


def test_canon_marks_incoherent(capsys):
    code, out, _ = run(capsys, "canon", "and(at-least(2,r), at-most(1,r))")
    assert code == 0
    assert json.loads(out)["incoherent"] is True


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "and(GAME")
    assert code == 3
    assert "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_countermodel_output(capsys):
    code, out, _ = run(capsys, "countermodel", "at-least(3,r)",
                       "at-least(2,r)")
    assert code == 0
    data = json.loads(out)
    assert data["distinguished"]
    assert len(data["roles"]["r"]) == 2


def test_countermodel_host_filler(capsys):
    # the filler 2 is realized by the host value itself
    code, out, _ = run(capsys, "countermodel", "all(r, one-of(1))",
                       "fills(r, 2)")
    assert code == 0
    assert ["c0", "2"] in json.loads(out)["roles"]["r"]


def test_countermodel_refuses_positive(capsys):
    code, _, err = run(capsys, "countermodel", "at-least(1,r)",
                       "at-least(2,r)")
    assert code == 1 and "no counter-model" in err


def test_countermodel_construction_failure_exit_code(capsys):
    # Every admissible host value lies in INTEGER, so no separating world
    # exists although the structural test answers "no".
    code, out, err = run(capsys, "countermodel", "INTEGER", "one-of(1, 2)")
    assert code == 1 and out == ""
    assert "error" in err


def test_countermodel_size_limit_fails_fast(capsys):
    # A billion fillers would exhaust memory; the planned count is checked
    # against the element ceiling before any of them is built.
    start = time.perf_counter()
    code, out, err = run(capsys, "countermodel", "at-least(1000000000, r)",
                         "at-least(1, r)")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and "size limit" in err


def test_countermodel_host_literal_identity_corner(capsys):
    # A host literal is one element, so f and g are equal in every world
    # where both are filled with 1; the structural test still answers "no".
    same, host = "same-as((f),(g))", "and(fills(f, 1), fills(g, 1))"
    code, out, _ = run(capsys, "subsumes", same, host)
    assert code == 1 and out.strip() == "no"
    code, out, err = run(capsys, "countermodel", same, host)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    # A classic individual denotes a set of elements, so f and g can
    # differ inside it and the world exists.
    for classic in ("and(fills(f, P), fills(g, P))",
                    "and(all(f, one-of(P)), all(g, one-of(P)))"):
        code, out, _ = run(capsys, "countermodel", same, classic)
        assert code == 0
        world = json.loads(out)
        assert world["individuals"]["P"] == sorted(
            world["attributes"][a][world["distinguished"]] for a in "fg")


def test_countermodel_same_as_chain_through_a_host_value(capsys, tmp_path):
    # g is undefined at the host value 1, so the chain (f,g) has no value
    kb_path = tmp_path / "attributes.kb"
    kb_path.write_text("attribute f\nattribute g\n")
    code, out, err = run(capsys, "countermodel", "--kb", str(kb_path),
                         "same-as((f),(f,g))", "fills(f, 1)")
    assert (code, err) == (0, "")
    world = json.loads(out)
    assert world["attributes"]["f"][world["distinguished"]] == "1"


@pytest.mark.parametrize("filler", ["P", "1"])
def test_narrowed_dom_gives_its_realm(capsys, tmp_path, filler):
    # at-most(1, r) with one filler narrows the restriction's dom to that
    # filler; the dom's realm then holds for every filler.
    kb_path = tmp_path / "role.kb"
    kb_path.write_text("role r\nindividual P\n")
    realm = "classic-thing" if filler == "P" else "host-thing"
    code, out, err = run(capsys, "subsumes", "--kb", str(kb_path),
                         "all(r, %s)" % realm,
                         "and(at-most(1, r), fills(r, %s))" % filler)
    assert (code, out, err) == (0, "yes\n", "")


def test_narrowed_host_dom_is_not_classic(capsys, tmp_path):
    # the one filler is a host value: the answer stays no, and the
    # counter-model is verified
    kb_path = tmp_path / "role.kb"
    kb_path.write_text("role r\nindividual P\n")
    d_text, c_text = "all(r, classic-thing)", "and(at-most(1, r), fills(r, 1))"
    assert run(capsys, "subsumes", "--kb", str(kb_path), d_text,
               c_text)[:2] == (1, "no\n")
    code, out, err = run(capsys, "countermodel", "--kb", str(kb_path),
                         d_text, c_text)
    assert (code, err) == (0, "")
    world = json.loads(out)
    fillers = [y for x, y in world["roles"]["r"]
               if x == world["distinguished"]]
    assert fillers == ["1"]


def test_countermodel_rejects_seed_flag():
    with pytest.raises(SystemExit) as exc:
        main(["countermodel", "--seed", "1", "GAME", "PERSON"])
    assert exc.value.code == 2


def test_kb_file_flag(tmp_path, capsys):
    kb_file = tmp_path / "kb.cdl"
    kb_file.write_text("role r\nattribute coach\nindividual Pat\n"
                       "concept NEEDY := at-least(2, r)\n")
    code, out, _ = run(capsys, "subsumes", "--kb", str(kb_file),
                       "at-least(1, r)", "NEEDY")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "classify", "--kb", str(kb_file))
    data = json.loads(out)
    assert any("NEEDY" in n["members"] for n in data)


def test_reduce_subcommand(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run(capsys, "reduce", str(cnf))
    assert code == 0
    data = json.loads(out)
    assert data == {"validity": True, "engine_verdict": False, "gap": True}


def test_fuzz_subcommand(capsys):
    code, out, _ = run(capsys, "fuzz", "--seed", "5", "--cases", "40")
    assert code == 0
    data = json.loads(out)
    sound = data["soundness"]
    assert sound["violations"] == 0
    assert data["completeness"]["violations"] == 0
    # the command samples 10 worlds per positive case
    assert 0 < sound["nonvacuous_cases"] <= sound["positives"]
    assert (sound["nonvacuous_cases"] <= sound["nonvacuous_worlds"]
            <= 10 * sound["nonvacuous_cases"])


@pytest.mark.parametrize("flag, value", [
    ("--cases", "-3"), ("--cases", "0"),
    ("--max-domain", "0"), ("--max-domain", "-1"),
])
def test_fuzz_rejects_non_positive_counts(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "at least 1" in err


def test_output_deterministic(capsys):
    _, out1, _ = run(capsys, "canon", FIG1)
    _, out2, _ = run(capsys, "canon", FIG1)
    assert out1 == out2
    _, f1, _ = run(capsys, "fuzz", "--seed", "5", "--cases", "10")
    _, f2, _ = run(capsys, "fuzz", "--seed", "5", "--cases", "10")
    assert f1 == f2


def test_graph_expands_primitives_via_kb(tmp_path, capsys):
    kb_file = tmp_path / "kb.cdl"
    kb_file.write_text("role employeeNr\n"
                       "concept EMPLOYEE := primitive(and(PERSON, "
                       "at-least(1, employeeNr)), employee)\n")
    code, out, _ = run(capsys, "canon", "--kb", str(kb_file), "EMPLOYEE")
    assert code == 0
    data = json.loads(out)
    assert "@prim:employee" in data["nodes"][0]["atoms"]
    code, out, _ = run(capsys, "subsumes", "--kb", str(kb_file),
                       "and(PERSON, at-least(1, employeeNr))", "EMPLOYEE")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "subsumes", "--kb", str(kb_file),
                       "EMPLOYEE", "and(PERSON, at-least(1, employeeNr))")
    assert code == 1 and out.strip() == "no"


def test_graph_matches_golden_bytes(capsys):
    import pathlib

    golden = (pathlib.Path(__file__).parent / "goldens" /
              "figure1.json").read_text()
    code, out, _ = run(capsys, "graph", FIG1)
    assert code == 0 and out == golden


def test_inference_pooled_across_descriptions(capsys):
    # coach appears in a same-as chain only on the subsumee side; the
    # subsumer must still parse it as an attribute
    code, out, _ = run(capsys, "subsumes", "all(coach, thing)",
                       "same-as((coach),(captain))")
    assert code == 0 and out.strip() == "yes"


def test_disjoint_declared_name_is_an_input_error(tmp_path, capsys):
    kb_file = tmp_path / "kb.cdl"
    kb_file.write_text("role r\nconcept TALL := primitive(thing, tall)\n"
                       "disjoint TALL SMALL\n")
    code, out, err = run(capsys, "canon", "--kb", str(kb_file),
                         "and(all(r, TALL), all(r, SMALL), at-least(1, r))")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "line 3" in err


def test_disjoint_repeated_name_is_an_input_error(tmp_path, capsys):
    kb_file = tmp_path / "kb.cdl"
    kb_file.write_text("role r\ndisjoint TALL TALL\n")
    code, out, err = run(capsys, "classify", "--kb", str(kb_file))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "TALL twice" in err
    assert "line 2, offset 14" in err


def test_reserved_name_in_a_kb_file_is_an_input_error(tmp_path, capsys):
    kb_file = tmp_path / "kb.cdl"
    kb_file.write_text("role r\nconcept THING := at-least(1, r)\n")
    code, out, err = run(capsys, "classify", "--kb", str(kb_file))
    assert code == 3 and out == ""
    assert err.startswith("error: THING is reserved")
    assert "line 2, offset 8" in err


def test_missing_kb_file_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "absent.cdl"
    code, out, err = run(capsys, "subsumes", "--kb", str(missing),
                         "GAME", "GAME")
    assert code == 3 and out == ""
    assert err.startswith("error: cannot read") and str(missing) in err


def _nested_text(depth: int) -> str:
    text = "X0"
    for k in range(1, depth + 1):
        text = "all(r, and(X%d, at-least(1, r), %s))" % (k, text)
    return text


@pytest.mark.parametrize("argv, depth", [
    # 300 levels of all(r, and(X_k, at-least(1, r), ...)) exceed the
    # interpreter's recursion limit in the parser.
    *((argv, 300) for argv in [("parse",), ("canon",), ("subsumes",),
                               ("subsumes", "--explain"), ("countermodel",)]),
])
def test_too_deep_input_is_an_input_error(capsys, argv, depth):
    text = _nested_text(depth)
    texts = (text,) if argv[0] in ("parse", "canon") else (text, text)
    code, out, err = run(capsys, *argv, *texts)
    assert code == 3 and out == ""
    assert err.startswith("error: input nested too deeply")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, expected", [
    (("canon",), None),
    (("subsumes",), (0, "yes\n", "")),
    (("subsumes", "--explain"), (0, "null\n", "")),
    (("countermodel",),
     (1, "", "error: subsumption holds; no counter-model exists\n")),
], ids=["canon", "subsumes", "explain", "countermodel"])
def test_nested_200_deep_input_is_answered(capsys, argv, expected):
    # 200 levels parse, canonicalize, print and pass the structural test:
    # a description subsumes itself.  The canonical form merges each
    # level's at-least(1, r) into the next level's all(r, ...), so its dump
    # holds one restriction graph per level and the innermost at-least's.
    text = _nested_text(200)
    if expected is None:
        code, out, err = run(capsys, *argv, text)
        assert (code, err) == (0, "")
        assert out.count('"restriction"') == 201
        assert out.endswith("\n}\n")
    else:
        assert run(capsys, *argv, text, text) == expected


def test_canon_dump_has_no_depth_ceiling(capsys):
    # The parser still recurses per level, so a graph nested three times
    # the recursion limit is built by hand; its dump is built and printed
    # without recursion.
    depth = 3 * sys.getrecursionlimit()
    g = DescriptionGraph()
    g.root = g.add_node(GraphNode(atoms={"A"}))
    for _ in range(depth - 1):
        outer = DescriptionGraph()
        outer.root = outer.add_node(GraphNode(atoms={"A"}))
        outer.root_node.r_edges.append(REdge("r", 0, INF, g))
        g = outer
    cli._emit(graph_jsonable(canonicalize(g)))
    out = capsys.readouterr().out
    assert out.count('"restriction"') == depth - 1
    assert out.count('"CLASSIC-THING"') == depth


def test_emit_writes_what_json_dumps_writes(capsys):
    # Every kind of dump the commands print, against the encoder: graphs,
    # worlds, ASTs and failures of the random corpus, plus the corner
    # cases of containers and keys.
    rng = random.Random(0)
    dumps = [{}, [], {"a": {}, "b": []}, [[[]], {"k": [{}]}],
             {1: None, True: 2.5, None: "x", "q\u00e9": [False, "\n"]}]
    for _ in range(60):
        d, c = random_pair(rng)
        dumps.append(to_jsonable(d))
        g = canonicalize(translate(c))
        dumps.append(graph_jsonable(g))
        failure = explain(d, g)
        if failure:
            dumps.append(failure.to_jsonable())
            world, elem = construct_graphical_world(g, steering=d)
            dumps.append(world_jsonable(world, distinguished=elem))
    for obj in dumps:
        cli._emit(obj)
        assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"


def test_reduce_missing_file_is_an_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "reduce", str(tmp_path / "absent.cnf"))
    assert code == 3 and out == ""
    assert err.startswith("error: cannot read")


@pytest.mark.parametrize("argv", [("classify", "--kb"), ("reduce",)])
def test_file_not_utf8_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes("role r\nconcept CAF\xc9 := at-least(1, r)\n"
                     .encode("latin-1"))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: cannot read %s" % path)
    assert err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("1 -2 3 0\n", "clause before DIMACS header"),
    ("p cnf 2 1\n1 x 0\n", "not an integer"),
    ("p cnf 1 1\n1 2 0\n", "undeclared variable x2"),
])
def test_reduce_malformed_dimacs_is_an_input_error(tmp_path, capsys, text,
                                                   message):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text(text)
    code, out, err = run(capsys, "reduce", str(cnf))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and message in err


def test_reduce_beyond_the_brute_force_limit_is_an_input_error(tmp_path,
                                                               capsys):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 21 1\n1 2 3 0\n")
    code, out, err = run(capsys, "reduce", str(cnf))
    assert code == 3 and out == ""
    assert err == ("error: too many variables for the brute-force check "
                   "(21 > 20)\n")


def test_subsumes_explain(capsys):
    code, out, _ = run(capsys, "subsumes", "--explain",
                       "at-least(2,participants)",
                       "and(GAME, at-least(4,participants))")
    assert code == 0 and json.loads(out) is None
    code, out, _ = run(capsys, "subsumes", "--explain",
                       "and(GAME, at-least(4,participants))",
                       "and(GAME, at-least(2,participants))")
    assert code == 1
    assert json.loads(out) == {"clause": "at-least(4, participants)",
                               "node": 0, "inner": None}
    # node ids are those of the ``canon`` dump; the body of all(coach, ...)
    # fails at the coach edge's target inside the r restriction
    code, out, _ = run(capsys, "subsumes", "--explain",
                       "all(r, all(coach, and(A, B)))",
                       "all(r, and(C, all(coach, A), same-as((coach),(h))))")
    assert code == 1
    assert json.loads(out) == {
        "clause": "all(r, all(coach, and(A, B)))", "node": 0,
        "inner": {"clause": "B", "node": 1, "inner": None}}


def test_countermodel_same_bytes_under_any_hash_seed():
    # fresh elements for unjoined individuals are handed out in name order
    src = str(pathlib.Path(classicdl.__file__).resolve().parents[1])
    outs = set()
    for seed in range(1, 9):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "classicdl", "countermodel",
             "at-most(1, s)", "one-of(P, Q, V)"],
            env=env, capture_output=True, check=True, timeout=60)
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_countermodel_worlds_interpret_the_subsumee(capsys, monkeypatch,
                                                    tmp_path):
    # Canonicalization can drop names from C (seed 453 drops the individual
    # V under a nothing); the printed world must still interpret them, so
    # both descriptions evaluate and the element separates them.
    kb_text = "\n".join(["role %s" % r for r in ROLES]
                        + ["attribute %s" % a for a in ATTRS]
                        + ["individual %s" % i.name for i in INDIVIDUALS])
    kb_path = tmp_path / "vocabulary.kb"
    kb_path.write_text(kb_text)
    kb = parse_kb(kb_text)
    printed = []
    emit = cli.world_jsonable

    def capture(world, distinguished):
        printed.append((world, distinguished))
        return emit(world, distinguished=distinguished)

    monkeypatch.setattr(cli, "world_jsonable", capture)
    built = []
    for seed in range(800):
        texts = [to_text(x) for x in random_pair(random.Random(seed))]
        printed.clear()
        if run(capsys, "countermodel", "--kb", str(kb_path), *texts)[0]:
            continue
        built.append(seed)
        (world, elem), = printed
        d, c = (expand(parse_description(t, kb), kb) for t in texts)
        assert elem in eval_description(c, world), seed
        assert elem not in eval_description(d, world), seed
    assert len(built) > 250 and 453 in built, len(built)

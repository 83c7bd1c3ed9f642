"""Seeded worlds and counter-model output, pinned byte for byte.

``goldens/world_bytes.json`` holds what these inputs produced when role
extensions were still stored as sets of pairs (``sampled``,
``countermodel``) and when the host carrier was still built afresh for
every world (``corpus``).  A change to how worlds are stored, sampled or
dumped that alters any world shows up here.
"""

import hashlib
import json
import pathlib
import random

from classicdl.cli import main
from classicdl.descriptions import HOST_TEST_ATOM_PREFIX
from classicdl.parsing import parse_description
from classicdl.randgen import random_pair
from classicdl.worlds import (
    sample_interpretation,
    signature_of_description,
    to_jsonable,
)

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "world_bytes.json"

# roles, attributes, classic individuals, a host value and a same-as
# equation, so every table of a world and the equation closure are drawn
SAMPLED = ("and(all(r, A), at-most(2, s), fills(r, P), fills(s, Q), "
           "one-of(P, V), fills(f, 3), same-as((f), (g, h)), "
           "at-least(3, r))")

COUNTERMODELS = {
    "at-most": ("at-most(2, r)", "and(fills(r, P), fills(r, Q), all(r, A))"),
    "all": ("all(r, A)", "and(at-least(2, r), all(r, B), fills(r, P))"),
    "fills": ("fills(r, Q)",
              "and(fills(r, P), at-least(2, r), all(s, one-of(P, Q)))"),
}


def sampled_digest() -> str:
    """SHA-256 of the JSON dumps of the worlds sampled for seeds 0-49."""
    sig = signature_of_description(parse_description(SAMPLED))
    h = hashlib.sha256()
    for seed in range(50):
        world = sample_interpretation(sig, seed=seed)
        h.update(json.dumps(to_jsonable(world)).encode())
    return h.hexdigest()


def corpus_signatures():
    """Signatures of the first 40 ``random_pair`` draws of seed 0, each with
    a host-test atom, so the host carrier is drawn from as well."""
    rng = random.Random(0)
    out = []
    for _ in range(40):
        d, c = random_pair(rng)
        sig = signature_of_description(d).merge(signature_of_description(c))
        sig.atoms.add(HOST_TEST_ATOM_PREFIX + "even")
        out.append(sig)
    return out


def corpus_digest(sigs) -> str:
    """SHA-256 of the JSON dumps of three worlds per signature."""
    h = hashlib.sha256()
    for case, sig in enumerate(sigs):
        for w in range(3):
            world = sample_interpretation(sig, seed=case * 101 + w)
            h.update(json.dumps(to_jsonable(world)).encode())
    return h.hexdigest()


def countermodel_stdout(capsys, texts) -> str:
    assert main(["countermodel", *texts]) == 0
    return capsys.readouterr().out


def test_sampled_worlds_match_golden():
    assert sampled_digest() == json.loads(GOLDEN.read_text())["sampled"]


def test_corpus_worlds_match_golden():
    # max_number 1-4 gives host carrier margins 5-8, every margin the
    # random corpus reaches
    sigs = corpus_signatures()
    assert {sig.max_number for sig in sigs} == {1, 2, 3, 4}
    assert corpus_digest(sigs) == json.loads(GOLDEN.read_text())["corpus"]


def test_countermodel_stdout_matches_golden(capsys):
    golden = json.loads(GOLDEN.read_text())["countermodel"]
    assert sorted(golden) == sorted(COUNTERMODELS)
    for name, texts in COUNTERMODELS.items():
        assert countermodel_stdout(capsys, texts) == golden[name], name

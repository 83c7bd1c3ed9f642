"""Seeded worlds and counter-model output, pinned byte for byte.

``goldens/world_bytes.json`` holds what these inputs produced when role
extensions were still stored as sets of pairs.  A change to how worlds
are stored, sampled or dumped that alters any world shows up here.
"""

import hashlib
import json
import pathlib

from classicdl.cli import main
from classicdl.parsing import parse_description
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


def countermodel_stdout(capsys, texts) -> str:
    assert main(["countermodel", *texts]) == 0
    return capsys.readouterr().out


def test_sampled_worlds_match_golden():
    assert sampled_digest() == json.loads(GOLDEN.read_text())["sampled"]


def test_countermodel_stdout_matches_golden(capsys):
    golden = json.loads(GOLDEN.read_text())["countermodel"]
    assert sorted(golden) == sorted(COUNTERMODELS)
    for name, texts in COUNTERMODELS.items():
        assert countermodel_stdout(capsys, texts) == golden[name], name

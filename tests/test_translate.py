"""``translate`` builds, in one pass, the graph that merging builds.

``oracles.merge_translate`` translates as the paper does, merging one
graph per conjunct.  ``translate`` writes every conjunct into its node
instead, and must come out node for node the same: the same node order,
atoms, doms and r-edges, the same a-edge order and incoherent flag, and
restriction graphs the same in turn.  Canonical graphs and counter-model
worlds depend on that order, through the node ids a copy hands out.
"""

import importlib.util
import pathlib
import random

import pytest

from classicdl import graph
from classicdl.descriptions import AllAttr, And, Nothing, walk
from classicdl.parsing import infer_attr_names, parse_description
from classicdl.randgen import random_pair
from oracles import graph_shape, merge_translate
from test_dispatch import SAMPLES

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" \
    / "inputs.py"


def _deep_descriptions():
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    out = []
    for _, _, _, d_text, c_text in inputs.deep_ladders(0):
        attrs = infer_attr_names(d_text, c_text)
        out += [parse_description(text, None, inferred_attrs=set(attrs))
                for text in (d_text, c_text)]
    return out


def _random_descriptions():
    out = []
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(500):
            out += random_pair(rng)
    return out


def _outcome(translate, d):
    try:
        return graph_shape(translate(d))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("make", [_random_descriptions, _deep_descriptions,
                                  lambda: SAMPLES],
                         ids=["random-pairs", "deep-ladders", "samples"])
def test_translate_builds_the_merged_graph(make, monkeypatch):
    descriptions = make()
    expected = [_outcome(merge_translate, d) for d in descriptions]

    def no_merge(*args):
        raise AssertionError("translate merged graphs")

    monkeypatch.setattr(graph, "merge_graphs", no_merge)
    monkeypatch.setattr(graph, "merge_nodes", no_merge)
    for d, shape in zip(descriptions, expected):
        assert _outcome(graph.translate, d) == shape, d


def _conjuncts(d):
    """The leaves and ``all`` descriptions that ``d`` writes into its own
    node: ``d`` with its ``and``s flattened."""
    stack, out = [d], []
    while stack:
        d = stack.pop()
        if type(d) is And:
            stack += d.items
        else:
            out.append(d)
    return out


def test_the_random_inputs_reach_every_ordering_rule():
    ds = _random_descriptions()
    targets = [t.restriction for d in ds for t in walk(d)
               if type(t) is AllAttr]
    # NOTHING beside other conjuncts, at a root and at a target.
    assert any(Nothing() in _conjuncts(d) and len(_conjuncts(d)) > 1
               for d in ds)
    assert any(Nothing() in _conjuncts(t) and len(_conjuncts(t)) > 1
               for t in targets)
    # An all(attr, all(attr, ...)), as a whole graph's description and
    # at a target.
    assert any(type(d) is AllAttr and type(d.restriction) is AllAttr
               for d in ds)
    assert any(type(t) is AllAttr for t in targets)

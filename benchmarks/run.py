"""Closed-loop benchmark of the classicdl engine.

One client in one process sends each operation only after the previous
answer arrived, cycling through a seeded corpus in whole passes until the
run time is used up.  The engine only ever receives generated text.

    python3 benchmarks/run.py --workload pairs --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
loop untraced for half the time and traced for the other half, prints the
per-layer metrics and writes the spans to ``benchmarks/out/``.  Times are
wall-clock times scaled to a machine of nominal speed by a reference work
unit measured between operations (see ``reference.py``); the unscaled
figures are printed too.  Every answer is checked after the timed loop
(see ``workloads.py``); answers on the recorded seed must also match
``answers.json`` (``--record`` rewrites it).  The last line of output is
one JSON object; the exit code is 1 when any check failed.  Which metric
each layer should move, and on which workload, is written down in
``layers.json``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import operator  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
ANSWERS = os.path.join(HERE, "answers.json")
TRACE_DIR = os.path.join(HERE, "out")

SETUP_REPS = 15

# Engine function -> the layer its self time is charged to.
LAYER = {
    "parsing.parse_description": "parsing",
    "parsing.parse_kb": "parsing",
    "parsing.infer_attr_names": "parsing",
    "kb.expand": "kb.expand",
    "kb.classify": "kb.classify",
    "graph.translate": "graph",
    "graph.merge_graphs": "graph",
    "normalize.canonicalize": "normalize",
    "subsume.subsumes_graph": "subsume",
    "countermodel.construct_graphical_world": "countermodel",
    "worlds.sample_interpretation": "worlds.sample",
    "worlds.eval_description": "worlds.eval",
    "worlds.eval_graph": "worlds.eval",
    "worlds.element_in_graph": "worlds.eval",
    "randgen.soundness_run": "randgen",
    "randgen.completeness_run": "randgen",
}
# World evaluation below these calls checks a counter-model world rather
# than a sampled one, so it is charged to the counter-model layer.
COUNTERMODEL_CONTEXT = ("countermodel.construct_graphical_world",
                        "randgen.completeness_run")

DEEP_TIME_LAYERS = ("parsing", "graph", "normalize", "subsume",
                    "countermodel")
DEEP_COUNTS = {
    "subsume_calls": "calls:subsume.subsumes_graph",
    "merge_graphs_calls": "calls:graph.merge_graphs",
    "nodes_cloned": "graph.nodes_cloned",
    "nodes_in": "normalize.nodes_in",
    "nodes_out": "normalize.nodes_out",
}
DEEP_FAMILY_NAMES = ("and", "chain", "nested")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in output order."""
    out = [
        ("parsing.us_per_item", "us"),
        ("kb.expand.us_per_item", "us"),
        ("kb.classify.tests_per_concept", "count"),
        ("graph.translate.us_per_item", "us"),
        ("graph.merge_graphs.calls", "count"),
        ("graph.nodes_cloned", "count"),
        ("normalize.canonicalize.us_per_item", "us"),
        ("normalize.nodes_in", "count"),
        ("normalize.nodes_out", "count"),
        ("subsume.us_per_query", "us"),
        ("subsume.calls_per_query", "count"),
        ("countermodel.us_per_item", "us"),
        ("worlds.sample.us_per_world", "us"),
        ("worlds.eval.us_per_world", "us"),
        ("worlds.nonvacuous_ratio", "ratio"),
        ("randgen.self_us_per_case", "us"),
    ]
    for family in DEEP_FAMILY_NAMES:
        for layer in DEEP_TIME_LAYERS:
            out.append(("deep.exponent.%s.%s.time" % (family, layer),
                        "exponent"))
        for count in DEEP_COUNTS:
            out.append(("deep.exponent.%s.%s.count" % (family, count),
                        "exponent"))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tail_shape(ops_per_pass: int) -> tuple[int, int]:
    """(percentile, passes per block) of a workload's tail latency.

    The tail is the highest of p99 and p90 that leaves at least ten samples
    beyond it in a block of whole passes.  Both are fixed by the number of
    operations per pass, never by how many passes a run manages, so the
    metric means the same thing on a fast and on a slow machine."""
    for p in (99, 90):
        if ops_per_pass >= _samples_for(p):
            return p, 1
    return 90, math.ceil(_samples_for(90) / ops_per_pass)


def _samples_for(p: int) -> int:
    """The fewest samples that leave ten beyond the p-th percentile."""
    return 10 * 100 // (100 - p)


def _beyond(p: int, size: int) -> int:
    """Samples above the p-th percentile (nearest rank) of ``size``."""
    return size - (p * size + 99) // 100


# -- the closed loop ----------------------------------------------------------


class Phase:
    """One timed loop over the corpus in whole passes.

    Operations run in groups of at least ``reference.SAMPLE_EVERY_S`` of
    engine time, with a reference sample before and after each group.  An
    operation's scaled latency is its wall-clock latency times the nominal
    unit time over the mean of those two samples.  Throughput is the median
    over passes of a pass's items per scaled second.
    """

    def __init__(self, wl, seconds: float, min_passes: int, tracer=None):
        n = len(wl.ops)
        self.ops_per_pass = n
        self.pass_items = sum(op.items for op in wl.ops)
        self.answers = [None] * n
        self.bad: dict[int, str] = {}
        # Wall-clock latency of each operation run, in run order (run k is
        # operation k % n), and its machine-speed scale.  Flat arrays keep
        # the benchmark's own memory small next to the engine's.
        self.raw = array("d")
        self.scales = array("d")
        self.passes = 0
        start = time.perf_counter()
        deadline = start + seconds
        before = reference.sample()
        group_start, group_s = 0, 0.0
        while True:
            for i, op in enumerate(wl.ops):
                if tracer is not None:
                    tracer.begin_op()
                t0 = time.perf_counter()
                try:
                    answer, _ = op.run()
                except Exception as exc:  # an operation failure is counted
                    answer = None
                    if not self.bad:
                        traceback.print_exc()
                    self.bad.setdefault(i, "raised %r" % exc)
                t1 = time.perf_counter()
                self.raw.append(t1 - t0)
                if self.passes == 0:
                    self.answers[i] = answer
                elif answer != self.answers[i]:
                    self.bad.setdefault(i, "answer changed between passes")
                group_s += t1 - t0
                if group_s >= reference.SAMPLE_EVERY_S or i == n - 1:
                    after = reference.sample()
                    scale = 2 * reference.UNIT_S / (before + after)
                    self.scales.extend([scale] * (len(self.raw) - group_start))
                    before, group_start, group_s = after, len(self.raw), 0.0
            self.passes += 1
            if (time.perf_counter() >= deadline
                    and self.passes >= min_passes):
                break
        self.elapsed = time.perf_counter() - start
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        self.latencies = array("d", map(operator.mul, self.raw, self.scales))

    @property
    def attempted(self) -> int:
        return len(self.raw)

    @property
    def failed(self) -> int:
        return self.passes * len(self.bad)

    def _rate(self, latencies) -> float:
        n = self.ops_per_pass
        return statistics.median(
            self.pass_items / sum(latencies[k:k + n])
            for k in range(0, len(latencies), n))

    @property
    def items_per_s(self) -> float:
        return self._rate(self.latencies)

    @property
    def raw_items_per_s(self) -> float:
        return self._rate(self.raw)

    def tail(self) -> tuple[int, int, float]:
        """(percentile, samples per block, median over blocks of whole
        passes of the block's percentile latency)."""
        p, block_passes = tail_shape(self.ops_per_pass)
        size = block_passes * self.ops_per_pass
        values = []
        for k in range(0, len(self.latencies) - size + 1, size):
            ordered = sorted(self.latencies[k:k + size])
            values.append(ordered[size - _beyond(p, size) - 1])
        return p, size, statistics.median(values)


def answer_form(answer):
    """What answers.json keeps of an answer: the letter of a yes/no answer,
    the positive and negative case counts of a property run (which must
    report no violations anyway), and a digest of a taxonomy."""
    if answer in ("yes", "no"):
        return answer[0]
    if isinstance(answer, dict):
        return "%d+%d" % (answer["positives"], answer["negatives"])
    return digest(answer)


def answer_forms(answers):
    """One string of letters for yes/no workloads, a list otherwise."""
    forms = [answer_form(a) for a in answers]
    return "".join(forms) if all(len(f) == 1 for f in forms) else forms


def check_answers(wl, phase: Phase, expected) -> None:
    """The correctness gate, outside the timed region.  Each operation runs
    once more to collect the evidence its check needs (the timed loop keeps
    only the answers, so stored evidence neither grows the heap nor adds to
    the peak memory), and must give the same answer again."""
    for i, op in enumerate(wl.ops):
        if i in phase.bad:
            continue
        try:
            answer, evidence = op.run()
            err = op.check(answer, evidence) \
                if answer == phase.answers[i] else "answer differs on re-run"
        except Exception as exc:  # a check that cannot run rejects
            err = "check raised %r" % exc
        if err is None and expected is not None \
                and answer_form(answer) != expected[i]:
            err = "answer differs from the recorded one"
        if err is not None:
            phase.bad[i] = err


def recorded_answers(workload: str, seed: int, wl):
    """The recorded answer forms for this seed, or None."""
    try:
        with open(ANSWERS, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    entry = data["workloads"].get(workload)
    if entry is None or data["seed"] != seed:
        return None
    if entry["inputs"] != digest(wl.inputs):
        return ["(inputs differ from the recorded ones)"] * len(wl.ops)
    return entry["answers"]


def record_answers(workload: str, seed: int, wl, phase: Phase) -> None:
    data = {"seed": seed, "workloads": {}}
    if os.path.exists(ANSWERS):
        with open(ANSWERS, encoding="utf-8") as fh:
            data = json.load(fh)
        if data["seed"] != seed:
            data = {"seed": seed, "workloads": {}}
    data["workloads"][workload] = {"inputs": digest(wl.inputs),
                                   "answers": answer_forms(phase.answers)}
    with open(ANSWERS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- end-to-end metrics -------------------------------------------------------


def end_to_end(phase: Phase, setup_s: float) -> dict:
    p, size, tail_s = phase.tail()
    print("latency_tail_us is p%d, the median over %d blocks of %d samples "
          "(%d beyond it)" % (p, phase.attempted // size, size,
                              _beyond(p, size)))
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (phase.items_per_s, "1/s"),
        "latency_p50_us": (statistics.median(phase.latencies) * 1e6, "us"),
        "latency_tail_us": (tail_s * 1e6, "us"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
    }

# -- per-layer metrics --------------------------------------------------------


def _fit_exponent(xs, ys) -> float:
    """Least-squares slope of log y over log x.  A series that is constant
    grows as n^0; one with a zero in it (a layer or count that some ladder
    member never reaches) has no log-log slope and reads 0 too."""
    if min(ys) <= 0 or max(ys) == min(ys):
        return 0.0
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    k = len(lx)
    sx, sy = sum(lx), sum(ly)
    den = k * sum(x * x for x in lx) - sx * sx
    return (k * sum(x * y for x, y in zip(lx, ly)) - sx * sy) / den


def per_layer(wl, tracer, traced: Phase, untraced: Phase,
              workload: str) -> dict:
    names = [tracer.names[n] for n in tracer.name]
    n_spans = len(names)
    layer_self: Counter = Counter()
    op_layer_self: dict[int, Counter] = defaultdict(Counter)
    spans_of: Counter = Counter(names)
    cm_context = [False] * n_spans
    classify_tests = 0
    for i, name in enumerate(names):
        parent = tracer.parent[i]
        pname = names[parent] if parent >= 0 else None
        cm_context[i] = name in COUNTERMODEL_CONTEXT or (
            parent >= 0 and cm_context[parent])
        layer = LAYER[name]
        if layer == "worlds.eval" and cm_context[i]:
            layer = "countermodel"
        self_s = tracer.self_time[i] * traced.scales[tracer.op[i]]
        layer_self[layer] += self_s
        op_layer_self[tracer.op[i]][layer] += self_s
        if name == "subsume.subsumes_graph" and pname == "kb.classify":
            classify_tests += 1

    items = traced.passes * traced.pass_items
    worlds_sampled = spans_of["worlds.sample_interpretation"]
    queries = spans_of["subsume.subsumes_graph"]

    def per(total, base):
        return total / base if base else 0.0

    m = {
        "parsing.us_per_item": per(layer_self["parsing"] * 1e6, items),
        "kb.expand.us_per_item": per(layer_self["kb.expand"] * 1e6, items),
        "kb.classify.tests_per_concept": per(classify_tests, items),
        "graph.translate.us_per_item": per(layer_self["graph"] * 1e6, items),
        "graph.merge_graphs.calls":
            per(tracer.total_count("calls:graph.merge_graphs"), items),
        "graph.nodes_cloned":
            per(tracer.total_count("graph.nodes_cloned"), items),
        "normalize.canonicalize.us_per_item":
            per(layer_self["normalize"] * 1e6, items),
        "normalize.nodes_in":
            per(tracer.total_count("normalize.nodes_in"), items),
        "normalize.nodes_out":
            per(tracer.total_count("normalize.nodes_out"), items),
        "subsume.us_per_query": per(layer_self["subsume"] * 1e6, queries),
        "subsume.calls_per_query":
            per(tracer.total_count("calls:subsume.subsumes_graph"), queries),
        "countermodel.us_per_item":
            per(layer_self["countermodel"] * 1e6, items),
        "worlds.sample.us_per_world":
            per(layer_self["worlds.sample"] * 1e6, worlds_sampled),
        "worlds.eval.us_per_world":
            per(layer_self["worlds.eval"] * 1e6, worlds_sampled),
        "worlds.nonvacuous_ratio":
            per(tracer.nonvacuous_worlds, worlds_sampled),
        "randgen.self_us_per_case": per(layer_self["randgen"] * 1e6, items),
    }
    exponents = deep_exponents(wl, tracer, op_layer_self, traced) \
        if workload == "deep" else {}
    for name, _ in per_layer_names():
        if name.startswith("deep."):
            m[name] = exponents.get(name, 0.0)
    m["trace.overhead_ratio"] = traced.items_per_s / untraced.items_per_s
    units = dict(per_layer_names())
    return {k: (m[k], units[k]) for k, _ in per_layer_names()}


def deep_exponents(wl, tracer, op_layer_self, traced: Phase) -> dict:
    """Scaling exponents per ladder family, from the median per-pass self
    time of each layer and from the exact operation counts."""
    n_ops = len(wl.ops)
    times = defaultdict(Counter)  # (family, n, layer) -> pass -> seconds
    counts = Counter()            # (family, n, count) in the first pass
    sizes = defaultdict(set)
    for seq in range(traced.attempted):
        family, n, _ = wl.ops[seq % n_ops].label.split("/")
        key = (family, int(n))
        sizes[family].add(int(n))
        for layer in DEEP_TIME_LAYERS:
            times[key + (layer,)][seq // n_ops] += op_layer_self[seq][layer]
        if seq < n_ops:
            for cname, ckey in DEEP_COUNTS.items():
                counts[key + (cname,)] += tracer.counts_by_op[seq][ckey]
    out = {}
    for family, ns in sizes.items():
        ns = sorted(ns)
        for layer in DEEP_TIME_LAYERS:
            ys = [statistics.median(times[(family, n, layer)].values())
                  for n in ns]
            out["deep.exponent.%s.%s.time" % (family, layer)] = \
                _fit_exponent(ns, ys)
        for cname in DEEP_COUNTS:
            ys = [counts[(family, n, cname)] for n in ns]
            out["deep.exponent.%s.%s.count" % (family, cname)] = \
                _fit_exponent(ns, ys)
    return out


def trace_problems(wl, tracer, traced: Phase, untraced: Phase) -> list[str]:
    problems = []
    for name in wl.traced:
        if not tracer.rebinds[name]:
            problems.append("%s was not rebound anywhere" % name)
        if not tracer.total_count("calls:" + name):
            problems.append("%s was never called while traced" % name)
    if traced.answers != untraced.answers:
        problems.append("traced answers differ from untraced answers")
    for seq in range(traced.attempted):
        i = seq % len(wl.ops)
        if tracer.counts_by_op[seq] != tracer.counts_by_op[i]:
            problems.append("operation counts of %s differ between passes"
                            % wl.ops[i].label)
            break
    return problems


# -- main ---------------------------------------------------------------------


def emit(metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print("%-40s %.6g %s" % (name, value, unit))
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def set_up(args):
    """Import the engine, generate the inputs and warm up.  Returns the
    workload, or None when the engine sources are missing."""
    if not os.path.isfile(os.path.join(SRC, "classicdl", "__init__.py")):
        print("error: engine sources not found at %s" % SRC, file=sys.stderr)
        return None
    sys.path.insert(0, SRC)
    import classicdl
    import workloads
    if not os.path.abspath(classicdl.__file__).startswith(SRC + os.sep):
        print("error: imported classicdl from %s, not from %s"
              % (classicdl.__file__, SRC), file=sys.stderr)
        return None
    wl = workloads.WORKLOADS[args.workload](args.seed)
    for i in wl.warm:
        try:
            wl.ops[i].run()
        except Exception:  # the timed loop records the failure
            pass
    return wl


def measure_set_up(args) -> tuple[float, float]:
    """Median set-up time of fresh interpreters, each timed from the start
    of this script to the end of its warm-up, scaled and unscaled.  One
    interpreter can import the engine only once, so measuring set-up
    several times takes several interpreters."""
    scaled, raw = [], []
    for _ in range(SETUP_REPS):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        setup_s, unit_s = map(float, child.stdout.split()[-2:])
        raw.append(setup_s)
        scaled.append(setup_s * reference.UNIT_S / unit_s)
    return statistics.median(scaled), statistics.median(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pairs", "deep", "taxonomy", "fuzz"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the answers of this seed")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    wl = set_up(args)
    if wl is None:
        return 2
    if args.setup_only:
        setup_s = time.perf_counter() - _T_START
        print(setup_s, statistics.median(
            reference.sample() for _ in range(5)))
        return 0
    import tracing

    print("workload %s, seed %d: %d operations per pass; inputs digest %s"
          % (args.workload, args.seed, len(wl.ops), digest(wl.inputs)))
    if not args.trace:
        setup_s, raw_setup_s = measure_set_up(args)
        print("set-up %.4f s scaled, %.4f s unscaled (median of %d fresh "
              "processes)" % (setup_s, raw_setup_s, SETUP_REPS))

    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = Phase(wl, seconds, tail_shape(len(wl.ops))[1])
    check_answers(wl, untraced, None if args.record
                  else recorded_answers(args.workload, args.seed, wl))
    attempted, failed = untraced.attempted, untraced.failed
    problems = ["%s: %s" % (wl.ops[i].label, why)
                for i, why in sorted(untraced.bad.items())]
    print("%d operations in %d passes in %.3f s; failed_ratio %.6g (%d/%d)"
          % (untraced.attempted, untraced.passes, untraced.elapsed,
             failed / attempted, failed, attempted))
    print("unscaled: items_per_s %.6g, latency_p50_us %.6g; median "
          "machine-speed scale %.4f" % (
              untraced.raw_items_per_s,
              statistics.median(untraced.raw) * 1e6,
              statistics.median(untraced.scales)))

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(wl.traced)
        try:
            traced = Phase(wl, seconds, 2, tracer)
        finally:
            tracer.uninstall()
        attempted += traced.attempted
        failed += traced.failed
        problems += ["traced %s: %s" % (wl.ops[i].label, why)
                     for i, why in sorted(traced.bad.items())]
        problems += trace_problems(wl, tracer, traced, untraced)
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, "trace-%s-%d.json"
                            % (args.workload, args.seed))
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "ops": [op.label for op in wl.ops]}, len(wl.ops))
        print("traced: %d operations in %d passes, %d spans written to %s"
              % (traced.attempted, traced.passes, len(tracer.name),
                 os.path.relpath(path)))
        metrics = per_layer(wl, tracer, traced, untraced, args.workload)
    else:
        metrics = end_to_end(untraced, setup_s)

    if args.record:
        if problems:
            print("error: not recording the answers of a failing run",
                  file=sys.stderr)
        else:
            record_answers(args.workload, args.seed, wl, untraced)
    for p in problems[:20]:
        print("FAILED %s" % p, file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": emit(metrics)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

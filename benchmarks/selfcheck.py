"""Checks of the benchmark's own arithmetic; needs neither the engine nor
a timed run.

    python3 benchmarks/selfcheck.py
"""

import run

# Exponent fits: exact on a power law, and 0 on a constant series or on
# one with a zero count in it, where a log-log slope does not exist.
assert abs(run._fit_exponent([8, 16, 32], [64, 256, 1024]) - 2) < 1e-12
assert run._fit_exponent([8, 16, 32], [7, 7, 7]) == 0.0
assert run._fit_exponent([8, 16, 32], [0, 5, 9]) == 0.0
assert run._fit_exponent([8, 16, 32], [0, 0, 0]) == 0.0

# The tail percentile and its block size depend only on the operations
# per pass, and always leave at least ten samples beyond the percentile.
assert run.tail_shape(2000) == (99, 1)
assert run.tail_shape(1000) == (99, 1)
assert run.tail_shape(999) == (90, 1)
assert run.tail_shape(80) == (90, 2)
assert run.tail_shape(24) == (90, 5)
assert run.tail_shape(20) == (90, 5)
for n in (20, 24, 80, 100, 999, 1000, 2000):
    p, passes = run.tail_shape(n)
    assert run._beyond(p, n * passes) >= 10, n
assert run._beyond(90, 100) == 10 and run._beyond(99, 2000) == 20

# Recorded answer forms.
assert run.answer_forms(["yes", "no", "yes"]) == "yny"
assert run.answer_forms([{"positives": 3, "negatives": 2}]) == ["3+2"]
assert run.answer_forms([[{"node": 0}]]) == [run.digest([{"node": 0}])]

print("ok")

"""The random corpus against the generator written with ``random.Random``'s
own ``choice``, ``randint`` and ``sample``: ``randgen`` draws its integers
from ``getrandbits`` with the rejection loop those methods use, so each
seed must give the same pairs and leave the generator in the same
state."""

import random

import pytest

from classicdl.randgen import random_pair
from oracles import reference_random_pair


@pytest.mark.parametrize("seed", range(10))
def test_random_pairs_match_the_random_methods(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(500):
        assert random_pair(rng) == reference_random_pair(ref)
    assert rng.getstate() == ref.getstate()

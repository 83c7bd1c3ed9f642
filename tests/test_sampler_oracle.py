"""The world sampler against a reference written with ``random.Random``'s
own ``choice``, ``randint`` and ``shuffle``.

``sample_interpretation`` draws its integers from ``getrandbits`` with the
rejection loop those methods use, so it must produce exactly the worlds of
``reference_sample`` below, the sampler as it read when it still called
them.  The draw helper is also checked against the three methods directly.
"""

import json
import random

import pytest

from classicdl.descriptions import HOST_TEST_ATOM_PREFIX
from classicdl.parsing import parse_description
from classicdl.randgen import random_pair
from classicdl.worlds import (
    ClassicElement,
    Interpretation,
    _below,
    _chain_value,
    _host_carrier,
    _interned_classic,
    host_element_for,
    sample_interpretation,
    signature_of_description,
    to_jsonable,
)
from test_world_bytes import SAMPLED, corpus_signatures


def reference_sample(sig, seed, max_domain=5):
    """A seeded random world, drawn with ``Random.choice``, ``randint`` and
    ``shuffle``."""
    rng = random.Random(seed)
    rand, choice, randint = rng.random, rng.choice, rng.randint
    need = max(2, len(sig.individuals))
    n = randint(need, max(need, max_domain))
    hosts, host_set = _host_carrier(
        sig.max_number + len(sig.host_values) + 4)
    if sig.host_values:
        host_set = host_set | {host_element_for(i) for i in sig.host_values}
        hosts = tuple(sorted(host_set, key=str))
    world = Interpretation(hosts=set(host_set))
    pool = _interned_classic(n)
    rng.shuffle(pool)
    for name in sorted(sig.individuals):
        size = randint(1, 3)
        if len(pool) < size:
            pool.extend(_interned_classic(n + size)[n:])
            n += size
        world.indiv_ext[name] = {pool.pop() for _ in range(size)}
    classic = _interned_classic(n)
    world.classic = set(classic)
    everything = (*classic, *hosts)
    for atom in sorted(sig.atoms):
        carrier = hosts if atom.startswith(HOST_TEST_ATOM_PREFIX) else classic
        world.concept_ext[atom] = {e for e in carrier if rand() < 0.5}
    top = min(sig.max_number + 1, 4)
    for role in sorted(sig.roles):
        table = world.role_ext[role] = {}
        for e in classic:
            k = randint(0, top)
            fillers = table[e] = set()
            while len(fillers) < k:
                fillers.add(choice(classic if rand() < 0.5 else everything))
    for attr in sorted(sig.attrs):
        table = world.attr_ext[attr] = {}
        for e in classic:
            if rand() < 0.8:
                table[e] = choice(classic if rand() < 0.5 else everything)
    for left, right in sorted(sig.equations):
        for e in classic:
            if rand() < 0.5:
                for chain in (left, right):
                    cur = e
                    for attr in chain[:-1]:
                        nxt = world.attr_value(attr, cur)
                        if not isinstance(nxt, ClassicElement):
                            nxt = world.attr_ext[attr][cur] = choice(classic)
                        cur = nxt
                target = _chain_value(world, left, e)
                world.attr_ext[right[-1]][
                    _chain_value(world, right[:-1], e)] = target
    return world


def _dump(world) -> bytes:
    return json.dumps(to_jsonable(world)).encode()


def _pair_signature(seed):
    d, c = random_pair(random.Random(seed))
    return signature_of_description(d).merge(signature_of_description(c))


@pytest.mark.parametrize("max_domain", [3, 5, 8])
def test_sampler_matches_reference_on_the_random_corpus(max_domain):
    for seed in range(300):
        sig = _pair_signature(seed)
        for w in range(10):
            world_seed = seed * 10 + w
            assert _dump(sample_interpretation(sig, world_seed, max_domain)) \
                == _dump(reference_sample(sig, world_seed, max_domain)), \
                (seed, w)


def test_sampler_matches_reference_with_host_values_and_test_atoms():
    # a host value, several classic individuals and an equation; and the
    # host-test atoms of the corpus signatures, drawn over the host carrier
    sigs = [signature_of_description(parse_description(SAMPLED))]
    sigs += corpus_signatures()
    for k, sig in enumerate(sigs):
        for world_seed in range(20):
            for max_domain in (3, 5, 8):
                assert _dump(sample_interpretation(sig, world_seed,
                                                   max_domain)) == \
                    _dump(reference_sample(sig, world_seed, max_domain)), \
                    (k, world_seed, max_domain)


def test_below_draws_as_choice_randint_and_shuffle():
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        for n in range(1, 41):
            k = n.bit_length()
            seq = list(range(100, 100 + n))
            assert seq[_below(bits, n, k)] == theirs.choice(seq)
            assert 7 + _below(bits, n, k) == theirs.randint(7, 6 + n)
            mine = list(seq)
            for i in range(n - 1, 0, -1):
                j = _below(bits, i + 1, (i + 1).bit_length())
                mine[i], mine[j] = mine[j], mine[i]
            theirs.shuffle(seq)
            assert mine == seq
        # both generators are still in step
        assert ours.random() == theirs.random()

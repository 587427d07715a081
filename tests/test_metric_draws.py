"""The sampled metric check draws its residue-triple indices exactly as
`random.Random(seed).choices(range(m**3), k=...)` would.

The check draws a chunk of indices at a time by the rule `choices` applies
to an unweighted population, floor(random() * m^3), without calling it, so
this pins the stream across seeds, moduli and sample counts on each side of
the chunk size.  The test needs neither pytest nor hypothesis; run it as a
script, with `src` on the path, to check the stream under another
interpreter:

    PYTHONPATH=src python tests/test_metric_draws.py
"""

import random
from operator import ne

from pomsetblock import oracle
from pomsetblock.oracle import MetricReport, verify_metric
from pomsetblock.pomset import Pomset
from pomsetblock.space import Space

SEEDS = (0, 1, 17, 2 ** 40 + 3)
# (m, labeling): the population m^3 runs from 8 to 2 197.
SPACES = ((2, (1,)), (3, (2, 1)), (5, (1, 1, 1)), (6, (2,)), (7, (1, 2)), (12, (1,)), (13, (1,)))
SAMPLE_COUNTS = (1, oracle._METRIC_CHUNK, oracle._METRIC_CHUNK + 1, 2500)


def drawn_indices(space, seed, samples):
    """The indices u_t m^2 + v_t m + w_t the sampled check draws, in order,
    read back from the triples an injected Hamming distance is asked for."""
    m = space.m
    calls = []

    def hamming(a, b):
        calls.append((a, b))
        return sum(map(ne, a, b))

    report = verify_metric(space, 0, seed=seed, samples=samples, distance_fn=hamming)
    assert report == MetricReport(True, False, samples)
    # Five calls a triple: d(u, v), d(u, u), d(v, u), d(u, w), d(w, v).
    assert len(calls) == 5 * samples
    return [
        x * m * m + y * m + z
        for (u, v), (_, w) in zip(calls[::5], calls[3::5])
        for x, y, z in zip(u, v, w)
    ]


def test_sampled_draws_are_those_of_random_choices():
    for m, labeling in SPACES:
        space = Space(m, Pomset.from_relations(len(labeling), m // 2, []), labeling)
        for seed in SEEDS:
            for samples in SAMPLE_COUNTS:
                expected = random.Random(seed).choices(range(m ** 3), k=space.n * samples)
                assert drawn_indices(space, seed, samples) == expected, (m, seed, samples)


if __name__ == "__main__":
    test_sampled_draws_are_those_of_random_choices()
    print("ok: sampled draws match random.Random(seed).choices")

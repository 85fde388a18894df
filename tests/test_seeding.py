"""The vectorised client-stream seeds against numpy's own SeedSequence."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustfed import seeding
from robustfed.seeding import seed_words, stream_generators

UINT64 = st.integers(0, 2**64 - 1)
# stream ids below 2**32 are one entropy word in numpy, larger ones two
EDGE_STREAMS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
ROUNDS = st.one_of(st.integers(0, 1000), UINT64)


@settings(max_examples=200, deadline=None)
@given(st.lists(UINT64, min_size=1, max_size=6), st.lists(ROUNDS, min_size=1, max_size=4))
@example(EDGE_STREAMS, [0, 1, 299, 2**32 - 1, 2**32, 2**64 - 1])
def test_seed_words_equal_seed_sequence_state(streams, rounds):
    words = seed_words(streams, rounds)
    assert words.shape == (len(rounds), len(streams), 4) and words.dtype == np.uint64
    for i, t in enumerate(rounds):
        for k, s in enumerate(streams):
            expected = np.random.SeedSequence([s, t]).generate_state(4, np.uint64)
            assert np.array_equal(words[i, k], expected), (s, t)


@pytest.mark.parametrize("block", [1, 3, seeding.STREAM_BLOCK])
def test_stream_generators_draw_seed_sequence_permutations(monkeypatch, block):
    """Every round's generators, across block boundaries, draw what
    default_rng(SeedSequence([s, t])) draws."""
    monkeypatch.setattr(seeding, "STREAM_BLOCK", block)
    streams = EDGE_STREAMS + [0x9E3779B97F4A7C15]
    rounds = range(5, 12)
    generated = list(stream_generators(np.array(streams, dtype=np.uint64), rounds))
    assert len(generated) == len(rounds)
    for t, rngs in zip(rounds, generated):
        for s, rng in zip(streams, rngs):
            reference = np.random.default_rng(np.random.SeedSequence([s, t]))
            for n in (1, 37, 300):
                assert np.array_equal(rng.permutation(n), reference.permutation(n))

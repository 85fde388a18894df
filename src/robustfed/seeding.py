"""Deterministic RNG derivation for data generation and per-client streams.

A client's batches in round t come from ``default_rng(SeedSequence([stream,
t]))``. ``stream_generators`` builds those generators for every client of a
run without a ``SeedSequence``: it computes the four PCG64 seed words
``SeedSequence([stream, t]).generate_state(4, np.uint64)`` for all (stream,
round) pairs in one vectorised pass. numpy's seed hash (its port of M. E.
O'Neill's, from the PCG paper) takes the same constants and the same
sequence of operations for every entropy of at most four 32-bit words, so a
whole block of rounds is one run of uint32 array expressions.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np

# numpy.random.bit_generator's seed-hash constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# (stream, round) pairs whose seed words are computed in one pass; the pass
# holds about 100 bytes per pair, so a run's memory stays bounded in rounds
STREAM_BLOCK = 1 << 14


def _as_entropy(key) -> int:
    """Map an int or string key to a nonnegative 64-bit entropy word."""
    if isinstance(key, (bool, float)):
        raise TypeError(f"seed keys must be int or str, got {type(key).__name__}")
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFFFFFFFFFF
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"seed keys must be int or str, got {type(key).__name__}")


def derived_rng(*keys) -> np.random.Generator:
    """Generator uniquely determined by the key tuple, independent across tuples."""
    return np.random.default_rng(np.random.SeedSequence([_as_entropy(k) for k in keys]))


def stream_id(*keys) -> int:
    """Stable 64-bit stream identifier; counter-based streams derive from it."""
    seq = np.random.SeedSequence([_as_entropy(k) for k in keys])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


class _HashConstants:
    """numpy's running hash multiplier: the same sequence for every entropy."""

    def __init__(self, init: int, mult: int):
        self.value, self.mult = init, mult

    def hashmix(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.value)
        self.value = (self.value * self.mult) & _MASK32
        value *= np.uint32(self.value)
        value ^= value >> np.uint32(16)
        return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    result ^= result >> np.uint32(16)
    return result


def seed_words(streams, rounds) -> np.ndarray:
    """(len(rounds), len(streams), 4) uint64: entry [i, k] equals
    ``SeedSequence([streams[k], rounds[i]]).generate_state(4, np.uint64)``.

    Both keys are uint64. numpy writes a key below 2**32 as one 32-bit
    entropy word and a larger one as two (low word first), so the round's
    words start at position 1 or 2; the unused tail is 0, which is how numpy
    runs out a pool larger than its entropy.
    """
    s = np.asarray(streams, dtype=np.uint64)[None, :]
    t = np.asarray(rounds, dtype=np.uint64)[:, None]
    low = np.uint64(_MASK32)
    s_lo, s_hi = (s & low).astype(np.uint32), (s >> np.uint64(32)).astype(np.uint32)
    t_lo, t_hi = (t & low).astype(np.uint32), (t >> np.uint64(32)).astype(np.uint32)
    wide = s_hi != 0
    entropy = np.broadcast_arrays(
        s_lo, np.where(wide, s_hi, t_lo), np.where(wide, t_lo, t_hi), np.where(wide, t_hi, 0)
    )

    consts = _HashConstants(_INIT_A, _MULT_A)
    pool = [consts.hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], consts.hashmix(pool[src]))

    consts = _HashConstants(_INIT_B, _MULT_B)
    state = np.empty(pool[0].shape + (2 * _POOL_SIZE,), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        state[..., i] = consts.hashmix(pool[i % _POOL_SIZE])
    # numpy pairs the 32-bit words little-endian, whatever the host's byte order
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords:
    """Precomputed PCG64 seed words, given to PCG64 in place of a SeedSequence
    (``stream_generators`` registers it as an ``ISeedSequence``)."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds {_POOL_SIZE} uint64 PCG64 seed words only")
        return self.words


def stream_generators(streams, rounds: range) -> Iterator[list[np.random.Generator]]:
    """For each t in ``rounds``, one generator per stream s, equal to
    ``default_rng(SeedSequence([s, t]))``. Seed words are computed a block of
    at most STREAM_BLOCK (stream, round) pairs at a time."""
    # registered on use: importing numpy.random at module import would add
    # about 10 ms to every process that imports the package
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    block = max(1, STREAM_BLOCK // max(len(streams), 1))
    for start in range(rounds.start, rounds.stop, block):
        words = seed_words(streams, range(start, min(start + block, rounds.stop)))
        for row in words:
            yield [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in row]

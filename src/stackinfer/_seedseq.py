"""Batched replay of numpy's SeedSequence for contiguous runs of path indices.

``row_seed_states`` reproduces, for many stream keys at once, the PCG64 seed
words that ``SeedSequence(master_seed, spawn_key=(namespace, i))`` would
generate, and ``FixedSeed`` hands one row of them to ``PCG64``. The constants
and steps are those of numpy's SeedSequence hash (O'Neill's seed_seq mixing,
numpy/random/bit_generator.pyx). This module imports numpy.random, so
``stackinfer.core`` imports it only when a batch is drawn.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import InvalidArgumentError

_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _n_words(value: int) -> int:
    """Number of uint32 words SeedSequence takes for a non-negative int."""
    return max(1, -(-int(value).bit_length() // 32))


def _hashmix(value: np.ndarray, hash_const: int):
    hash_next = (hash_const * _MULT_A) & _MASK32
    value = (value ^ hash_const) * hash_next
    return value ^ (value >> 16), hash_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def row_seed_states(master_seed: int, namespace: int, offset: int, n_rows: int) -> np.ndarray:
    """PCG64 seed words of SeedSequence(master_seed, spawn_key=(namespace, offset+i)).

    Row i equals ``SeedSequence(...).generate_state(4, np.uint64)``. The
    entropy words are [master words, zero-padded to 4] + [namespace words] +
    [path index words]; only the last ones differ between rows. So the pool
    after the shared prefix is taken from one SeedSequence built without the
    path index, and the rounds that mix in the path index, plus the output
    hash, run as uint32 array operations over all rows.
    """
    if offset + n_rows > 1 << 64:
        raise InvalidArgumentError("path indices must stay below 2**64")
    prefix = np.random.SeedSequence(master_seed, spawn_key=(namespace,))
    # Each entropy word takes POOL_SIZE hashmix calls and each call advances
    # the hash constant by one multiplication, whatever the data.
    n_calls = _POOL_SIZE * (max(_POOL_SIZE, _n_words(master_seed)) + _n_words(namespace))
    hash_const = (_INIT_A * pow(_MULT_A, n_calls, 1 << 32)) & _MASK32
    index = np.arange(n_rows, dtype=np.uint64) + np.uint64(offset)
    pool = [np.full(n_rows, word, dtype=np.uint32) for word in prefix.pool]
    # Indices of 2**32 and above add a second word; those rows are a suffix.
    wide = int(np.searchsorted(index, np.uint64(1 << 32)))
    index_words = (
        (slice(None), index & np.uint64(_MASK32)),
        (slice(wide, None), index[wide:] >> np.uint64(32)),
    )
    for rows, word in index_words:
        word = word.astype(np.uint32)
        for k in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[k][rows] = _mix(pool[k][rows], hashed)
    words = np.empty((n_rows, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        words[:, k] = value ^ (value >> 16)
    return words.astype("<u4").view("<u8").astype(np.uint64)


class FixedSeed(ISeedSequence):
    """Seed source handing PCG64 a precomputed ``generate_state(4, uint64)``."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state

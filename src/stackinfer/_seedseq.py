"""Batched replay of numpy's PCG64 seeding for contiguous runs of path indices.

``row_seed_states`` reproduces, for many stream keys at once, the seed words
that ``SeedSequence(master_seed, spawn_key=(namespace, i))`` would generate,
with the constants and steps of numpy's SeedSequence hash (O'Neill's seed_seq
mixing, numpy/random/bit_generator.pyx). ``pcg64_states`` turns those words
into the 128-bit ``state`` and ``inc`` that ``PCG64`` seeds itself with, and
``state_words`` is a writable view of one ``PCG64``'s state, so a single
generator can draw every row in turn. This module imports numpy.random, so
``stackinfer.core`` imports it only when a batch is drawn.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from .core import InvalidArgumentError

_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK64 = (1 << 64) - 1
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128), as uint64 halves.
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
# Where each logical word (state low, state high, inc low, inc high) sits in
# the four uint64 of numpy's pcg64_random_t: a native 128-bit integer stores
# its low word first, numpy's emulated {high, low} struct its high word first.
_LAYOUTS = {"low word first": (0, 1, 2, 3), "high word first": (1, 0, 3, 2)}


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


def _mul_hi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a_lo, a_hi = a & np.uint64(_MASK32), a >> np.uint64(32)
    b_lo, b_hi = b & np.uint64(_MASK32), b >> np.uint64(32)
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    # At most 2**64 - 2, so this sum never wraps.
    cross = (lo_lo >> np.uint64(32)) + (hi_lo & np.uint64(_MASK32)) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> np.uint64(32)) + (cross >> np.uint64(32))


def _add(a_hi, a_lo, b_hi, b_lo):
    """128-bit sums mod 2**128 of uint64 halves."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def pcg64_states(seed_words: np.ndarray) -> np.ndarray:
    """PCG64 (state, inc) that ``PCG64`` derives from each row of seed words.

    Row i of the (n, 4) uint64 ``seed_words`` is what a SeedSequence's
    ``generate_state(4, np.uint64)`` returns. numpy's ``pcg64_set_seed`` reads
    ``initstate = w0:w1`` and ``initseq = w2:w3`` (high word first) and runs
    PCG's srandom: ``inc = (initseq << 1) | 1`` and
    ``state = ((inc + initstate) * M + inc) mod 2**128``. Returns (n, 4) uint64
    columns state low, state high, inc low, inc high.
    """
    w0, w1, w2, w3 = seed_words.T
    one = np.uint64(1)
    inc_hi = (w2 << one) | (w3 >> np.uint64(63))
    inc_lo = (w3 << one) | one
    a_hi, a_lo = _add(inc_hi, inc_lo, w0, w1)
    prod_hi = _mul_hi(a_lo, _PCG_MULT_LO) + a_hi * _PCG_MULT_LO + a_lo * _PCG_MULT_HI
    state_hi, state_lo = _add(prod_hi, a_lo * _PCG_MULT_LO, inc_hi, inc_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def state_word_order(raw: np.ndarray, state: int, inc: int) -> tuple[int, ...]:
    """Permutation from logical (state lo, state hi, inc lo, inc hi) to memory.

    ``raw`` holds the four uint64 of a PCG64's state as they sit in memory;
    ``state`` and ``inc`` are what its public ``state`` getter reports. Raw
    word j is logical word ``order[j]``. Layouts other than numpy's two are
    refused.
    """
    logical = (state & _MASK64, state >> 64, inc & _MASK64, inc >> 64)
    for order in _LAYOUTS.values():
        if all(int(raw[j]) == logical[k] for j, k in enumerate(order)):
            return order
    words = ", ".join(f"{int(w):#018x}" for w in raw)
    raise RuntimeError(
        f"unsupported PCG64 state layout: memory words [{words}] for state "
        f"{state:#034x} and inc {inc:#034x} match neither {' nor '.join(_LAYOUTS)}"
    )


def state_words(bit_generator: np.random.PCG64) -> np.ndarray:
    """Writable uint64 view of the four state words of ``bit_generator``.

    Found through ``ctypes.state_address``, which points at numpy's
    ``pcg64_state``, whose first field is the ``pcg_state`` pointer. The view
    does not keep ``bit_generator`` alive; its caller must.
    """
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    return np.frombuffer((ctypes.c_uint64 * 4).from_address(address), dtype=np.uint64)


@functools.cache
def word_order() -> tuple[int, ...]:
    """This numpy build's state word order, probed once on a seeded PCG64."""
    probe = np.random.PCG64(0)
    reported = probe.state["state"]
    return state_word_order(state_words(probe).copy(), reported["state"], reported["inc"])

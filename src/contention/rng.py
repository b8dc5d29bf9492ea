"""Deterministic, splittable random streams on a counter-based generator.

Every stream is identified purely by (seed, path). Substreams are derived
from the path, never from draw state, so the order in which substreams are
created or consumed cannot change what any of them produce. This is what
makes per-window data generation order-independent and every experiment
replayable from a single integer seed.

`RngStream.generator()` is the reference derivation: numpy's SeedSequence
hashes the entropy words of (seed, *path) into a Philox key, and a Philox
stream is defined by its key alone. `RngStream.substream_generators(n)`
yields the generators of substreams 0..n-1 without building a SeedSequence
and a Philox per substream: it runs the same hash over arrays of
KEY_BLOCK substream indices at a time, and re-keys one Philox per
substream. Its keys must equal SeedSequence's, so it draws exactly what
`substream(i).generator()` draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Iterator

import numpy as np

from contention.errors import ConfigError

ALGORITHM = "philox-4x64"
# Substream keys derived per pass; bounds the hash's memory at any stream count.
# A power of two below 2**32, so no block straddles a change in an index's word count.
KEY_BLOCK = 4096

# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer; 0 is one word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(init: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays, with its own running constant."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _philox_keys(prefix: list[int], indices: np.ndarray) -> np.ndarray:
    """(n, 2) uint64 Philox keys of the entropy words `prefix + words(i)` per index.

    SeedSequence(entropy).generate_state(2, np.uint64), computed for every
    index at once: the hash constants do not depend on the data, so each
    step of the scalar hash becomes one uint32 array operation. Every index
    must have as many 32-bit words as the last one.
    """
    width = len(_words(int(indices[-1])))
    entropy = [np.full(len(indices), w, dtype=np.uint32) for w in prefix]
    entropy += [((indices >> (32 * k)) & _MASK32).astype(np.uint32) for k in range(width)]
    entropy += [np.zeros(len(indices), dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hashmix(_INIT_B, _MULT_B)
    state = np.stack([output(word) for word in pool], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _check_index(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value}")


@dataclass(frozen=True)
class RngStream:
    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        _check_index("seed", self.seed)
        for entry in self.path:
            _check_index("stream path entry", entry)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream.

        Calling twice on the same stream yields identical draw sequences;
        callers that need distinct randomness must use distinct substreams.
        """
        root = np.random.SeedSequence((int(self.seed),) + self.path)
        return np.random.Generator(np.random.Philox(root))

    def substream(self, index: int) -> "RngStream":
        """Independent child stream identified by a fixed index."""
        return RngStream(self.seed, self.path + (int(index),))

    def substream_generators(self, n: int) -> Iterator[np.random.Generator]:
        """The generators of substreams 0..n-1, in order.

        Each one draws exactly what `substream(i).generator()` draws. They
        are one Generator re-keyed in place, so each is spent once the next
        one is taken.
        """
        prefix = [w for value in (self.seed, *self.path) for w in _words(int(value))]
        bit_gen = np.random.Philox(0)
        gen = np.random.Generator(bit_gen)
        # a fresh Philox: counter zero, 64-bit buffer empty, no 32-bit half-word left
        philox = {"counter": np.zeros(4, dtype=np.uint64), "key": None}
        state = {"bit_generator": "Philox", "state": philox,
                 "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for start in range(0, n, KEY_BLOCK):
            indices = np.arange(start, min(start + KEY_BLOCK, n), dtype=np.uint64)
            for key in _philox_keys(prefix, indices):
                philox["key"] = key
                bit_gen.state = state
                yield gen

"""Deterministic, splittable random streams on a counter-based generator.

Every stream is identified purely by (seed, path). Substreams are derived
from the path, never from draw state, so the order in which substreams are
created or consumed cannot change what any of them produce. This is what
makes experiments replayable from a single integer seed.

`RngStream.generator()` is the one key derivation: numpy's SeedSequence
hashes (seed, *path) into a Philox key. Philox is counter-based, so one key
also yields many independent streams through disjoint counter blocks
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).
`RngStream.block_generators(n)` gives blocks 0..n-1 of this stream's key:
block i draws exactly what the generator of numpy's `Philox.jumped(i)` of
this stream draws. That is how a dataset gives each window its own stream.

Stream map: one run seed s, one path per use, so no two uses share draws.
  (s, 0)         synthetic dataset; window i takes counter block i
  (s, 1)         train/val/test split
  (s, 2)         training-set subsample of the data-size sweep
  (s, 3, 0, j)   initial weight matrix j
  (s, 3, 1 + e)  batch order of epoch e
  (s, 7)         held-out windows of the benchmark harness
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Iterator

import numpy as np

from contention.errors import ConfigError


def _check_index(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """One named stream of random draws: a seed and a path of substream indices."""

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
        _check_index("stream path entry", index)
        return RngStream(self.seed, self.path + (int(index),))

    def block_generators(self, n: int) -> Iterator[np.random.Generator]:
        """Generators for counter blocks 0..n-1 of this stream, in order.

        Block i starts the Philox counter at i * 2**128 under this stream's
        key, so it draws exactly what the generator of
        `self.generator().bit_generator.jumped(i)` draws, and no block can
        run into the next. They are one Generator repositioned in place, so
        each is spent once the next one is taken.
        """
        gen = self.generator()
        # a fresh state: counter zero, 64-bit buffer empty, no 32-bit half-word left
        state = gen.bit_generator.state
        for i in range(n):
            state["state"]["counter"][2] = i
            gen.bit_generator.state = state
            yield gen

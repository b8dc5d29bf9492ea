"""Deterministic, splittable random streams on a counter-based generator.

Every stream is identified purely by (seed, path). Substreams are derived
from the path, never from draw state, so the order in which substreams are
created or consumed cannot change what any of them produce. This is what
makes per-window data generation order-independent and every experiment
replayable from a single integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from contention.errors import ConfigError

ALGORITHM = "philox-4x64"


@dataclass(frozen=True)
class RngStream:
    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")

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

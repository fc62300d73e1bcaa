"""Deterministic random-number streams.

A stream is identified by a (seed, stream_id) pair.  Identical pairs produce
bit-identical output on every platform (numpy's SeedSequence/PCG64 guarantee),
and distinct stream_ids give statistically independent streams, which is what
makes Monte Carlo runs reproducible regardless of how work is scheduled:
partition the work by stream_id, compute each piece with its own stream, and
reduce the pieces in stream_id order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """Addressable, reproducible random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if not (0 <= int(self.stream_id) < 2**64):
            raise ValueError("stream_id must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id),))
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, index: int) -> "RngStream":
        """Stream for the index-th parallel worker under this stream.

        Children partition the 64-bit stream_id space: child(i) of stream s
        maps to stream_id = s.stream_id * 2**20 + 1 + i, so nested use stays
        collision-free for < 2**20 children per node.
        """
        if not (0 <= index < 2**20 - 1):
            raise ValueError("child index out of range")
        return RngStream(self.seed, int(self.stream_id) * 2**20 + 1 + int(index))

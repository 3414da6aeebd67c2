"""Keyed random streams.

A stream is the SFC64 generator seeded by the SeedSequence of the pair
(seed, stream-id): SeedSequence hashes the pair into SFC64's 256-bit state,
so streams of different pairs are statistically independent and each one is
reproducible from its pair alone, whatever was drawn before. Chunked Monte
Carlo loops key each chunk separately, which makes results bit-identical
whether chunks run serially or concurrently.
"""

from __future__ import annotations

import numpy as np

from .info import _require

__all__ = ["stream"]

_MASK64 = (1 << 64) - 1

# Disjoint stream-id namespaces for the library's internal consumers;
# 5 << 40 and 6 << 40 belong to the random instances of tests/oracles.py.
# 2 << 40 keyed the sampled centers that mc_volume_ratio no longer draws,
# and 4 << 40 the grid partition's probe centers, which its closed-form
# touched count replaced: both are retired, not reused, so that no other
# stream moves.
# DESIGN_STREAM keys the CLI's Gaussian design, which keeps its Philox rule.
VOLUME_STREAM = 1 << 40
BALL_STREAM = 3 << 40
DESIGN_STREAM = 7 << 40
VERIFY_STREAM = 8 << 40
REPLICATE_STREAM = 9 << 40


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Generator for the SFC64 stream keyed by ``(seed, stream_id)``.

    The seed is one 64-bit word of the key: one outside [0, 2**64) is refused
    rather than wrapped onto another seed's stream. stream_id is taken mod 2**64.
    """
    _require("an integer in [0, 2**64)", seed=seed)
    _require("an integer", stream_id=stream_id)
    key = np.random.SeedSequence([int(seed), stream_id & _MASK64])
    return np.random.Generator(np.random.SFC64(key))

"""Counter-based random streams.

Philox is a counter-based generator: a stream is fully determined by its
128-bit key, so substreams derived from a (seed, stream-id) pair are
reproducible and independent of the order in which they are consumed.
Chunked Monte Carlo loops key each chunk separately, which makes results
bit-identical whether chunks run serially or concurrently.
"""

from __future__ import annotations

import numpy as np

from .info import _require

__all__ = ["stream"]

_MASK64 = (1 << 64) - 1

# Disjoint stream-id namespaces for the library's internal consumers.
VOLUME_STREAM = 1 << 40
CENTER_STREAM = 2 << 40
BALL_STREAM = 3 << 40
GRID_STREAM = 4 << 40
CHAIN_STREAM = 5 << 40
SPACE_STREAM = 6 << 40
DESIGN_STREAM = 7 << 40
VERIFY_STREAM = 8 << 40
REPLICATE_STREAM = 9 << 40


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Generator for the Philox stream keyed by ``(seed, stream_id)``.

    The seed is one word of the Philox key: one outside [0, 2**64) is refused
    rather than wrapped onto another seed's stream. stream_id is taken mod 2**64.
    """
    _require("an integer in [0, 2**64)", seed=seed)
    _require("an integer", stream_id=stream_id)
    key = np.array([int(seed), stream_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

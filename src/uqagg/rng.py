"""Deterministic random streams.

All randomness in the package flows through Philox 4x64, a counter-based
generator, keyed by (seed, lane, index). Streams are therefore splittable and
independent of execution order: stream i never depends on whether stream j was
drawn first.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import InvalidParam

_LANE_BITS = 16
_INDEX_BITS = 48


def stream(seed: int, lane: int = 0, index: int = 0) -> np.random.Generator:
    """Generator for the (lane, index) sub-stream of ``seed``.

    ``lane`` separates roles (restarts, samples, risks, ...) and ``index``
    separates items within a role; both are packed into the Philox key next
    to the 64-bit seed. Every seed of the package reaches this function, and
    one outside [0, 2**64) raises InvalidParam: no two seeds share a key.
    """
    seed = operator.index(seed)   # a float seed would round onto an integer one
    if not 0 <= seed < 1 << 64:
        raise InvalidParam(f"seed must lie in [0, 2**64), got {seed!r}")
    if index < 0 or index >= 1 << _INDEX_BITS:
        raise ValueError(f"stream index out of range: {index}")
    if lane < 0 or lane >= 1 << _LANE_BITS:
        raise ValueError(f"stream lane out of range: {lane}")
    key = (seed << 64) | (lane << _INDEX_BITS) | index
    return np.random.Generator(np.random.Philox(key=key))

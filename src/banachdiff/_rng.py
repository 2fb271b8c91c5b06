"""Reproducible random streams.

Counter-based Philox generators keyed by (seed, *key) produce identical
streams on every platform, and parallel workers can draw from disjoint
substreams by extending the key — results then never depend on worker
count or scheduling order.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionFailedError, _integral

__all__ = ["philox_gen"]


def philox_gen(seed: int, *key: int) -> np.random.Generator:
    """The stream keyed by ``(seed, *key)``.  Seeds are non-negative integers
    (see ``errors._integral``); any other seed is :class:`PreconditionFailedError`."""
    if not _integral(seed):
        raise PreconditionFailedError(f"seed {seed!r} is not an integer; seeds are non-negative integers", seed=seed)
    seed = int(seed)
    if seed < 0:
        raise PreconditionFailedError(f"seed {seed} is negative; seeds are non-negative integers", seed=seed)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))

"""Random-number seeding helper."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["np_random"]


def np_random(seed: Optional[int] = None) -> Tuple[np.random.Generator, int]:
    """Create a seeded :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        Non-negative integer seed.  If ``None`` a seed is drawn from entropy.

    Returns
    -------
    (generator, seed):
        The generator and the seed that was actually used.
    """
    if seed is not None and (not isinstance(seed, (int, np.integer)) or seed < 0):
        raise ValueError(f"Seed must be a non-negative integer or None, got {seed!r}")
    seed_seq = np.random.SeedSequence(seed)
    used_seed = seed_seq.entropy
    generator = np.random.Generator(np.random.PCG64(seed_seq))
    return generator, int(used_seed) if used_seed is not None else 0

"""Weight initialisation.

PPO implementations conventionally use orthogonal initialisation with a gain
of ``sqrt(2)`` for hidden layers, ``0.01`` for the policy head and ``1.0`` for
the value head; :func:`orthogonal_` reproduces that behaviour.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["orthogonal_"]


def orthogonal_(
    shape: tuple,
    gain: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Return an orthogonally-initialised matrix of the given *shape*.

    For non-square shapes, the semi-orthogonal factor of a QR decomposition of
    a Gaussian random matrix is used (rows or columns are orthonormal,
    whichever set is smaller).
    """
    if len(shape) != 2:
        raise ValueError(f"orthogonal_ expects a 2-D shape, got {shape}")
    rng = rng if rng is not None else np.random.default_rng()
    rows, cols = shape
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    # Make the decomposition unique (positive diagonal of R).
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]

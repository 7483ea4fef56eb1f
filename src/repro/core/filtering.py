"""Support filter (paper Sec. 7.5.1, "w filter").

An explanation whose series never reaches ``ratio`` (default 0.001) of the
overall aggregated series at any timestamp has negligible support and is
dropped before the expensive stages. It runs on the pivoted eps x n matrix
that :mod:`repro.core.precompute` builds.
"""
from __future__ import annotations

import numpy as np

DEFAULT_RATIO = 0.001


def support_mask(
    S: np.ndarray, total: np.ndarray, ratio: float = DEFAULT_RATIO
) -> np.ndarray:
    """Boolean keep-mask over explanations (rows of S).

    Keep E iff at some timestamp ``|S_E[t]| >= ratio * |total[t]|``. Points
    where the overall series is 0 contribute only if the explanation itself is
    nonzero there (it then trivially dominates a zero total).
    """
    if S.shape[1] != total.shape[0]:
        raise ValueError("series length mismatch")
    a = np.abs(S)
    t = np.abs(total)[None, :]
    keep = (a >= ratio * t) & (a > 0)
    return keep.any(axis=1)

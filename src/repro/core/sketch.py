"""Sketching optimization O2 (paper Sec. 5.3.2).

Phase I (sketch selection): run the normal pipeline but restricted to segments
of length <= L with K = |S| — this costs O(L*n) segments instead of O(n^2) and
its cuts become the sketch (promising cutting positions). Phase II runs the
full pipeline with cutting positions restricted to the sketch (handled by the
caller passing ``positions`` to the DP). Defaults per the paper:
L = min(0.05 n, 20), |S| = 3n / L.
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.kseg import all_segments, build_cost_matrix, dp_segment
from repro.core.segcost import costs_for_segments
from repro.core.space import ExplanationSpace
from repro.core.toplists import TopLists, compute_toplists


def sketch_params(n: int) -> tuple[int, int]:
    """(L, |S|) per Sec. 5.3.2, clamped to feasible values."""
    L = max(2, min(int(0.05 * n), 20))
    size = min(n - 2, max(2, (3 * n) // L))
    return L, size


def select_sketch(
    S: np.ndarray,
    space: ExplanationSpace,
    obj_tl: TopLists,
    m: int,
    metric: str = "tse",
    use_gv: bool = True,
    m_bar0: int = 30,
    L: Optional[int] = None,
    size: Optional[int] = None,
) -> List[int]:
    """Sorted sketch positions, always including both endpoints 0 and n-1."""
    n = S.shape[1]
    L_def, size_def = sketch_params(n)
    L = L_def if L is None else L
    size = size_def if size is None else size
    if size >= n - 1 or L >= n:
        return list(range(n))  # sketch would not shrink anything

    positions = list(range(n))
    segs = all_segments(positions, max_len=L)
    cen_tl = compute_toplists(S, space, segs, m, use_gv, m_bar0)
    costs = costs_for_segments(S, obj_tl, cen_tl, [metric])[metric]
    C = build_cost_matrix(positions, segs, costs)
    res = dp_segment(C, positions, k_max=size)
    # The |S|-segmentation's cuts are the sketch; if the constrained DP could
    # not reach exactly |S| segments (short series), take the largest feasible.
    for k in range(size, 0, -1):
        if k in res.cuts:
            return sorted({0, n - 1, *res.cuts[k]})
    return list(range(n))  # pragma: no cover - defensive

"""K-Segmentation dynamic program (Problem 1, Eq. 11).

Works over an arbitrary sorted list of *allowed cutting positions* (all points
for the vanilla pipeline; the sketch for O2). ``D(j, k)`` = minimal total
weighted variance of k segments over positions[0..j]; the recursion enumerates
the last cut and is vectorized with numpy over the position axis.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

Segment = Tuple[int, int]


def all_segments(
    positions: Sequence[int], max_len: Optional[int] = None
) -> List[Segment]:
    """Every (s, e) pair of allowed positions with s < e (optionally bounded
    segment length e - s <= max_len, for sketch phase 1)."""
    pos = list(positions)
    out = []
    for i, s in enumerate(pos):
        for e in pos[i + 1 :]:
            if max_len is not None and e - s > max_len:
                break
            out.append((s, e))
    return out


def build_cost_matrix(
    positions: Sequence[int],
    segments: Iterable[Segment],
    costs: np.ndarray,
) -> np.ndarray:
    """(P, P) matrix C[i, j] = cost of segment (positions[i], positions[j]);
    +inf where the segment was not evaluated (invalid or over max length).
    ``positions`` is sorted and every segment endpoint is one of them."""
    pos = np.asarray(positions, dtype=np.int64)
    segs = np.asarray(list(segments), dtype=np.int64).reshape(-1, 2)
    ij = np.searchsorted(pos, segs)
    if not np.array_equal(pos[np.minimum(ij, len(pos) - 1)], segs):
        raise ValueError("segment endpoint not among the positions")
    C = np.full((len(pos), len(pos)), np.inf)
    C[ij[:, 0], ij[:, 1]] = costs
    return C


@dataclass
class DPResult:
    """K-variance curve and the optimal cuts for every K up to Kmax."""

    positions: List[int]
    totals: np.ndarray  # (Kmax+1,), totals[k] = D(n, k); totals[0] = +inf
    cuts: Dict[int, List[int]]  # K -> interior cutting positions (indices into ts)

    def curve(self) -> List[float]:
        """Total variance for K = 1..Kmax (the K-Variance curve of Sec. 6)."""
        return [float(v) for v in self.totals[1:]]


def dp_segment(C: np.ndarray, positions: Sequence[int], k_max: int) -> DPResult:
    """Solve Eq. 11 for all K in 1..k_max at once.

    The DP table for K-1 is a free by-product of computing K (Sec. 6), so the
    whole K-variance curve costs one O(K * P^2) pass.
    """
    P = C.shape[0]
    k_max = min(k_max, P - 1)
    if k_max < 1:
        raise ValueError("need at least two positions")
    D = np.full((k_max + 1, P), np.inf)
    parent = np.full((k_max + 1, P), -1, dtype=np.int64)
    D[1] = C[0]
    for k in range(2, k_max + 1):
        # D[k][j] = min_{j'} D[k-1][j'] + C[j', j]; C is +inf for j' >= j.
        M = D[k - 1][:, None] + C
        parent[k] = np.argmin(M, axis=0)
        D[k] = M[parent[k], np.arange(P)]

    totals = np.full(k_max + 1, np.inf)
    cuts: Dict[int, List[int]] = {}
    last = P - 1
    for k in range(1, k_max + 1):
        totals[k] = D[k, last]
        if not np.isfinite(totals[k]):
            continue
        cs: List[int] = []
        j, kk = last, k
        while kk > 1:
            j = int(parent[kk, j])
            cs.append(int(positions[j]))
            kk -= 1
        cuts[k] = sorted(cs)
    return DPResult(positions=[int(p) for p in positions], totals=totals, cuts=cuts)


def segments_of_cuts(cuts: Sequence[int], n: int) -> List[Segment]:
    """Turn interior cuts into the (s, e) segment list over [0, n-1]."""
    bounds = [0] + sorted(int(c) for c in cuts) + [n - 1]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def objective_of_cuts(
    cuts: Sequence[int], n: int, cost_of: Dict[Segment, float]
) -> float:
    """Total weighted variance of an arbitrary segmentation (for Fig. 6's
    ground-truth-rank experiment)."""
    return sum(cost_of[seg] for seg in segments_of_cuts(cuts, n))

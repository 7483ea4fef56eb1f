"""Vectorized within-segment cost matrices (pipeline module c).

For a centroid segment P = [p_s, p_e] the DP needs the *weighted* variance
``|P| * var(P) = sum over objects o_x in P of dist(o_x, P)`` (Eq. 7 times the
segment length). This module computes that sum for every centroid segment at
once, for all eight metric variants of Sec. 4.2.2:

- ``tse``     dist = 1 - (NDCG(cen, E*(obj)) + NDCG(obj, E*(cen))) / 2   (Eq. 6)
- ``dist1``   dist = 1 - NDCG(cen, E*(obj))                              (Eq. 8)
- ``dist2``   dist = 1 - NDCG(obj, E*(cen))                              (Eq. 9)
- ``allpair`` |P| * var = (1/|P|) * sum over object pairs of dist_tse    (Eq. 10)
- ``Stse``/``Sdist1``/``Sdist2``/``Sallpair``: squared-distance variants. The
  paper's "change the second term in the distance metric to its l2 norm" is
  under-specified; we interpret the S-family as using dist^2 in the variance
  (mean squared deviation instead of mean absolute), documented in DESIGN.md.

All metrics share one pair kernel. A pair is (query row q, atomic object x):
a centroid segment with an object inside it, or, for the allpair matrix, two
objects. Pairs are enumerated in row-major order ``PAIR_CHUNK`` at a time, and
both NDCG directions of Eq. 6 are gathered with fancy indexing: q's delta at
the object's top ids straight from ``S`` (``S[ids, e] - S[ids, s]``), and the
object's delta at q's top ids from ``object_deltas(S)``. Per-segment sums are
``np.bincount(row, weights=dist)``. The chunk bounds the ``(chunk, m)``
temporaries, so memory stays flat however many pairs a call has.

The scalar-reference implementation lives in :mod:`repro.core.ndcg`; tests
assert equality between the two.
"""
from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

from repro.core.toplists import TopLists, dcg_weights

Segment = Tuple[int, int]

PAIRWISE_METRICS = ("tse", "dist1", "dist2", "Stse", "Sdist1", "Sdist2")
ALLPAIR_METRICS = ("allpair", "Sallpair")
ALL_METRICS = PAIRWISE_METRICS + ALLPAIR_METRICS

# Pairs per gather. Larger chunks buy little speed and grow peak memory.
PAIR_CHUNK = 8192


def object_deltas(S: np.ndarray) -> np.ndarray:
    """eps x (n-1) signed deltas of the atomic objects [p_x, p_{x+1}]."""
    return S[:, 1:] - S[:, :-1]


def _ndcg(
    d: np.ndarray, ids: np.ndarray, signs: np.ndarray, idcg: np.ndarray
) -> np.ndarray:
    """Eq. 5 per pair: ``d`` is the query's delta at the doc list ``ids``
    (-1 padded), ``signs`` the list's own effects, ``idcg`` the query's IDCG.
    IDCG 0 gives 1; foreign lists can beat the CA list, hence the clip."""
    rel = np.where((np.sign(d) == signs) & (ids >= 0), np.abs(d), 0.0)
    dcg = (rel * dcg_weights(ids.shape[1])).sum(axis=1)
    pos = idcg > 0.0
    return np.where(pos, np.clip(dcg / np.where(pos, idcg, 1.0), 0.0, 1.0), 1.0)


def _pair_ndcgs(
    S: np.ndarray, obj_tl: TopLists, q_tl: TopLists, x_lo: np.ndarray, x_hi: np.ndarray
) -> Iterator[Tuple[np.ndarray, ...]]:
    """Both NDCG directions for every pair (row q of ``q_tl``, object x) with
    ``x_lo[q] <= x < x_hi[q]``, in row-major chunks of ``(q, x, n_q, n_x)``:
    ``n_q`` = NDCG(q, E*(o_x)) and ``n_x`` = NDCG(o_x, E*(q))."""
    Dobj = object_deltas(S)
    starts = np.concatenate(([0], np.cumsum(x_hi - x_lo)))
    n_pairs = int(starts[-1])
    for lo in range(0, n_pairs, PAIR_CHUNK):
        p = np.arange(lo, min(lo + PAIR_CHUNK, n_pairs))
        q = np.searchsorted(starts, p, side="right") - 1
        x = x_lo[q] + (p - starts[q])
        # Direction 1: query q, docs = the object's list.
        ids, seg = obj_tl.ids[x], q_tl.segments[q]
        safe = np.maximum(ids, 0)
        d = S[safe, seg[:, 1:]] - S[safe, seg[:, :1]]
        n_q = _ndcg(d, ids, obj_tl.signs[x], q_tl.idcg[q])
        # Direction 2: query = the object, docs = q's list.
        ids = q_tl.ids[q]
        d = Dobj[np.maximum(ids, 0), x[:, None]]
        n_x = _ndcg(d, ids, q_tl.signs[q], obj_tl.idcg[x])
        yield q, x, n_q, n_x


def pointwise_costs(
    S: np.ndarray,
    obj_tl: TopLists,
    cen_tl: TopLists,
    metrics: Sequence[str] = ("tse",),
) -> Dict[str, np.ndarray]:
    """``|P|*var(P)`` per centroid row of ``cen_tl`` for each pairwise metric."""
    bad = set(metrics) - set(PAIRWISE_METRICS)
    if bad:
        raise ValueError(f"not pairwise metrics: {bad}")
    segs = cen_tl.segments
    out = {mt: np.zeros(len(segs)) for mt in metrics}
    for q, _, n_cen, n_obj in _pair_ndcgs(S, obj_tl, cen_tl, segs[:, 0], segs[:, 1]):
        base = {
            "tse": 1.0 - (n_cen + n_obj) / 2.0,
            "dist1": 1.0 - n_cen,
            "dist2": 1.0 - n_obj,
        }
        for mt in metrics:
            d = base[mt.lstrip("S")]
            d = d * d if mt.startswith("S") else d
            out[mt] += np.bincount(q, weights=d, minlength=len(segs))
    return out


def object_pair_dist(
    S: np.ndarray, obj_tl: TopLists, squared: bool = False
) -> np.ndarray:
    """(n-1) x (n-1) matrix of dist_tse between every pair of atomic objects."""
    n_obj = S.shape[1] - 1
    M = np.zeros((n_obj, n_obj))
    lo, hi = np.zeros(n_obj, np.int64), np.full(n_obj, n_obj)
    for y, x, n_y, n_x in _pair_ndcgs(S, obj_tl, obj_tl, lo, hi):
        M[y, x] = 1.0 - (n_y + n_x) / 2.0
    return M * M if squared else M


def allpair_costs(
    pair_dist: np.ndarray, segments: Iterable[Segment]
) -> np.ndarray:
    """``|P|*var(P)`` under Eq. 10 for each segment, via 2-D prefix sums.

    var = average of dist over all ordered object pairs in P, so
    ``|P|*var = (sum of the |P| x |P| block) / |P|``.
    """
    n_obj = pair_dist.shape[0]
    P = np.zeros((n_obj + 1, n_obj + 1))
    P[1:, 1:] = pair_dist.cumsum(axis=0).cumsum(axis=1)
    s, e = np.asarray(list(segments), dtype=np.int64).reshape(-1, 2).T
    return (P[e, e] - P[s, e] - P[e, s] + P[s, s]) / (e - s)


def costs_for_segments(
    S: np.ndarray,
    obj_tl: TopLists,
    cen_tl: TopLists,
    metrics: Sequence[str],
) -> Dict[str, np.ndarray]:
    """Dispatch: pairwise metrics via ``pointwise_costs``, allpair via prefix sums."""
    out: Dict[str, np.ndarray] = {}
    pw = [mt for mt in metrics if mt in PAIRWISE_METRICS]
    if pw:
        out.update(pointwise_costs(S, obj_tl, cen_tl, pw))
    for mt in metrics:
        if mt in ALLPAIR_METRICS:
            M = object_pair_dist(S, obj_tl, squared=mt.startswith("S"))
            out[mt] = allpair_costs(M, cen_tl.segments)
    return out

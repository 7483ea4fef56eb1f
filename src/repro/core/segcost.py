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

The scalar-reference implementation lives in :mod:`repro.core.ndcg`; tests
assert equality between the two.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.toplists import TopLists, dcg_weights

Segment = Tuple[int, int]

PAIRWISE_METRICS = ("tse", "dist1", "dist2", "Stse", "Sdist1", "Sdist2")
ALLPAIR_METRICS = ("allpair", "Sallpair")
ALL_METRICS = PAIRWISE_METRICS + ALLPAIR_METRICS


def object_deltas(S: np.ndarray) -> np.ndarray:
    """eps x (n-1) signed deltas of the atomic objects [p_x, p_{x+1}]."""
    return S[:, 1:] - S[:, :-1]


def _safe_gather(vec: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """vec[ids] with -1 padding mapped to 0.0."""
    safe = np.where(ids >= 0, ids, 0)
    out = vec[safe]
    out[ids < 0] = 0.0
    return out


def _ndcg_pair_vectors(
    Dobj: np.ndarray,
    obj_tl: TopLists,
    d_q: np.ndarray,
    q_tl: TopLists,
    q_row: int,
    s: int,
    e: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Both NDCG directions between a query q and every object x in [s, e).

    q has signed delta ``d_q`` and its top list in row ``q_row`` of ``q_tl``.
    Returns (n_q, n_x): ``n_q[x-s]`` = NDCG(q, E*(o_x)) and ``n_x[x-s]`` =
    NDCG(o_x, E*(q)).
    """
    w = dcg_weights(obj_tl.m)
    q_ids = q_tl.ids[q_row]  # (m,)
    q_idcg = float(q_tl.idcg[q_row])

    # Direction 1: query = q, docs = each object's own top list.
    obj_ids = obj_tl.ids[s:e]  # (len, m)
    g = np.abs(_safe_gather(d_q, obj_ids))
    sign_on_q = np.sign(_safe_gather(d_q, obj_ids))
    rect = (sign_on_q == obj_tl.signs[s:e]) & (obj_ids >= 0)
    dcg_q = ((g * rect) * w).sum(axis=1)
    n_q = np.ones(e - s) if q_idcg <= 0.0 else np.clip(dcg_q / q_idcg, 0.0, 1.0)

    # Direction 2: query = each object, docs = q's top list.
    safe = np.where(q_ids >= 0, q_ids, 0)
    d_at = Dobj[safe][:, s:e]  # (m, len)
    d_at[q_ids < 0] = 0.0
    g2 = np.abs(d_at)
    rect2 = (np.sign(d_at) == q_tl.signs[q_row][:, None]) & (q_ids >= 0)[:, None]
    dcg_x = w @ (g2 * rect2)
    idcg_x = obj_tl.idcg[s:e]
    n_x = np.where(
        idcg_x > 0.0,
        np.clip(dcg_x / np.where(idcg_x > 0.0, idcg_x, 1.0), 0.0, 1.0),
        1.0,
    )
    return n_q, n_x


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
    Dobj = object_deltas(S)
    out = {mt: np.zeros(len(cen_tl.segments)) for mt in metrics}
    for row in range(len(cen_tl.segments)):
        s, e = (int(v) for v in cen_tl.segments[row])
        n_cen, n_obj = _ndcg_pair_vectors(
            Dobj, obj_tl, S[:, e] - S[:, s], cen_tl, row, s, e
        )
        base = {
            "tse": 1.0 - (n_cen + n_obj) / 2.0,
            "dist1": 1.0 - n_cen,
            "dist2": 1.0 - n_obj,
        }
        for mt in metrics:
            d = base[mt.lstrip("S")] if mt.startswith("S") else base[mt]
            out[mt][row] = float((d * d).sum() if mt.startswith("S") else d.sum())
    return out


def object_pair_dist(
    S: np.ndarray, obj_tl: TopLists, squared: bool = False
) -> np.ndarray:
    """(n-1) x (n-1) matrix of dist_tse between every pair of atomic objects."""
    Dobj = object_deltas(S)
    n_obj = Dobj.shape[1]
    M = np.zeros((n_obj, n_obj))
    for y in range(n_obj):
        n_y, n_x = _ndcg_pair_vectors(Dobj, obj_tl, Dobj[:, y], obj_tl, y, 0, n_obj)
        M[y] = 1.0 - (n_y + n_x) / 2.0
    M = (M + M.T) / 2.0  # dist is symmetric (Eq. 6); average out float noise
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
    out = []
    for s, e in segments:
        ln = e - s
        block = P[e, e] - P[s, e] - P[e, s] + P[s, s]
        out.append(block / ln)
    return np.asarray(out)


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
            out[mt] = allpair_costs(M, [tuple(seg) for seg in cen_tl.segments])
    return out

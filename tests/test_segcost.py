"""Vectorized cost matrices vs the scalar NDCG reference implementation."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ndcg, segcost
from repro.core.segcost import (
    ALL_METRICS,
    PAIRWISE_METRICS,
    allpair_costs,
    costs_for_segments,
    object_pair_dist,
    pointwise_costs,
)
from repro.core.kseg import all_segments
from repro.core.space import ExplanationSpace
from repro.core.toplists import compute_toplists, object_segments
from repro.core.types import Explanation


def _setup(seed=0, n=14, eps=6):
    rng = np.random.default_rng(seed)
    S = rng.uniform(0, 50, (eps, n))
    labels = [Explanation.of(k=i) for i in range(eps)]
    space = ExplanationSpace(labels, ["k"])
    obj_tl = compute_toplists(S, space, object_segments(n), 3, use_gv=False)
    segs = all_segments(range(n))
    cen_tl = compute_toplists(S, space, segs, 3, use_gv=False)
    return S, space, obj_tl, cen_tl, segs


def _scalar_cost(S, obj_tl, cen_tl, seg, metric):
    """Reference |P|*var via the per-pair scalar implementation."""
    s, e = seg
    ids_c = cen_tl.top_ids(seg)
    base = metric.lstrip("S")
    total = 0.0
    for x in range(s, e):
        ids_o = obj_tl.top_ids((x, x + 1))
        d = ndcg.dist_variant(S, seg, ids_c, (x, x + 1), ids_o, base)
        total += d * d if metric.startswith("S") else d
    return total


@pytest.mark.parametrize("metric", ["tse", "dist1", "dist2", "Stse", "Sdist1", "Sdist2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pointwise_matches_scalar_reference(metric, seed):
    S, space, obj_tl, cen_tl, segs = _setup(seed)
    costs = pointwise_costs(S, obj_tl, cen_tl, [metric])[metric]
    for row, seg in enumerate(segs):
        ref = _scalar_cost(S, obj_tl, cen_tl, seg, metric)
        assert costs[row] == pytest.approx(ref, abs=1e-9), f"segment {seg}"


@pytest.mark.parametrize("seed", [0, 1])
def test_object_pair_dist_matches_scalar(seed):
    S, space, obj_tl, _, _ = _setup(seed, n=10)
    M = object_pair_dist(S, obj_tl)
    n_obj = S.shape[1] - 1
    for x in range(n_obj):
        for y in range(n_obj):
            ox, oy = (x, x + 1), (y, y + 1)
            ref = ndcg.dist_tse(S, oy, obj_tl.top_ids(oy), ox, obj_tl.top_ids(ox))
            assert M[y, x] == pytest.approx(ref, abs=1e-9)


def test_object_pair_dist_properties():
    S, space, obj_tl, _, _ = _setup(3, n=12)
    M = object_pair_dist(S, obj_tl)
    assert np.allclose(M, M.T)
    assert np.allclose(np.diag(M), 0.0)
    assert (M >= -1e-12).all() and (M <= 1.0 + 1e-12).all()


def test_allpair_costs_match_direct_block_sum():
    S, space, obj_tl, cen_tl, segs = _setup(4, n=12)
    M = object_pair_dist(S, obj_tl)
    costs = allpair_costs(M, segs)
    for c, (s, e) in zip(costs, segs):
        block = M[s:e, s:e].sum()
        assert c == pytest.approx(block / (e - s))


def test_costs_for_segments_dispatch():
    S, space, obj_tl, cen_tl, segs = _setup(5, n=10)
    out = costs_for_segments(S, obj_tl, cen_tl, ALL_METRICS)
    assert set(out) == set(ALL_METRICS)
    for mt, arr in out.items():
        assert arr.shape == (len(segs),)
        assert np.isfinite(arr).all()
        assert (arr >= -1e-9).all()


def test_unit_segment_cost_zero():
    """An object is its own centroid: dist 0, so cost 0 for every metric."""
    S, space, obj_tl, cen_tl, segs = _setup(6, n=8)
    out = costs_for_segments(S, obj_tl, cen_tl, ALL_METRICS)
    for mt, arr in out.items():
        for row, (s, e) in enumerate(segs):
            if e - s == 1:
                assert arr[row] == pytest.approx(0.0, abs=1e-9), mt


def test_pointwise_rejects_allpair():
    S, space, obj_tl, cen_tl, segs = _setup(0, n=6)
    with pytest.raises(ValueError):
        pointwise_costs(S, obj_tl, cen_tl, ["allpair"])


@st.composite
def _pair_cases(draw):
    """Small spaces with few candidates (m may exceed them: -1 padding) and
    values from a tiny range, so flat segments (gamma 0, IDCG 0) are common."""
    eps = draw(st.integers(1, 4))
    n = draw(st.integers(2, 9))
    m = draw(st.integers(1, 5))
    cells = st.sampled_from([0.0, 1.0, 2.0, 5.5])
    vals = draw(st.lists(cells, min_size=eps * n, max_size=eps * n))
    S = np.asarray(vals).reshape(eps, n)
    space = ExplanationSpace([Explanation.of(k=i) for i in range(eps)], ["k"])
    obj_tl = compute_toplists(S, space, object_segments(n), m, use_gv=False)
    segs = all_segments(range(n))  # includes every length-1 segment
    cen_tl = compute_toplists(S, space, segs, m, use_gv=False)
    return S, obj_tl, cen_tl, segs, draw(st.sampled_from([1, 3, 8192]))


@settings(max_examples=60, deadline=None)
@given(_pair_cases())
def test_pair_kernel_matches_scalar_reference(case):
    """Every pairwise metric and both allpair matrices against ``ndcg``,
    with the pair chunk cut to 1 and 3 pairs as well as the default."""
    S, obj_tl, cen_tl, segs, chunk = case
    with mock.patch.object(segcost, "PAIR_CHUNK", chunk):
        costs = pointwise_costs(S, obj_tl, cen_tl, PAIRWISE_METRICS)
        M = object_pair_dist(S, obj_tl)
        M2 = object_pair_dist(S, obj_tl, squared=True)
    for mt in PAIRWISE_METRICS:
        ref = [_scalar_cost(S, obj_tl, cen_tl, seg, mt) for seg in segs]
        np.testing.assert_allclose(costs[mt], ref, rtol=0, atol=1e-9, err_msg=mt)
    objs = object_segments(S.shape[1])
    ref = np.array(
        [
            [ndcg.dist_tse(S, oy, obj_tl.top_ids(oy), ox, obj_tl.top_ids(ox)) for ox in objs]
            for oy in objs
        ]
    )
    np.testing.assert_allclose(M, ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(M2, ref * ref, rtol=0, atol=1e-9)

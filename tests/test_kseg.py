"""K-Segmentation DP (Eq. 11): exactness vs brute force, curve properties."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kseg import (
    all_segments,
    build_cost_matrix,
    dp_segment,
    segments_of_cuts,
)
from repro.eval.metrics import objective


def _random_costs(seed, n):
    """Arbitrary nonneg cost per segment (not necessarily variance-shaped)."""
    rng = np.random.default_rng(seed)
    segs = all_segments(range(n))
    return segs, rng.uniform(0, 10, len(segs))


def _brute_force(n, K, cost_of):
    best, best_cuts = np.inf, None
    for cuts in itertools.combinations(range(1, n - 1), K - 1):
        tot = sum(cost_of[seg] for seg in segments_of_cuts(cuts, n))
        if tot < best:
            best, best_cuts = tot, list(cuts)
    return best, best_cuts


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_dp_matches_brute_force(seed, K):
    n = 9
    segs, costs = _random_costs(seed, n)
    cost_of = dict(zip(segs, costs))
    C = build_cost_matrix(range(n), segs, costs)
    res = dp_segment(C, list(range(n)), k_max=5)
    bf_total, bf_cuts = _brute_force(n, K, cost_of)
    assert res.totals[K] == pytest.approx(bf_total)
    assert objective(res.cuts[K], n, cost_of) == pytest.approx(bf_total)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dp_matches_brute_force_property(data):
    """Random costs over a random position subset that keeps both endpoints:
    for every K the DP reaches the brute-force optimum with cuts among the
    positions. Segments off the positions cost +inf for the brute force."""
    n = data.draw(st.integers(2, 9), label="n")
    keep = data.draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2), label="keep")
    positions = [0] + [i for i, k in enumerate(keep, 1) if k] + [n - 1]
    segs = all_segments(positions)
    costs = data.draw(
        st.lists(st.floats(0, 10), min_size=len(segs), max_size=len(segs)), label="costs"
    )
    k_max = data.draw(st.integers(1, 8), label="k_max")
    res = dp_segment(build_cost_matrix(positions, segs, np.asarray(costs)), positions, k_max)
    cost_of = dict.fromkeys(all_segments(range(n)), np.inf)
    cost_of.update(zip(segs, costs))
    assert len(res.totals) == min(k_max, len(positions) - 1) + 1
    for K in range(1, len(res.totals)):
        bf_total, _ = _brute_force(n, K, cost_of)
        assert res.totals[K] == pytest.approx(bf_total)
        assert set(res.cuts[K]) <= set(positions)
        assert objective(res.cuts[K], n, cost_of) == pytest.approx(bf_total)


@pytest.mark.parametrize("seed", range(3))
def test_cuts_well_formed(seed):
    n = 20
    segs, costs = _random_costs(seed, n)
    C = build_cost_matrix(range(n), segs, costs)
    res = dp_segment(C, list(range(n)), k_max=8)
    for k, cuts in res.cuts.items():
        assert len(cuts) == k - 1
        assert cuts == sorted(cuts)
        assert all(0 < c < n - 1 for c in cuts)
        assert len(set(cuts)) == len(cuts)


def test_restricted_positions():
    n = 15
    positions = [0, 3, 7, 11, 14]
    segs = all_segments(positions)
    rng = np.random.default_rng(0)
    costs = rng.uniform(0, 5, len(segs))
    C = build_cost_matrix(positions, segs, costs)
    res = dp_segment(C, positions, k_max=4)
    for k, cuts in res.cuts.items():
        assert set(cuts) <= {3, 7, 11}
    # Brute force over the restricted position set.
    cost_of = dict(zip(segs, costs))
    interior = [3, 7, 11]
    for K in (2, 3):
        best = min(
            sum(cost_of[seg] for seg in segments_of_cuts(c, n))
            for c in itertools.combinations(interior, K - 1)
        )
        assert res.totals[K] == pytest.approx(best)


def test_max_len_constraint():
    n = 12
    segs = all_segments(range(n), max_len=4)
    assert all(e - s <= 4 for s, e in segs)
    rng = np.random.default_rng(1)
    C = build_cost_matrix(range(n), segs, rng.uniform(0, 5, len(segs)))
    res = dp_segment(C, list(range(n)), k_max=6)
    # K too small to cover n-1=11 with pieces of length <= 4 is infeasible.
    assert not np.isfinite(res.totals[2])
    assert np.isfinite(res.totals[3])
    for k, cuts in res.cuts.items():
        assert all(e - s <= 4 for s, e in segments_of_cuts(cuts, n))


def test_curve_monotone_for_subadditive_costs():
    """With variance-shaped costs (splitting never hurts), the K-variance
    curve decreases in K — the premise of the elbow method."""
    n = 12
    segs = all_segments(range(n))
    # cost = sum of pairwise |i-j| within the segment: splitting reduces it.
    costs = [
        sum(abs(i - j) for i in range(s, e) for j in range(s, e)) for s, e in segs
    ]
    C = build_cost_matrix(range(n), segs, np.asarray(costs, float))
    res = dp_segment(C, list(range(n)), k_max=8)
    curve = res.curve()
    assert all(curve[i] >= curve[i + 1] - 1e-9 for i in range(len(curve) - 1))


def test_single_position_pair_rejected():
    C = np.zeros((1, 1))
    with pytest.raises(ValueError):
        dp_segment(C, [0], k_max=1)


def test_segments_of_cuts():
    assert segments_of_cuts([3, 7], 10) == [(0, 3), (3, 7), (7, 9)]
    assert segments_of_cuts([], 5) == [(0, 4)]

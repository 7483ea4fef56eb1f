"""Cascading Analysts DP: exactness against exhaustive enumeration of the
cascading selection space, structural validity, and guess-and-verify."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cascading import (
    REL_TOL,
    _ranked_head,
    topm_guess_verify,
    topm_nonoverlapping,
)
from repro.core.space import ExplanationSpace
from repro.core.types import Explanation, pairwise_non_overlapping

_ROOT = -1


def brute_force_best(space: ExplanationSpace, gamma, m: int) -> float:
    """Max total gamma over *every* cascading selection, by exhaustive
    enumeration of selection sets (exponential; test-only)."""

    def selections(nid, q):
        out = {frozenset()}
        if nid != _ROOT and space.takeable[nid] and q >= 1:
            out.add(frozenset([nid]))
        kid_map = space.root_children if nid == _ROOT else space.children[nid]
        for kids in kid_map.values():
            combos = {frozenset()}
            for k in kids:
                subs = selections(k, q)
                combos = {
                    c | s for c in combos for s in subs if len(c | s) <= q
                }
            out |= combos
        return out

    return max(sum(gamma[i] for i in s) for s in selections(_ROOT, m))


def random_instance(seed: int, n_attrs=3, n_vals=2, max_order=2, p_keep=0.7):
    rng = np.random.default_rng(seed)
    attrs = [f"A{i}" for i in range(n_attrs)]
    labels = []
    for r in range(1, max_order + 1):
        for combo in itertools.combinations(attrs, r):
            for vals in itertools.product(range(n_vals), repeat=r):
                if rng.random() < p_keep:
                    labels.append(Explanation(tuple(zip(combo, vals))))
    if not labels:
        labels = [Explanation.of(A0=0)]
    space = ExplanationSpace(labels, attrs)
    gamma = np.zeros(space.n_nodes)
    gamma[space.candidate_ids()] = rng.integers(0, 50, space.n_candidates).astype(float)
    return space, gamma


def large_instance(seed: int, **kw):
    """``random_instance`` with gammas scaled to about 1e9 plus fractional
    parts, where float sums carry absolute error far above 1e-9."""
    space, gamma = random_instance(seed, **kw)
    cand = space.candidate_ids()
    gamma[cand] = gamma[cand] * 2e7 + np.random.default_rng(seed).random(len(cand))
    return space, gamma


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_ca_matches_brute_force(seed, m):
    space, gamma = random_instance(seed)
    res = topm_nonoverlapping(space, gamma, m)
    assert res.total == pytest.approx(brute_force_best(space, gamma, m))


@pytest.mark.parametrize("seed", range(20))
def test_ca_selection_is_valid(seed):
    space, gamma = random_instance(seed, n_attrs=3, n_vals=3, max_order=3)
    m = 3
    res = topm_nonoverlapping(space, gamma, m)
    assert len(res.ids) <= m
    assert len(set(res.ids)) == len(res.ids)
    chosen = [space.explanations[i] for i in res.ids]
    assert pairwise_non_overlapping(chosen)
    for i in res.ids:
        assert space.takeable[i]
    # Reported total equals sum of the chosen gammas.
    assert res.total == pytest.approx(sum(gamma[i] for i in res.ids))
    # Best array is monotone in quota and starts at 0.
    assert res.best[0] == 0.0
    assert all(res.best[q] <= res.best[q + 1] + 1e-12 for q in range(m))


@pytest.mark.parametrize("seed", range(20))
def test_ca_matches_brute_force_large_gamma(seed):
    space, gamma = large_instance(seed)
    for m in (1, 2, 3):
        tol = REL_TOL * m * gamma.max()
        res = topm_nonoverlapping(space, gamma, m)
        assert abs(res.total - brute_force_best(space, gamma, m)) <= tol
        assert abs(res.total - sum(gamma[i] for i in res.ids)) <= tol
        assert pairwise_non_overlapping([space.explanations[i] for i in res.ids])


def test_rounding_tie_keeps_earlier_partition():
    """SUM is additive, so two partitions of one slice tie up to rounding. The
    three b's sum one rounding step above the two a's; the a's come first and
    a later option must beat them by more than REL_TOL to replace them."""
    b_gammas = {1: 0.93, 2: 0.7, 3: 0.24}
    labels = [Explanation.of(a=1), Explanation.of(a=2)]
    labels += [Explanation.of(b=v) for v in b_gammas]
    space = ExplanationSpace(labels, ["a", "b"])
    g = np.zeros(space.n_nodes)
    for v, x in b_gammas.items():
        g[space.id_of[Explanation.of(b=v)]] = x
    g[space.id_of[Explanation.of(a=1)]] = 0.84
    g[space.id_of[Explanation.of(a=2)]] = (0.93 + 0.7 + 0.24) - 0.84
    assert (0.93 + 0.7) + 0.24 > 0.84 + g[space.id_of[Explanation.of(a=2)]]
    res = topm_nonoverlapping(space, g, 3)
    assert [space.explanations[i] for i in res.ids] == [
        Explanation.of(a=2),
        Explanation.of(a=1),
    ]


def test_single_attribute_is_topm_by_gamma():
    labels = [Explanation.of(state=f"s{i}") for i in range(10)]
    space = ExplanationSpace(labels, ["state"])
    rng = np.random.default_rng(0)
    gamma = rng.random(space.n_nodes) * 100
    res = topm_nonoverlapping(space, gamma, 3)
    expected = sorted(gamma, reverse=True)[:3]
    assert sorted(res.gammas, reverse=True) == pytest.approx(expected)


def test_parent_vs_children_drilldown():
    """CA drills down when the children beat the parent, and not otherwise."""
    labels = [
        Explanation.of(a=1),
        Explanation.of(a=1, b=1),
        Explanation.of(a=1, b=2),
    ]
    space = ExplanationSpace(labels, ["a", "b"])
    g = np.zeros(space.n_nodes)
    g[space.id_of[Explanation.of(a=1)]] = 10.0
    g[space.id_of[Explanation.of(a=1, b=1)]] = 7.0
    g[space.id_of[Explanation.of(a=1, b=2)]] = 6.0
    res = topm_nonoverlapping(space, g, 2)
    assert res.total == pytest.approx(13.0)  # children 7+6 beat parent 10
    res1 = topm_nonoverlapping(space, g, 1)
    assert res1.total == pytest.approx(10.0)  # with one quota the parent wins
    assert [space.explanations[i] for i in res1.ids] == [Explanation.of(a=1)]


def test_overlapping_candidates_never_coselected():
    """{a=1} and {b=1} overlap (no shared attr) so cannot both be chosen even
    though their summed gamma is maximal."""
    labels = [Explanation.of(a=1), Explanation.of(b=1), Explanation.of(a=2)]
    space = ExplanationSpace(labels, ["a", "b"])
    g = np.zeros(space.n_nodes)
    g[space.id_of[Explanation.of(a=1)]] = 10.0
    g[space.id_of[Explanation.of(b=1)]] = 9.0
    g[space.id_of[Explanation.of(a=2)]] = 1.0
    res = topm_nonoverlapping(space, g, 2)
    assert res.total == pytest.approx(11.0)
    chosen = {space.explanations[i] for i in res.ids}
    assert chosen == {Explanation.of(a=1), Explanation.of(a=2)}


def test_non_takeable_nodes_never_selected():
    space0 = ExplanationSpace(
        [Explanation.of(a=1, b=1), Explanation.of(a=1, b=2)], ["a", "b"]
    )
    g = np.full(space0.n_nodes, 5.0)
    g[space0.id_of[Explanation.of(a=1)]] = 100.0  # closure node: not takeable
    res = topm_nonoverlapping(space0, g, 2)
    assert space0.id_of[Explanation.of(a=1)] not in res.ids
    assert res.total == pytest.approx(10.0)


def test_zero_gamma_yields_empty_selection():
    space, _ = random_instance(0)
    res = topm_nonoverlapping(space, np.zeros(space.n_nodes), 3)
    assert res.ids == []
    assert res.total == 0.0


def test_gamma_length_validated():
    space, gamma = random_instance(1)
    with pytest.raises(ValueError):
        topm_nonoverlapping(space, gamma[:-1], 2)


class TestGuessVerify:
    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("m_bar0", [2, 4, 30])
    def test_matches_full_ca(self, seed, m_bar0):
        space, gamma = random_instance(seed, n_attrs=3, n_vals=3, max_order=3)
        full = topm_nonoverlapping(space, gamma, 3)
        gv = topm_guess_verify(space, gamma, 3, m_bar0=m_bar0)
        assert gv.total == pytest.approx(full.total)
        # ids live in the full space
        for i in gv.ids:
            assert 0 <= i < space.n_nodes and space.takeable[i]

    @pytest.mark.parametrize("seed", range(15))
    def test_large_gamma_matches_full_ca(self, seed):
        space, gamma = large_instance(seed, n_attrs=3, n_vals=3, max_order=3)
        full = topm_nonoverlapping(space, gamma, 3)
        for m_bar0 in (2, 4, 30):
            gv = topm_guess_verify(space, gamma, 3, m_bar0=m_bar0)
            assert abs(gv.total - full.total) <= REL_TOL * 3 * gamma.max()
            assert all(space.takeable[i] for i in gv.ids)

    def test_large_flat_instance(self):
        """Many near-tied candidates force the verification bound to work."""
        labels = [Explanation.of(k=f"v{i}") for i in range(200)]
        space = ExplanationSpace(labels, ["k"])
        rng = np.random.default_rng(3)
        gamma = rng.uniform(9.0, 10.0, space.n_nodes)
        full = topm_nonoverlapping(space, gamma, 3)
        gv = topm_guess_verify(space, gamma, 3, m_bar0=4)
        assert gv.total == pytest.approx(full.total)

    def test_m_bar_larger_than_candidates(self):
        space, gamma = random_instance(2)
        gv = topm_guess_verify(space, gamma, 3, m_bar0=10_000)
        full = topm_nonoverlapping(space, gamma, 3)
        assert gv.total == pytest.approx(full.total)

    @pytest.mark.parametrize("m_bar0", [0, -1])
    def test_m_bar0_below_one_raises(self, m_bar0):
        """m̄ = 0 never doubles, so the loop would not end."""
        space, gamma = random_instance(0)
        with pytest.raises(ValueError, match="m_bar0"):
            topm_guess_verify(space, gamma, 3, m_bar0=m_bar0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(0, 4).map(float), st.just(float("nan"))), max_size=40
    )
)
def test_ranked_head_equals_stable_argsort_prefix(vals):
    """The partial ranking guess-and-verify uses is the stable full sort's
    prefix, with ties, zeros and NaN, for every k from 1 to n + 2."""
    g = np.asarray(vals, dtype=float)
    full = np.argsort(-g, kind="stable")
    for k in range(1, len(g) + 3):
        np.testing.assert_array_equal(_ranked_head(g, k), full[:k])

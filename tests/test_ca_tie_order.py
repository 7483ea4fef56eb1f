"""Tie order of Cascading Analysts on additive cubes, against a named oracle.

SUM is additive, so on a cube with small-integer measures a parent's gamma
equals the sum of its children's exactly and many selections tie. Which one
CA returns is fixed by its option order and tie rule, and guess-and-verify
inherits it through the restricted space's node order. The oracle below is
the straightforward form of that DP: a separate ``combine`` knapsack and
``node`` step over numpy gammas, guess-and-verify gathering the candidates
through ``candidate_ids()``, and top lists built from column gathers of
``S``. The production code must return the same ids, gammas, ``best`` and
top-list arrays, bit for bit.
"""
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cascading import (
    REL_TOL,
    CAResult,
    _ranked_head,
    topm_guess_verify,
    topm_nonoverlapping,
)
from repro.core.kseg import all_segments
from repro.core.space import ExplanationSpace
from repro.core.toplists import compute_toplists
from repro.core.types import Explanation

M_VALUES = (1, 2, 3, 5, 10)
M_BAR0_VALUES = (1, 2, 4, 30)


# --- oracle -----------------------------------------------------------------


def oracle_solve(space, gamma, m):
    tol = REL_TOL * max(1.0, m * float(gamma.max(initial=0.0)))
    best = [None] * space.n_nodes
    sel = [None] * space.n_nodes

    def combine(kids):
        acc = [0.0] * (m + 1)
        acc_sel = [()] * (m + 1)
        for k in kids:
            cb, cs = best[k], sel[k]
            for q in range(m, 0, -1):
                hi, pick = acc[q], 0
                for qc in range(1, q + 1):
                    v = acc[q - qc] + cb[qc]
                    if v > hi + tol:
                        hi, pick = v, qc
                if pick:
                    acc[q], acc_sel[q] = hi, cs[pick] + acc_sel[q - pick]
        return acc, acc_sel

    def node(take, take_sel, groups):
        arr = [0.0] + [take] * m
        arr_sel = [()] + [take_sel] * m
        for kids in groups:
            comb, comb_sel = combine(kids)
            for q in range(1, m + 1):
                if comb[q] > arr[q] + tol:
                    arr[q], arr_sel[q] = comb[q], comb_sel[q]
        return arr, arr_sel

    gammas, takeable = np.asarray(gamma, dtype=float).tolist(), space.takeable.tolist()
    for nid in space.topo_desc:
        g = gammas[nid] if takeable[nid] else 0.0
        best[nid], sel[nid] = node(g, (nid,) if g > 0.0 else (), space.children[nid].values())
    return node(0.0, (), space.root_children.values())


def oracle_ca(space, gamma, m):
    root, root_sel = oracle_solve(space, gamma, m)
    ids = sorted(root_sel[m], key=lambda i: -float(gamma[i]))
    return CAResult(ids=ids, gammas=[float(gamma[i]) for i in ids], best=root)


def oracle_gv(space, gamma, m, m_bar0):
    cand = space.candidate_ids()
    g_cand = gamma[cand]
    n_cand = len(cand)
    m_bar = min(m_bar0, n_cand)
    while True:
        chi = cand[_ranked_head(g_cand, m_bar + m)]
        sub, old_of_new = space.restrict(chi[:m_bar])
        res = oracle_ca(sub, gamma[old_of_new], m)
        tail = gamma[chi[m_bar:]]
        tol = REL_TOL * max(1.0, abs(res.best[m]))
        ok = all(
            res.best[m] + tol >= res.best[mp] + float(tail[: m - mp].sum())
            for mp in range(m)
        )
        if ok or m_bar >= n_cand:
            ids = [int(old_of_new[i]) for i in res.ids]
            return CAResult(ids=ids, gammas=res.gammas, best=res.best)
        m_bar = min(2 * m_bar, n_cand)


def oracle_toplists(S, space, segments, m, use_gv, m_bar0):
    segs = np.asarray(list(segments), dtype=np.int64).reshape(-1, 2)
    ids = np.full((len(segs), m), -1, dtype=np.int64)
    gammas = np.zeros((len(segs), m))
    signs = np.zeros((len(segs), m), dtype=np.int8)
    for r, (s, e) in enumerate(segs):
        d = S[:, e] - S[:, s]
        g = np.abs(d)
        res = oracle_gv(space, g, m, m_bar0) if use_gv else oracle_ca(space, g, m)
        top = np.asarray(res.ids[:m], dtype=np.int64)
        ids[r, : len(top)] = top
        gammas[r, : len(top)] = g[top]
        signs[r, : len(top)] = np.sign(d[top])
    return ids, gammas, signs


# --- additive cube spaces ----------------------------------------------------


@st.composite
def additive_cubes(draw):
    """A random relation with small-integer measures, cubed exactly: one
    series per slice of up to three attributes, so parents tie with the sum
    of their children. A random share of the slices is dropped from the
    candidates, which leaves closure-only nodes in the space."""
    n_attrs = draw(st.integers(1, 3))
    attrs = [f"A{i}" for i in range(n_attrs)]
    doms = [draw(st.integers(1, 3)) for _ in attrs]
    n = draw(st.integers(2, 4))
    rows = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, d - 1) for d in doms]),
                st.lists(st.integers(0, 4), min_size=n, max_size=n),
            ),
            min_size=1,
            max_size=12,
        )
    )
    series = {}
    for vals, meas in rows:
        for r in range(1, n_attrs + 1):
            for idx in itertools.combinations(range(n_attrs), r):
                e = Explanation(tuple((attrs[i], vals[i]) for i in idx))
                series[e] = series.get(e, np.zeros(n)) + np.asarray(meas, dtype=float)
    labels = sorted(series, key=lambda e: e.preds)
    keep = draw(st.lists(st.booleans(), min_size=len(labels), max_size=len(labels)))
    labels = [e for e, k in zip(labels, keep) if k] or labels[:1]
    space = ExplanationSpace(labels, attrs)
    S = np.zeros((space.n_nodes, n))
    for e in labels:
        S[space.id_of[e]] = series[e]
    return space, S


def _assert_same(got: CAResult, want: CAResult) -> None:
    assert got.ids == want.ids
    assert got.gammas == want.gammas
    assert got.best == want.best


@settings(max_examples=150, deadline=None)
@given(additive_cubes())
def test_ca_and_gv_tie_order_equal_oracle(cube):
    space, S = cube
    for s, e in all_segments(range(S.shape[1])):
        g = np.abs(S[:, e] - S[:, s])
        for m in M_VALUES:
            _assert_same(topm_nonoverlapping(space, g, m), oracle_ca(space, g, m))
            for m_bar0 in M_BAR0_VALUES:
                _assert_same(
                    topm_guess_verify(space, g, m, m_bar0), oracle_gv(space, g, m, m_bar0)
                )


@settings(max_examples=100, deadline=None)
@given(additive_cubes(), st.sampled_from(M_VALUES), st.sampled_from(M_BAR0_VALUES))
def test_toplists_arrays_equal_oracle(cube, m, m_bar0):
    space, S = cube
    segs = all_segments(range(S.shape[1]))
    for use_gv in (True, False):
        tl = compute_toplists(S, space, segs, m, use_gv, m_bar0)
        for got, want in zip(
            (tl.ids, tl.gammas, tl.signs), oracle_toplists(S, space, segs, m, use_gv, m_bar0)
        ):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def test_one_candidate_space():
    """ε = 1 behind two closure nodes: each list is that candidate where its
    series changes and empty elsewhere, on both CA paths."""
    space = ExplanationSpace([Explanation.of(a=1, b=2)], ["a", "b"])
    assert (space.n_candidates, space.n_nodes) == (1, 3)
    S = np.zeros((3, 4))
    S[0] = [1.0, 3.0, 3.0, 0.0]
    segs = all_segments(range(4))
    gamma = [abs(S[0, e] - S[0, s]) for s, e in segs]
    for use_gv in (True, False):
        tl = compute_toplists(S, space, segs, 3, use_gv, 30)
        np.testing.assert_array_equal(tl.ids[:, 0], [0 if g else -1 for g in gamma])
        np.testing.assert_array_equal(tl.gammas[:, 0], gamma)
        assert (tl.ids[:, 1:] == -1).all()

"""The Cascading Analysts algorithm [Ruhl et al., SIGMOD'18] and
guess-and-verify (paper Sec. 5.2 module b and Sec. 5.3.1).

Finds top-m non-overlapping explanations (Def. 3.5) reachable by recursive
drill-downs: at each node either *take* the node's slice as one explanation, or
*drill down* one dimension and split the remaining quota among that dimension's
values (children with distinct values are pairwise disjoint). Dynamic
programming over (node, quota) is exact within this cascading family.

``best(node, q)`` = max total gamma using at most ``q`` pairwise-disjoint
explanations from refinements of ``node``:

    best(node, q) = max( gamma[node] if takeable and q >= 1,
                         max over attr d not in node:
                             knapsack over children(node, d) of best(child, .) )

One bottom-up pass stores, next to each ``best(node, q)``, the selection of
node ids that reaches it, so the root's selection for quota m is the answer.

Tie rule: SUM is additive, so a parent's partitions tie up to float rounding.
A later option replaces the current one only if it is larger by more than
``REL_TOL`` relative to ``m * max gamma``. Options are tried in a fixed order:
take the node, then each attribute's children in ``children`` order; in the
knapsack the later child gets the smallest quota that reaches the maximum,
and its selection goes before the accumulated one, which fixes the order of
equal-gamma explanations after the stable sort by gamma.

We use the "at most m" variant (paper footnote 2); since gamma >= 0 this only
differs from "exactly m" by zero-score padding.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.space import ExplanationSpace

REL_TOL = 1e-9  # relative float tolerance of the tie rule and of Eq. 12

Selection = Tuple[int, ...]


@dataclass
class CAResult:
    """Top-m non-overlapping explanations for one segment.

    ids are sorted by gamma descending (the "ideal ranked list" for NDCG);
    ``best[q]`` is the optimal total score with quota q (the Best[m'] side
    products that guess-and-verify needs).
    """

    ids: List[int]
    gammas: List[float]
    best: List[float]

    @property
    def total(self) -> float:
        return self.best[-1]


def _solve(
    space: ExplanationSpace, g: List[float], m: int
) -> Tuple[List[float], List[Selection]]:
    """Bottom-up DP over the gamma list ``g``: the root's best array and the
    selection behind each entry."""
    tol = REL_TOL * max(1.0, m * max(g, default=0.0))
    # (q, [(qc, q - qc), ...]) for q = m .. 1: descending, so acc[q - qc]
    # still excludes the child being folded in.
    splits = [(q, [(qc, q - qc) for qc in range(1, q + 1)]) for q in range(m, 0, -1)]
    quotas = range(1, m + 1)
    best: List[List[float]] = [None] * space.n_nodes  # type: ignore[list-item]
    sel: List[List[Selection]] = [None] * space.n_nodes  # type: ignore[list-item]

    def drill(
        arr: List[float], arr_sel: List[Selection], groups: Iterable[Sequence[int]]
    ) -> None:
        """Fold each group of a node's children into its best array ``arr``
        (taking the node, on entry), in place: a group is a quota knapsack
        across its disjoint children, and replaces ``arr[q]`` where larger by
        more than tol."""
        for kids in groups:
            acc = [0.0] * (m + 1)
            acc_sel: List[Selection] = [()] * (m + 1)
            for k in kids:
                cb, cs = best[k], sel[k]
                for q, qsplits in splits:
                    hi, pick = acc[q], 0
                    for qc, rest in qsplits:
                        v = acc[rest] + cb[qc]
                        if v > hi + tol:
                            hi, pick = v, qc
                    if pick:
                        acc[q], acc_sel[q] = hi, cs[pick] + acc_sel[q - pick]
            for q in quotas:
                if acc[q] > arr[q] + tol:
                    arr[q], arr_sel[q] = acc[q], acc_sel[q]

    n_cand, children = space.n_candidates, space.children  # takeable: id < n_cand
    for nid in space.topo_desc:
        t = g[nid] if nid < n_cand else 0.0
        best[nid] = arr = [0.0] + [t] * m
        sel[nid] = arr_sel = [()] + [(nid,) if t > 0.0 else ()] * m
        if children[nid]:
            drill(arr, arr_sel, children[nid].values())
    root, root_sel = [0.0] * (m + 1), [()] * (m + 1)
    drill(root, root_sel, space.root_children.values())
    return root, root_sel


def topm_nonoverlapping(space: ExplanationSpace, gamma: np.ndarray, m: int) -> CAResult:
    """Exact CA: top-(at most)m non-overlapping explanations maximizing sum gamma."""
    if len(gamma) != space.n_nodes:
        raise ValueError("gamma must have one entry per space node")
    g = np.asarray(gamma, dtype=float).tolist()
    root, root_sel = _solve(space, g, m)
    ids = sorted(root_sel[m], key=lambda i: -g[i])
    return CAResult(ids=ids, gammas=[g[i] for i in ids], best=root)


def _ranked_head(g: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-g, kind="stable")[:k]`` without sorting all of ``g``.

    A partition finds the k-th value p; only the elements not above p are
    then sorted stably in index order. ``~(x > p)`` keeps every tie, keeps
    NaN (which the stable sort puts last, past the k-th place) and keeps
    everything when p itself is NaN.
    """
    x = -g
    if k < len(x):
        p = np.partition(x, k - 1)[k - 1]
        sel = np.flatnonzero(~(x > p))
        return sel[np.argsort(x[sel], kind="stable")[:k]]
    return np.argsort(x, kind="stable")[:k]


def topm_guess_verify(
    space: ExplanationSpace,
    gamma: np.ndarray,
    m: int,
    m_bar0: int = 30,
) -> CAResult:
    """Guess-and-verify (O1): run CA on the top-m̄ candidates by gamma, then
    check optimality with Eq. 12; double m̄ until verified. Exact.

    Eq. 12: Best[m] >= Best[m'] + sum of the (m-m') largest tail gammas, for
    every 0 <= m' < m — any solution mixing m' head and (m-m') tail
    explanations is dominated, so the restricted answer is globally optimal.
    Only the top m̄+m candidates are ranked (a partial sort, redone when m̄
    doubles): the head plus the m largest tail gammas that Eq. 12 reads.
    Ties rank by candidate id, as in a stable sort. Candidates are ids
    ``0 .. n_candidates-1`` in every space, so the ranking reads the prefix
    ``gamma[:n_candidates]`` and its positions are node ids.
    """
    if m_bar0 < 1:
        raise ValueError(f"m_bar0 must be >= 1, got {m_bar0}")
    n_cand = space.n_candidates
    g_cand = gamma[:n_cand]
    m_bar = min(m_bar0, n_cand)
    while True:
        chi = _ranked_head(g_cand, m_bar + m)  # ranked head and tail top
        sub, old_of_new = space.restrict(chi[:m_bar])
        res = topm_nonoverlapping(sub, gamma[old_of_new], m)
        best = res.best
        tail = gamma[chi[m_bar:]]
        tol = REL_TOL * max(1.0, abs(best[m]))
        ok = all(
            best[m] + tol >= best[mp] + float(tail[: m - mp].sum()) for mp in range(m)
        )
        if ok or m_bar >= n_cand:
            old = old_of_new.tolist()
            return CAResult(ids=[old[i] for i in res.ids], gammas=res.gammas, best=best)
        m_bar = min(2 * m_bar, n_cand)

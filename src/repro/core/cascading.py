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
    space: ExplanationSpace, gamma: np.ndarray, m: int
) -> Tuple[List[float], List[Selection]]:
    """Bottom-up DP: the root's best array and the selection behind each entry."""
    tol = REL_TOL * max(1.0, m * float(gamma.max(initial=0.0)))
    best: List[List[float]] = [None] * space.n_nodes  # type: ignore[list-item]
    sel: List[List[Selection]] = [None] * space.n_nodes  # type: ignore[list-item]

    def combine(kids: Sequence[int]) -> Tuple[List[float], List[Selection]]:
        """Quota knapsack across disjoint children: acc[q] = best split of q."""
        acc = [0.0] * (m + 1)
        acc_sel: List[Selection] = [()] * (m + 1)
        for k in kids:
            cb, cs = best[k], sel[k]
            for q in range(m, 0, -1):  # descending, so acc[q - qc] still excludes k
                hi, pick = acc[q], 0
                for qc in range(1, q + 1):
                    v = acc[q - qc] + cb[qc]
                    if v > hi + tol:
                        hi, pick = v, qc
                if pick:
                    acc[q], acc_sel[q] = hi, cs[pick] + acc_sel[q - pick]
        return acc, acc_sel

    def node(
        take: float, take_sel: Selection, groups: Iterable[Sequence[int]]
    ) -> Tuple[List[float], List[Selection]]:
        """Best of taking the node and of drilling into each group of children."""
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


def topm_nonoverlapping(space: ExplanationSpace, gamma: np.ndarray, m: int) -> CAResult:
    """Exact CA: top-(at most)m non-overlapping explanations maximizing sum gamma."""
    if len(gamma) != space.n_nodes:
        raise ValueError("gamma must have one entry per space node")
    root, root_sel = _solve(space, gamma, m)
    ids = sorted(root_sel[m], key=lambda i: -float(gamma[i]))
    return CAResult(ids=ids, gammas=[float(gamma[i]) for i in ids], best=root)


def _ranked_head(g: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-g, kind="stable")[:k]`` without sorting all of ``g``.

    A partition finds the k-th value p; only the elements not above p are
    then sorted stably in index order. ``~(x > p)`` keeps every tie, keeps
    NaN (which the stable sort puts last, past the k-th place) and keeps
    everything when p itself is NaN.
    """
    x = -g
    sel = np.arange(len(x))
    if k < len(x):
        p = np.partition(x, k - 1)[k - 1]
        sel = np.flatnonzero(~(x > p))
    return sel[np.argsort(x[sel], kind="stable")[:k]]


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
    Ties rank by candidate id, as in a stable sort.
    """
    if m_bar0 < 1:
        raise ValueError(f"m_bar0 must be >= 1, got {m_bar0}")
    cand = space.candidate_ids()
    g_cand = gamma[cand]
    n_cand = len(cand)
    m_bar = min(m_bar0, n_cand)
    while True:
        chi = cand[_ranked_head(g_cand, m_bar + m)]  # ranked head and tail top
        sub, old_of_new = space.restrict(chi[:m_bar])
        res = topm_nonoverlapping(sub, gamma[old_of_new], m)
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

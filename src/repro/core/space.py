"""Drill-down explanation space used by the Cascading Analysts algorithm.

The space holds every candidate explanation plus the *prefix closure*: every
sub-conjunction of a candidate is present as a structural node so a drill-down
path from the root to any candidate exists. Nodes added only for closure are
marked non-``takeable`` (they cannot be returned as explanations, only passed
through while drilling).
"""
from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.types import Explanation


class ExplanationSpace:
    """Candidate explanations arranged as a drill-down DAG.

    Attributes
    ----------
    explanations : list[Explanation]
        All nodes (candidates plus closure prefixes), id = list index.
    takeable : np.ndarray of bool
        Whether the node may be selected as an explanation.
    order : np.ndarray of int
        Conjunction order per node.
    children : list[dict[str, list[int]]]
        ``children[nid][attr]`` = ids refining node ``nid`` with one extra
        predicate on ``attr``.
    root_children : dict[str, list[int]]
        Order-1 nodes grouped by their single attribute.
    """

    def __init__(
        self,
        labels: Iterable[Explanation | Tuple],
        attrs: Sequence[str],
    ) -> None:
        cands = [e if isinstance(e, Explanation) else Explanation(tuple(e)) for e in labels]
        self.attrs: Tuple[str, ...] = tuple(attrs)
        id_of: Dict[Explanation, int] = {}
        explanations: List[Explanation] = []
        take: List[bool] = []

        def add(e: Explanation, t: bool) -> None:
            # Candidates are added before any closure node, so the first add
            # of a node fixes whether it is takeable.
            if e not in id_of:
                id_of[e] = len(explanations)
                explanations.append(e)
                take.append(t)

        for e in cands:
            if e.order == 0:
                raise ValueError("order-0 (root) explanation is not a candidate")
            bad = set(e.attrs) - set(self.attrs)
            if bad:
                raise ValueError(f"explanation uses unknown attrs {bad}")
            add(e, True)
        # Prefix closure: every strict sub-conjunction becomes a structural
        # (non-takeable unless independently a candidate) node.
        for e in list(id_of):
            for r in range(1, e.order):
                for sub in itertools.combinations(e.preds, r):
                    add(Explanation(sub), False)

        self.explanations = explanations
        self.id_of = id_of
        self.takeable = np.asarray(take, dtype=bool)
        self.order = np.asarray([e.order for e in explanations], dtype=np.int64)

        self.children: List[Dict[str, List[int]]] = [dict() for _ in explanations]
        self.root_children: Dict[str, List[int]] = {}
        for nid, e in enumerate(explanations):
            if e.order == 1:
                self.root_children.setdefault(e.attrs[0], []).append(nid)
            else:
                for a, _ in e.preds:
                    pid = id_of[e.drop(a)]
                    self.children[pid].setdefault(a, []).append(nid)
        # Process order: children before parents (descending order).
        self.topo_desc: List[int] = sorted(
            range(len(explanations)), key=lambda i: -self.order[i]
        )

    @property
    def n_nodes(self) -> int:
        return len(self.explanations)

    @property
    def n_candidates(self) -> int:
        """Number of takeable candidates (epsilon in the paper)."""
        return int(self.takeable.sum())

    def candidate_ids(self) -> np.ndarray:
        return np.flatnonzero(self.takeable)

    def restrict(self, keep_ids: Sequence[int]) -> Tuple["ExplanationSpace", np.ndarray]:
        """Sub-space whose takeable nodes are exactly ``keep_ids``.

        Closure prefixes are re-added automatically (non-takeable). Returns the
        sub-space and ``old_of_new`` mapping each new node id back to the id in
        this space (closure nodes of the subset always exist here too).

        Used by guess-and-verify: CA restricted to the top-m̄ candidates.
        """
        keep = [self.explanations[i] for i in keep_ids]
        sub = ExplanationSpace(keep, self.attrs)
        old_of_new = np.asarray(
            [self.id_of[e] for e in sub.explanations], dtype=np.int64
        )
        return sub, old_of_new

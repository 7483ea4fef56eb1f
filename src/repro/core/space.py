"""Drill-down explanation space used by the Cascading Analysts algorithm.

The space holds every candidate explanation plus the *prefix closure*: every
sub-conjunction of a candidate is present as a structural node so a drill-down
path from the root to any candidate exists. Nodes added only for closure are
marked non-``takeable`` (they cannot be returned as explanations, only passed
through while drilling).

Node ids are interned once, at construction: candidates take ids
``0 .. n_candidates-1`` in input order, closure nodes follow in first-seen
order. Each candidate keeps the ids of its strict sub-conjunctions and each
node its ``(attr, parent id)`` drill-down links, so :meth:`ExplanationSpace.restrict`
(called once per guess-and-verify round) is an int-id lookup that reuses this
space's :class:`Explanation` objects and never builds or hashes one.
"""
from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.types import Explanation

Link = Tuple[str, int]  # (attr, parent id); parent -1 is the root
IdMap = Union[Sequence[int], Dict[int, int]]  # old id -> new id


def _link(
    nodes: Sequence[int], links: Sequence[Sequence[Link]], new_of: IdMap
) -> Tuple[List[Dict[str, List[int]]], Dict[str, List[int]]]:
    """``children`` and ``root_children`` of the space whose node ``i`` has the
    links ``links[nodes[i]]``; ``new_of`` maps a link's parent id to its node.

    Children are appended in node order, which fixes the dict key order
    and list order Cascading Analysts iterates, and so its tie rule.
    """
    children: List[Dict[str, List[int]]] = [{} for _ in nodes]
    root_children: Dict[str, List[int]] = {}
    for nid, r in enumerate(nodes):
        for a, pid in links[r]:
            parent = children[new_of[pid]] if pid >= 0 else root_children
            parent.setdefault(a, []).append(nid)
    return children, root_children


class ExplanationSpace:
    """Candidate explanations arranged as a drill-down DAG.

    Attributes
    ----------
    explanations : list[Explanation]
        All nodes (candidates plus closure prefixes), id = list index.
    takeable : np.ndarray of bool
        Whether the node may be selected as an explanation: exactly the
        candidates, ids ``0 .. n_candidates-1``.
    order : np.ndarray of int
        Conjunction order per node.
    children : list[dict[str, list[int]]]
        ``children[nid][attr]`` = ids refining node ``nid`` with one extra
        predicate on ``attr``.
    root_children : dict[str, list[int]]
        Order-1 nodes grouped by their single attribute.
    topo_desc : list[int]
        Node ids by descending order (children before parents).
    id_of : dict[Explanation, int]
        Node id of each explanation (built on first use in a sub-space).
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
        for e in cands:
            if e.order == 0:
                raise ValueError("order-0 (root) explanation is not a candidate")
            bad = set(e.attrs) - set(self.attrs)
            if bad:
                raise ValueError(f"explanation uses unknown attrs {bad}")
            if id_of.setdefault(e, len(explanations)) == len(explanations):
                explanations.append(e)
        n_cand = len(explanations)
        # Ids are interned by predicate tuple (an Explanation's sorted preds),
        # so only a node new to the space builds an Explanation.
        by_preds = {e.preds: i for i, e in enumerate(explanations)}

        def intern(preds: Tuple) -> int:
            nid = by_preds.setdefault(preds, len(explanations))
            if nid == len(explanations):
                explanations.append(Explanation(preds))
                id_of[explanations[-1]] = nid
            return nid

        # Prefix closure: every strict sub-conjunction becomes a structural
        # (non-takeable unless independently a candidate) node. The interned
        # tables below are shared, read-only, by every restriction.
        self._closure: List[List[int]] = [
            [
                intern(sub)
                for r in range(1, e.order)
                for sub in itertools.combinations(e.preds, r)
            ]
            for e in explanations[:n_cand]
        ]
        by_preds[()] = -1  # the root
        self._links: List[List[Link]] = [
            [(a, by_preds[e.preds[:i] + e.preds[i + 1 :]]) for i, (a, _) in enumerate(e.preds)]
            for e in explanations
        ]
        ident = range(len(explanations))
        order = np.asarray([e.order for e in explanations], dtype=np.int64)
        self._assemble(self, explanations, order, n_cand, ident, ident)
        self._id_of = id_of

    def _assemble(
        self,
        root: "ExplanationSpace",
        explanations: List[Explanation],
        order: np.ndarray,
        n_cand: int,
        ids: Sequence[int],
        new_of: IdMap,
    ) -> None:
        """Set the public attributes of the space over ``root``'s nodes ``ids``
        (the first ``n_cand`` takeable); ``new_of`` maps a root id to its node."""
        self._root, self._ids, self._n_cand = root, ids, n_cand
        self.attrs = root.attrs
        self.explanations = explanations
        self.order = order
        self.takeable = np.arange(len(explanations)) < n_cand
        self._cand = np.arange(n_cand)
        self._cand.flags.writeable = False
        self.children, self.root_children = _link(ids, root._links, new_of)
        # Process order: children before parents (descending order, stable).
        self.topo_desc: List[int] = np.argsort(-order, kind="stable").tolist()
        self._id_of: Optional[Dict[Explanation, int]] = None

    @property
    def id_of(self) -> Dict[Explanation, int]:
        if self._id_of is None:
            self._id_of = {e: i for i, e in enumerate(self.explanations)}
        return self._id_of

    @property
    def n_nodes(self) -> int:
        return len(self.explanations)

    @property
    def n_candidates(self) -> int:
        """Number of takeable candidates (epsilon in the paper)."""
        return self._n_cand

    def candidate_ids(self) -> np.ndarray:
        """Ids of the takeable candidates (a shared, read-only array)."""
        return self._cand

    def restrict(self, keep_ids: Sequence[int]) -> Tuple["ExplanationSpace", np.ndarray]:
        """Sub-space whose takeable nodes are exactly the candidates ``keep_ids``.

        The sub-space's nodes are ``keep_ids`` (duplicates dropped), then their
        closure prefixes (non-takeable) in first-seen order: the node order of
        ``ExplanationSpace([self.explanations[i] for i in keep_ids], self.attrs)``,
        with the same ``children`` order, looked up in the interned tables of
        the space this one was built as. Returns the sub-space and
        ``old_of_new``, mapping each new node id back to its id in this space.

        Used by guess-and-verify: CA restricted to the top-m̄ candidates.
        """
        root, ids = self._root, self._ids
        new_of: Dict[int, int] = {}  # root id -> sub-space id
        for o in np.asarray(keep_ids, dtype=np.int64).tolist():
            if not 0 <= o < self._n_cand:
                raise ValueError(f"node {o} is not a candidate of this space")
            new_of.setdefault(ids[o], len(new_of))
        n_cand = len(new_of)
        for r in list(new_of):
            for c in root._closure[r]:
                new_of.setdefault(c, len(new_of))
        nodes = list(new_of)
        root_ids = np.asarray(nodes, dtype=np.int64)

        sub = ExplanationSpace.__new__(ExplanationSpace)
        sub._assemble(
            root,
            [root.explanations[r] for r in nodes],
            root.order[root_ids],
            n_cand,
            nodes,
            new_of,
        )
        if self is root:
            return sub, root_ids
        here = {r: i for i, r in enumerate(ids)}
        return sub, np.asarray([here[r] for r in nodes], dtype=np.int64)

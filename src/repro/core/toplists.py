"""Per-segment top-explanation lists (pipeline module b output).

For every segment (s, e) we run the Cascading Analysts algorithm on the
gamma vector ``|S[:, e] - S[:, s]|`` and store the ranked ids, gammas, signs
and the ideal DCG. Lists are padded to length m with id = -1 / gamma = 0 /
sign = 0. :func:`compute_toplists` is the one builder of these arrays; the
Spark path (:mod:`repro.core.spark_ca`) runs it on segment batches.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.cascading import topm_guess_verify, topm_nonoverlapping
from repro.core.space import ExplanationSpace

Segment = Tuple[int, int]


def dcg_weights(m: int) -> np.ndarray:
    """1/log2(r+1) for 1-based ranks 1..m."""
    return 1.0 / np.log2(np.arange(1, m + 1) + 1.0)


@dataclass
class TopLists:
    """Ranked top-m lists for a set of segments, column-aligned by rank."""

    m: int
    segments: np.ndarray  # (R, 2) int
    ids: np.ndarray  # (R, m) int, -1 padded
    gammas: np.ndarray  # (R, m) float
    signs: np.ndarray  # (R, m) int8 (0 on padding)
    idcg: np.ndarray = field(init=False)  # (R,) float, the lists' own DCG
    index: Dict[Segment, int] = field(init=False)  # (s, e) -> row

    def __post_init__(self) -> None:
        self.idcg = (self.gammas * dcg_weights(self.m)).sum(axis=1)
        self.index = {(int(s), int(e)): r for r, (s, e) in enumerate(self.segments)}

    def row(self, seg: Segment) -> int:
        return self.index[(int(seg[0]), int(seg[1]))]

    def top_ids(self, seg: Segment) -> List[int]:
        r = self.row(seg)
        return [int(i) for i in self.ids[r] if i >= 0]


def compute_toplists(
    S: np.ndarray,
    space: ExplanationSpace,
    segments: Sequence[Segment],
    m: int,
    use_gv: bool = True,
    m_bar0: int = 30,
) -> TopLists:
    """Run CA (optionally with guess-and-verify) for every segment, locally.

    ``S`` is read time-major, one copy per call: a segment's delta is the
    difference of two contiguous rows, not of two strided columns.
    """
    segs = np.asarray(list(segments), dtype=np.int64).reshape(-1, 2)
    ids = np.full((len(segs), m), -1, dtype=np.int64)
    gammas = np.zeros((len(segs), m))
    signs = np.zeros((len(segs), m), dtype=np.int8)
    rows = np.ascontiguousarray(S.T)
    for r, (s, e) in enumerate(segs.tolist()):
        d = rows[e] - rows[s]
        g = np.abs(d)
        res = (
            topm_guess_verify(space, g, m, m_bar0)
            if use_gv
            else topm_nonoverlapping(space, g, m)
        )
        top = res.ids[:m]
        k = len(top)
        ids[r, :k] = top
        gammas[r, :k] = res.gammas[:m]
        signs[r, :k] = np.sign(d[top])
    return TopLists(m=m, segments=segs, ids=ids, gammas=gammas, signs=signs)


def object_segments(n: int) -> List[Segment]:
    """The n-1 atomic objects [p_x, p_{x+1}] (Sec. 4.1.1)."""
    return [(x, x + 1) for x in range(n - 1)]

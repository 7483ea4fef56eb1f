"""End-to-end TSExplain (paper Sec. 5.2 pipeline, Fig. 7).

Two entry points:

- :func:`explain_series` — the algorithmic core over a pre-pivoted eps x n
  matrix (module a output). All optimizations (filter, guess-and-verify,
  sketching), the K-Segmentation DP, and the elbow selection of K live here.
- :func:`explain_relation` — the full Spark path: relation DataFrame →
  GROUPING SETS cube (Catalyst) → matrix → ``explain_series``.

Stage timings are recorded for the latency tables (Fig. 15/16/17):
``precompute`` (cube/pivot/filter/space build), ``ca`` (all Cascading-Analysts
top-list computations, including sketch phase I), ``kseg`` (cost matrices, DP,
elbow).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.elbow import kneedle
from repro.core.filtering import DEFAULT_RATIO, support_mask
from repro.core.kseg import (
    DPResult,
    all_segments,
    build_cost_matrix,
    dp_segment,
    segments_of_cuts,
)
from repro.core.segcost import ALL_METRICS, costs_for_segments
from repro.core.sketch import select_sketch
from repro.core.space import ExplanationSpace
from repro.core.toplists import TopLists, compute_toplists, object_segments
from repro.core.types import Explanation

# With a SparkSession, the centroid CA runs on executors once there are at
# least this many segments; below it the job overhead outweighs the DPs.
SPARK_CA_MIN_SEGMENTS = 2000


@dataclass
class Config:
    """TSExplain knobs. Defaults = the paper's fully-optimized system; set
    ``use_filter = use_gv = use_sketch = False`` for VanillaTSExplain."""

    m: int = 3
    beta_max: int = 3
    k_max: int = 20
    K: Optional[int] = None  # None => elbow-selected
    metric: str = "tse"
    use_filter: bool = True
    filter_ratio: float = DEFAULT_RATIO
    use_gv: bool = True
    gv_m_bar0: int = 30
    use_sketch: bool = True

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first field that is out of range."""
        for name in ("m", "beta_max", "k_max", "gv_m_bar0"):
            if getattr(self, name) < 1:
                raise ValueError(f"Config.{name} must be >= 1, got {getattr(self, name)}")
        if self.metric not in ALL_METRICS:
            raise ValueError(
                f"Config.metric must be one of {ALL_METRICS}, got {self.metric!r}"
            )


@dataclass
class SegmentResult:
    """One output segment with its ranked top explanations."""

    start: int
    end: int
    start_t: object
    end_t: object
    explanations: List[Tuple[str, int, float]]  # (label, tau, gamma)


@dataclass
class ExplainResult:
    """Evolving explanations (Def. 3.7) plus diagnostics."""

    n: int
    epsilon: int
    filtered_epsilon: int
    K: int
    cuts: List[int]
    total_variance: float
    curve: List[float]  # K-variance curve, K = 1..k_max
    segments: List[SegmentResult]
    timings: Dict[str, float] = field(default_factory=dict)
    positions: List[int] = field(default_factory=list)


def moving_average(S: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average per row (the paper's smoothing for fuzzy data)."""
    if window <= 1:
        return S
    pad = window // 2
    padded = np.pad(S, ((0, 0), (pad, pad)), mode="edge")
    c = np.pad(np.cumsum(padded, axis=1), ((0, 0), (1, 0)))
    return (c[:, window:] - c[:, :-window])[:, : S.shape[1]] / window


def _aligned_matrix(
    S: np.ndarray, labels: Sequence[Explanation], space: ExplanationSpace
) -> np.ndarray:
    """One row of the series matrix per space node; closure-only nodes get a
    zero row (they are non-takeable, their gamma is never used).

    The space gives the candidates ids ``0 .. eps-1`` in label order, so the
    rows are one block copy. A repeated label would be one candidate with
    two rows, so it raises ``ValueError``.
    """
    if space.n_candidates != len(labels):
        seen = set()
        for e in labels:
            e = e if isinstance(e, Explanation) else Explanation(tuple(e))
            if e in seen:
                raise ValueError(f"label {e.label} is repeated")
            seen.add(e)
    out = np.zeros((space.n_nodes, S.shape[1]))
    out[: len(labels)] = S
    return out


def segment_results(
    tl: TopLists,
    space: ExplanationSpace,
    segs: Sequence[Tuple[int, int]],
    times: Sequence,
) -> List[SegmentResult]:
    """Attach each segment's ranked top explanations from ``tl``."""
    out: List[SegmentResult] = []
    for s, e in segs:
        row = tl.row((s, e))
        expl = [
            (space.explanations[int(j)].label, int(sg), float(g))
            for j, g, sg in zip(tl.ids[row], tl.gammas[row], tl.signs[row])
            if j >= 0
        ]
        out.append(
            SegmentResult(
                start=s, end=e, start_t=times[s], end_t=times[e], explanations=expl
            )
        )
    return out


def explain_series(
    S: np.ndarray,
    labels: Sequence[Explanation],
    attrs: Sequence[str],
    total: np.ndarray,
    cfg: Config = Config(),
    times: Optional[Sequence] = None,
    spark=None,
) -> ExplainResult:
    """Run K-Segmentation + evolving explanations over a series matrix.

    ``S`` needs at least 2 time points. With exactly 2 there is one object
    and one segmentation: K = 1, no cut, and the segment's list is the
    object's. ``labels`` needs one entry per row of ``S``, and ``total``
    and ``times`` one per column; a mismatch is a ``ValueError``.
    """
    cfg.validate()
    n = S.shape[1]
    if n < 2:
        raise ValueError(f"S needs at least 2 time points to segment, got n = {n}")
    times = list(times) if times is not None else list(range(n))
    if len(labels) != len(S):
        raise ValueError(f"{len(labels)} labels for the {len(S)} rows of S")
    if np.shape(total) != (n,):
        raise ValueError(f"total has shape {np.shape(total)}, S has {n} time points")
    if len(times) != n:
        raise ValueError(f"times has {len(times)} values, S has {n} time points")
    for name, arr in (("S", S), ("total", total)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains NaN or inf")
    timings: Dict[str, float] = {}
    t0 = time.perf_counter()

    epsilon = len(labels)
    if cfg.use_filter:
        mask = support_mask(S, total, cfg.filter_ratio)
        S = S[mask]
        labels = [e for e, k in zip(labels, mask) if k]
    filtered_epsilon = len(labels)
    if not filtered_epsilon:
        raise ValueError(
            f"empty explanation space: {epsilon} labels, none with nonzero support in S"
        )
    space = ExplanationSpace(labels, attrs)
    S_al = _aligned_matrix(S, labels, space)
    timings["precompute"] = time.perf_counter() - t0

    # --- module (b): top-explanations per segment -------------------------
    t0 = time.perf_counter()
    obj_tl = compute_toplists(
        S_al, space, object_segments(n), cfg.m, cfg.use_gv, cfg.gv_m_bar0
    )
    if cfg.use_sketch:
        positions = select_sketch(
            S_al,
            space,
            obj_tl,
            cfg.m,
            metric=cfg.metric,
            use_gv=cfg.use_gv,
            m_bar0=cfg.gv_m_bar0,
        )
    else:
        positions = list(range(n))
    segments = all_segments(positions)
    if spark is not None and len(segments) >= SPARK_CA_MIN_SEGMENTS:
        from repro.core.spark_ca import compute_toplists_spark

        cen_tl = compute_toplists_spark(
            spark, S_al, space, segments, cfg.m, cfg.use_gv, cfg.gv_m_bar0
        )
    else:
        cen_tl = compute_toplists(
            S_al, space, segments, cfg.m, cfg.use_gv, cfg.gv_m_bar0
        )
    timings["ca"] = time.perf_counter() - t0

    # --- module (c): costs, DP, elbow -------------------------------------
    t0 = time.perf_counter()
    costs = costs_for_segments(S_al, obj_tl, cen_tl, [cfg.metric])[cfg.metric]
    C = build_cost_matrix(positions, segments, costs)
    dp: DPResult = dp_segment(C, positions, cfg.k_max)
    K = cfg.K if cfg.K is not None else kneedle(dp.curve())
    K = max(1, min(K, max(k for k in dp.cuts)))
    cuts = dp.cuts[K]
    timings["kseg"] = time.perf_counter() - t0
    timings["total"] = sum(timings.values())

    return ExplainResult(
        n=n,
        epsilon=epsilon,
        filtered_epsilon=filtered_epsilon,
        K=K,
        cuts=cuts,
        total_variance=float(dp.totals[K]),
        curve=dp.curve(),
        segments=segment_results(cen_tl, space, segments_of_cuts(cuts, n), times),
        timings=timings,
        positions=[int(p) for p in positions],
    )


def explain_relation(
    df,
    time_col: str,
    attrs: Sequence[str],
    measure_expr: str,
    agg: str = "sum",
    cfg: Config = Config(),
) -> ExplainResult:
    """Full Spark path: Catalyst GROUPING SETS cube → matrix → explain."""
    from repro.core.precompute import series_matrix

    cfg.validate()  # before the cube, which is the costly part
    t0 = time.perf_counter()
    sm = series_matrix(df, time_col, attrs, measure_expr, agg, cfg.beta_max)
    spark_time = time.perf_counter() - t0
    res = explain_series(
        sm.S,
        sm.labels,
        attrs,
        sm.total,
        cfg,
        times=sm.times,
        spark=df.sparkSession,
    )
    res.timings["precompute"] += spark_time
    res.timings["total"] += spark_time
    return res

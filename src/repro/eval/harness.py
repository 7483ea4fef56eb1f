"""Shared harness for the evaluation jobs: run TSExplain or a baseline on a
series matrix, attach explanations to fixed cuts, and render the paper-style
segment tables."""
from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd

from repro.core.kseg import segments_of_cuts
from repro.core.pipeline import SegmentResult, _aligned_matrix, segment_results
from repro.core.space import ExplanationSpace
from repro.core.toplists import compute_toplists
from repro.core.types import Explanation
from repro.segbase import BASELINES


def explain_fixed_cuts(
    S: np.ndarray,
    labels: Sequence[Explanation],
    attrs: Sequence[str],
    cuts: Sequence[int],
    m: int = 3,
    use_gv: bool = True,
    times: Optional[Sequence] = None,
) -> List[SegmentResult]:
    """Attach CA top-m explanations to an externally produced segmentation
    (how the paper makes the explanation-agnostic baselines comparable)."""
    n = S.shape[1]
    times = list(times) if times is not None else list(range(n))
    space = ExplanationSpace(labels, attrs)
    segs = segments_of_cuts(cuts, n)
    tl = compute_toplists(_aligned_matrix(S, labels, space), space, segs, m, use_gv=use_gv)
    return segment_results(tl, space, segs, times)


def run_baseline(
    name: str,
    total: np.ndarray,
    K: int,
    **kwargs,
) -> Tuple[List[int], float]:
    """Run one baseline segmenter; returns (cuts, elapsed_seconds)."""
    fn = BASELINES[name]
    t0 = time.perf_counter()
    cuts = fn(np.asarray(total, dtype=float), K, **kwargs)
    return list(cuts), time.perf_counter() - t0


def segments_table(segments: Sequence[SegmentResult]) -> pd.DataFrame:
    """Paper-style table: one row per segment, columns Top-1..Top-m."""
    rows = []
    for seg in segments:
        row: Dict[str, object] = {
            "segment": f"{_fmt_t(seg.start_t)} ~ {_fmt_t(seg.end_t)}",
        }
        for r, (label, sign, gamma) in enumerate(seg.explanations, start=1):
            row[f"Top-{r} Expl"] = f"{label} {'+' if sign > 0 else '-'}"
        rows.append(row)
    return pd.DataFrame(rows)


def _fmt_t(t: object) -> str:
    try:
        return pd.Timestamp(t).strftime("%-m/%-d")
    except (ValueError, TypeError):
        return str(t)


def render_table(df: pd.DataFrame, title: str) -> str:
    """Plain-text table block for job stdout and EXPERIMENTS.md."""
    return f"== {title} ==\n{df.to_string(index=False)}\n"

"""Distributed Cascading Analysts over segments (the DP-UDF stage).

The CA stage is the paper's bottleneck: one DP per segment, O(n^2) segments,
embarrassingly parallel. The eps x n series matrix, the explanation space and
the (R, 2) segment array go to executors in one broadcast — the "custom
dynamic-programming UDF over grouped time series" of the reproduction brief.
``mapInPandas`` over ``spark.range(R)`` in ``defaultParallelism`` partitions
(one task per core) runs :func:`repro.core.toplists.compute_toplists` on the
segment rows named by each batch's ``id`` column and returns the padded lists
as one long ``row, rank, id, gamma, sign`` frame; the driver sorts it back
into (R, m) arrays.
"""
from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space import ExplanationSpace
from repro.core.toplists import TopLists, compute_toplists

Segment = Tuple[int, int]

_SCHEMA = "row long, rank int, id long, gamma double, sign byte"


def compute_toplists_spark(
    spark: SparkSession,
    S: np.ndarray,
    space: ExplanationSpace,
    segments: Sequence[Segment],
    m: int,
    use_gv: bool = True,
    m_bar0: int = 30,
) -> TopLists:
    """Same contract as :func:`repro.core.toplists.compute_toplists`, but the
    per-segment DPs run on Spark executors."""
    segs = np.asarray(list(segments), dtype=np.int64).reshape(-1, 2)
    sc = spark.sparkContext
    bc = sc.broadcast((S, space, segs, m, use_gv, m_bar0))

    def run(batches):
        S_, space_, segs_, m_, gv_, mb_ = bc.value
        for pdf in batches:
            rows = pdf["id"].to_numpy()
            tl = compute_toplists(S_, space_, segs_[rows], m_, gv_, mb_)
            yield pd.DataFrame(
                {
                    "row": np.repeat(rows, m_),
                    "rank": np.tile(np.arange(m_, dtype=np.int32), len(rows)),
                    "id": tl.ids.ravel(),
                    "gamma": tl.gammas.ravel(),
                    "sign": tl.signs.ravel(),
                }
            )

    try:
        sdf = spark.range(0, len(segs), 1, sc.defaultParallelism)
        out = sdf.mapInPandas(run, schema=_SCHEMA).toPandas()
    finally:
        bc.unpersist()
    out = out.sort_values(["row", "rank"])
    shape = (len(segs), m)
    return TopLists(
        m=m,
        segments=segs,
        ids=out["id"].to_numpy(np.int64).reshape(shape),
        gammas=out["gamma"].to_numpy(np.float64).reshape(shape),
        signs=out["sign"].to_numpy(np.int8).reshape(shape),
    )

"""Distributed Cascading Analysts over segments (the DP-UDF stage).

The CA stage is the paper's bottleneck: one DP per segment, O(n^2) segments,
embarrassingly parallel. We put the segments into a DataFrame and run
:func:`repro.core.toplists.compute_toplists` on each ``mapInPandas`` batch,
with the eps x n series matrix and the explanation space shipped to executors
via a Spark broadcast — the "custom dynamic-programming UDF over grouped time
series" of the reproduction brief. Each batch returns its padded top lists as
one long ``row, rank, id, gamma, sign`` frame; the driver sorts it back into
(R, m) arrays.
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
    bc = sc.broadcast((S, space, m, use_gv, m_bar0))

    def run(batches):
        S_, space_, m_, gv_, mb_ = bc.value
        for pdf in batches:
            segs_ = pdf[["s", "e"]].to_numpy()
            tl = compute_toplists(S_, space_, segs_, m_, gv_, mb_)
            yield pd.DataFrame(
                {
                    "row": np.repeat(pdf["row"].to_numpy(), m_),
                    "rank": np.tile(np.arange(m_, dtype=np.int32), len(segs_)),
                    "id": tl.ids.ravel(),
                    "gamma": tl.gammas.ravel(),
                    "sign": tl.signs.ravel(),
                }
            )

    n_part = min(max(1, len(segs) // 64), sc.defaultParallelism * 4)
    sdf = spark.createDataFrame(
        pd.DataFrame({"row": np.arange(len(segs)), "s": segs[:, 0], "e": segs[:, 1]}),
        schema="row long, s long, e long",
    ).repartition(n_part)
    out = sdf.mapInPandas(run, schema=_SCHEMA).toPandas()
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

"""Distributed Cascading Analysts over segments (the DP-UDF stage).

The CA stage is the paper's bottleneck: one DP per segment, O(n^2) segments,
embarrassingly parallel. We put the segments into a DataFrame and run the DP
inside ``mapInPandas`` with the eps x n series matrix and the explanation
space shipped to executors via a Spark broadcast — the "custom
dynamic-programming UDF over grouped time series" of the reproduction brief.
"""
from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space import ExplanationSpace
from repro.core.toplists import TopLists, _toplist_row

Segment = Tuple[int, int]

_SCHEMA = "s long, e long, rank int, id long, gamma double, sign int"


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
            out = []
            for s, e in zip(pdf["s"], pdf["e"]):
                ids, gammas, signs = _toplist_row(
                    S_, space_, (int(s), int(e)), m_, gv_, mb_
                )
                for r in range(m_):
                    out.append(
                        (int(s), int(e), r, int(ids[r]), float(gammas[r]), int(signs[r]))
                    )
            yield pd.DataFrame(
                out, columns=["s", "e", "rank", "id", "gamma", "sign"]
            )

    n_part = min(max(1, len(segs) // 64), sc.defaultParallelism * 4)
    sdf = spark.createDataFrame(
        pd.DataFrame(segs, columns=["s", "e"]), schema="s long, e long"
    ).repartition(n_part)
    rows = sdf.mapInPandas(run, schema=_SCHEMA).toPandas()
    bc.unpersist()

    R = len(segs)
    ids = np.full((R, m), -1, dtype=np.int64)
    gammas = np.zeros((R, m))
    signs = np.zeros((R, m), dtype=np.int8)
    index = {(int(s), int(e)): r for r, (s, e) in enumerate(segs)}
    rr = rows["rank"].to_numpy()
    pos = np.asarray(
        [index[(int(s), int(e))] for s, e in zip(rows["s"], rows["e"])]
    )
    ids[pos, rr] = rows["id"].to_numpy()
    gammas[pos, rr] = rows["gamma"].to_numpy()
    signs[pos, rr] = rows["sign"].to_numpy()
    return TopLists(m=m, segments=segs, ids=ids, gammas=gammas, signs=signs)

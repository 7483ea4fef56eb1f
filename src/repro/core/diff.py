"""Two-relations diff (paper Sec. 3.1.1) as a pure DataFrame operation.

Given a test relation R_t and a control relation R_c, compute the
absolute-change difference score gamma(E) (Def. 3.2) and the change effect
tau(E) (Def. 3.3) for every candidate explanation of order <= beta_max. For
decomposable SUM/COUNT, removing E's records changes f(R_t) - f(R_c) by
exactly f(sigma_E R_t) - f(sigma_E R_c), so

    gamma(E) = | f(M, sigma_E R_t) - f(M, sigma_E R_c) |
    tau(E)   = sign( f(M, sigma_E R_t) - f(M, sigma_E R_c) )

computed as: cube both relations over the explain-by attributes, full-outer
join on the (grouping-flag, attribute) key with null-safe equality, diff.
"""
from __future__ import annotations

from functools import reduce
from typing import List, Sequence, Tuple

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cascading import topm_nonoverlapping
from repro.core.precompute import VAL, _gcol, _q, grouping_sets_agg, order_col
from repro.core.space import ExplanationSpace
from repro.core.types import Explanation


def two_relation_diff(
    test_df: DataFrame,
    control_df: DataFrame,
    attrs: Sequence[str],
    measure_expr: str,
    agg: str = "sum",
    beta_max: int = 3,
) -> DataFrame:
    """DataFrame of [attrs..., grouping flags..., __order, gamma, tau].

    Includes the order-0 row (the overall difference f(R_t) - f(R_c)).
    """
    gcols = [_gcol(a) for a in attrs]
    t = grouping_sets_agg(test_df, attrs, measure_expr, agg, beta_max).alias("t")
    c = grouping_sets_agg(control_df, attrs, measure_expr, agg, beta_max).alias("c")

    def tc(side: str, name: str):
        return F.col(f"{side}.{_q(name)}")

    cond = reduce(
        lambda a, b: a & b,
        [tc("t", a).eqNullSafe(tc("c", a)) for a in attrs]
        + [tc("t", g) == tc("c", g) for g in gcols],
    )
    joined = t.join(c, on=cond, how="full_outer")
    diff = F.coalesce(tc("t", VAL), F.lit(0.0)) - F.coalesce(tc("c", VAL), F.lit(0.0))
    sel = (
        [F.coalesce(tc("t", k), tc("c", k)).alias(k) for k in (*attrs, *gcols)]
        + [F.abs(diff).alias("gamma"), F.signum(diff).cast("int").alias("tau")]
    )
    out = joined.select(*sel)
    return out.withColumn("__order", order_col(attrs))


def topm_for_relations(
    test_df: DataFrame,
    control_df: DataFrame,
    attrs: Sequence[str],
    measure_expr: str,
    agg: str = "sum",
    beta_max: int = 3,
    m: int = 3,
) -> List[Tuple[Explanation, float, int]]:
    """Top-m non-overlapping explanations of the two-relation difference:
    the diff DataFrame feeds the Cascading Analysts DP (Def. 3.5)."""
    gcols = [_gcol(a) for a in attrs]
    pdf = (
        two_relation_diff(test_df, control_df, attrs, measure_expr, agg, beta_max)
        .filter(F.col("__order") >= 1)
        .toPandas()
    )
    labels: List[Explanation] = []
    for _, row in pdf.iterrows():
        preds = tuple(
            (a, row[a]) for a, g in zip(attrs, (row[g] for g in gcols)) if g == 0
        )
        labels.append(Explanation(preds))
    space = ExplanationSpace(labels, attrs)
    gamma = np.zeros(space.n_nodes)
    tau = np.zeros(space.n_nodes, dtype=np.int8)
    for e, g, tv in zip(labels, pdf["gamma"], pdf["tau"]):
        nid = space.id_of[e]
        gamma[nid] = float(g)
        tau[nid] = int(tv)
    res = topm_nonoverlapping(space, gamma, m)
    return [
        (space.explanations[i], float(gamma[i]), int(tau[i])) for i in res.ids
    ]

"""Spark precompute benchmark at SF = 0.1: the join-aggregation-sort path.

lineitem ⋈ part (shuffle join — broadcast disabled in conftest), GROUPING
SETS cube over (l_returnflag, l_linestatus, p_brand) per month: the
relational stage TSExplain's module (a) runs on a data-cube-less deployment.
The sort by time belongs to ``candidate_series``, the cube's presentation
view, timed by the first benchmark; ``series_matrix``, the pipeline's cube,
collects the aggregation unsorted and lets ``to_matrix`` order the time axis.
The two-relation diff (paper Sec. 3.1.1) of the 1997 months against the 1996
months runs over the same join.
"""
import pytest
from pyspark.sql import functions as F

from repro.core.diff import topm_for_relations
from repro.core.precompute import candidate_series, series_matrix
from repro.synth_data import lineitem, part

SF = 0.1
ATTRS = ["l_returnflag", "l_linestatus", "p_brand"]


@pytest.fixture(scope="module")
def joined(spark):
    df = (
        lineitem(spark, sf=SF)
        .join(part(spark, sf=SF), F.col("l_partkey") == F.col("p_partkey"))
        .withColumn("month", F.date_format("l_shipdate", "yyyy-MM"))
        .withColumn("revenue", F.col("l_extendedprice") * (1 - F.col("l_discount")))
        .select("month", *ATTRS, "revenue")
    )
    df.cache().count()
    return df


def test_bench_spark_cube_order2(benchmark, spark, joined):
    def run():
        return candidate_series(joined, "month", ATTRS, "revenue", beta_max=2).count()

    n_rows = benchmark.pedantic(run, rounds=2, iterations=1)
    assert n_rows > 1000


def test_bench_spark_series_matrix(benchmark, spark, joined):
    def run():
        return series_matrix(joined, "month", ATTRS, "revenue", beta_max=2)

    sm = benchmark.pedantic(run, rounds=2, iterations=1)
    assert sm.epsilon > 30
    assert sm.n == 84  # 7 years of months in TPC-H-lite shipdates


def test_bench_spark_two_relation_diff(benchmark, spark, joined):
    def run():
        return topm_for_relations(
            joined.filter(F.col("month").startswith("1997")),
            joined.filter(F.col("month").startswith("1996")),
            ATTRS,
            "revenue",
            beta_max=3,
            m=3,
        )

    top = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(top) == 3

"""Join-aggregation-sort integration on TPC-H-lite: a revenue KPI over
lineitem ⋈ part, explained by (l_returnflag, l_linestatus, p_brand).

Exercises the shuffle join + GROUPING SETS aggregation + time ordering path
end-to-end, with DuckDB oracle checks on the relational stages, and the cube
and the two-relation diff at SF = 0.1.
"""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.diff import topm_for_relations
from repro.core.pipeline import Config, explain_relation
from repro.core.precompute import TIME, VAL, _gcol, candidate_series, series_matrix
from repro.oracle import assert_equivalent
from repro.synth_data import lineitem, part

SF = 0.002
ATTRS = ["l_returnflag", "l_linestatus", "p_brand"]


def _joined(spark, sf):
    li = lineitem(spark, sf=sf)
    pt = part(spark, sf=sf)
    df = (
        li.join(pt, li.l_partkey == pt.p_partkey)
        .withColumn("month", F.date_format("l_shipdate", "yyyy-MM"))
        .withColumn("revenue", F.col("l_extendedprice") * (1 - F.col("l_discount")))
        .select("month", *ATTRS, "revenue")
    )
    df.cache().count()
    return df


@pytest.fixture(scope="module")
def joined(spark):
    return _joined(spark, SF)


@pytest.fixture(scope="module")
def joined_sf01(spark):
    df = _joined(spark, 0.1)
    yield df
    df.unpersist()


class TestJoinAggSort:
    def test_kpi_series_vs_duckdb(self, spark, joined):
        got = (
            joined.groupBy("month")
            .agg(F.sum("revenue").alias("rev"))
            .orderBy("month")
        )
        li_pdf = lineitem(spark, sf=SF).toPandas()
        pt_pdf = part(spark, sf=SF).toPandas()
        sql = """
            SELECT strftime(l_shipdate, '%Y-%m') AS month,
                   SUM(l_extendedprice * (1 - l_discount)) AS rev
            FROM li JOIN pt ON l_partkey = p_partkey
            GROUP BY 1 ORDER BY 1
        """
        assert_equivalent(got, sql, li=li_pdf, pt=pt_pdf)

    def test_cube_order1_vs_duckdb(self, spark, joined):
        got = candidate_series(joined, "month", ATTRS, "revenue", beta_max=1).drop(
            "__order"
        )
        jp = joined.toPandas()
        gcols = [f'GROUPING({a}) AS "{_gcol(a)}"' for a in ATTRS]
        sets = ", ".join(["(month)"] + [f"(month, {a})" for a in ATTRS])
        sql = f"""
            SELECT month AS "{TIME}", {', '.join(ATTRS)}, {', '.join(gcols)},
                   SUM(revenue) AS "{VAL}"
            FROM j GROUP BY GROUPING SETS ({sets})
        """
        assert_equivalent(got, sql, j=jp)

    def test_explain_revenue_trend(self, spark, joined):
        res = explain_relation(
            joined, "month", ATTRS, "revenue", "sum", Config(K=4, beta_max=2)
        )
        assert res.K == 4
        assert res.epsilon > 30  # flags x statuses x brands
        assert len(res.segments) == 4
        for seg in res.segments:
            assert seg.explanations, "every segment gets top explanations"
            for label, sign, gamma in seg.explanations:
                assert sign in (-1, 1)
                assert gamma >= 0

    def test_series_sorted_by_time(self, spark, joined):
        cand = candidate_series(joined, "month", ATTRS, "revenue", beta_max=1)
        pdf = cand.filter("__order = 0").toPandas()
        assert list(pdf[TIME]) == sorted(pdf[TIME])


class TestScaleFactor01:
    def test_cube_order2_rows(self, joined_sf01):
        cand = candidate_series(joined_sf01, "month", ATTRS, "revenue", beta_max=2)
        assert cand.count() > 1000

    def test_series_matrix(self, joined_sf01):
        sm = series_matrix(joined_sf01, "month", ATTRS, "revenue", beta_max=2)
        assert sm.epsilon > 30
        assert sm.n == 84  # 7 years of months in TPC-H-lite shipdates

    def test_two_relation_diff(self, joined_sf01):
        top = topm_for_relations(
            joined_sf01.filter(F.col("month").startswith("1997")),
            joined_sf01.filter(F.col("month").startswith("1996")),
            ATTRS,
            "revenue",
            beta_max=3,
            m=3,
        )
        assert len(top) == 3

"""Spark GROUPING SETS precompute: DuckDB oracle equivalence and
pandas-mirror parity, including column names that need quoting."""
import numpy as np
import pytest

from repro.core.precompute import (
    TIME,
    VAL,
    _gcol,
    candidate_series,
    series_matrix,
    series_matrix_pandas,
)
from repro.datasets import liquor_like, synthetic
from repro.oracle import assert_equivalent

# (time, explain-by, explain-by) column names: plain, and ones that break an
# unquoted SQL string.
PLAIN = ("date", "BV", "P")
ODD = ("my t", "my g", "sub-cat")


@pytest.fixture(scope="module")
def synth_rel():
    return synthetic.generate(n=30, seed=21).relation_sum()


class TestCubeOracle:
    def test_single_attr_sum(self, spark, synth_rel):
        sdf = spark.createDataFrame(synth_rel)
        got = candidate_series(sdf, "T", ["category"], "sales", "sum").drop("__order")
        sql = f"""
            SELECT T AS "{TIME}", category,
                   GROUPING(category) AS "{_gcol('category')}",
                   SUM(sales) AS "{VAL}"
            FROM r GROUP BY GROUPING SETS ((T), (T, category))
        """
        assert_equivalent(got, sql, r=synth_rel)

    def test_single_attr_count(self, spark, synth_rel):
        sdf = spark.createDataFrame(synth_rel)
        got = candidate_series(sdf, "T", ["category"], "sales", "count").drop("__order")
        sql = f"""
            SELECT T AS "{TIME}", category,
                   GROUPING(category) AS "{_gcol('category')}",
                   COUNT(sales) AS "{VAL}"
            FROM r GROUP BY GROUPING SETS ((T), (T, category))
        """
        assert_equivalent(got, sql, r=synth_rel)

    def test_multi_attr_beta2(self, spark):
        lq = liquor_like.generate(n=12, n_combos=40, seed=2)
        base = lq.relation()[["date", "BV", "P", "bottles"]].copy()
        base["date"] = base["date"].astype(str)
        for t, a, b in (PLAIN, ODD):
            rel = base.set_axis([t, a, b, "bottles"], axis=1)
            sdf = spark.createDataFrame(rel)
            got = candidate_series(sdf, t, [a, b], "bottles", "sum", beta_max=2)
            got = got.drop("__order")
            sql = f"""
                SELECT "{t}" AS "{TIME}", "{a}", "{b}",
                       GROUPING("{a}") AS "{_gcol(a)}",
                       GROUPING("{b}") AS "{_gcol(b)}",
                       SUM(bottles) AS "{VAL}"
                FROM r GROUP BY GROUPING SETS
                    (("{t}"), ("{t}", "{a}"), ("{t}", "{b}"), ("{t}", "{a}", "{b}"))
            """
            assert_equivalent(got, sql, r=rel)

    def test_beta_max_limits_order(self, spark):
        lq = liquor_like.generate(n=8, n_combos=30, seed=3)
        rel = lq.relation()
        rel["date"] = rel["date"].astype(str)
        sdf = spark.createDataFrame(rel)
        got = candidate_series(sdf, "date", list(lq.attrs), "bottles", beta_max=2)
        orders = {r["__order"] for r in got.select("__order").distinct().collect()}
        assert orders <= {0, 1, 2}

    def test_derived_measure_expr(self, spark):
        import pandas as pd

        rel = pd.DataFrame(
            {"t": [1, 1, 2, 2], "g": list("abab"), "x": [1.0, 2, 3, 4], "y": [2.0, 2, 2, 2]}
        )
        sdf = spark.createDataFrame(rel)
        got = candidate_series(sdf, "t", ["g"], "x*y", "sum").drop("__order")
        sql = f"""
            SELECT t AS "{TIME}", g, GROUPING(g) AS "{_gcol('g')}",
                   SUM(x*y) AS "{VAL}"
            FROM r GROUP BY GROUPING SETS ((t), (t, g))
        """
        assert_equivalent(got, sql, r=rel)


class TestMatrixParity:
    def test_spark_equals_pandas(self, spark, synth_rel):
        sdf = spark.createDataFrame(synth_rel)
        sm_s = series_matrix(sdf, "T", ["category"], "sales", "sum")
        sm_p = series_matrix_pandas(synth_rel, "T", ["category"], "sales", "sum")
        assert sm_s.labels == sm_p.labels
        np.testing.assert_allclose(sm_s.S, sm_p.S)
        np.testing.assert_allclose(sm_s.total, sm_p.total)
        assert sm_s.times == sm_p.times

    def test_multiattr_parity(self, spark):
        lq = liquor_like.generate(n=10, n_combos=50, seed=4)
        for names in (PLAIN, ODD):
            rename = dict(zip(PLAIN, names))
            rel = lq.relation().rename(columns=rename)
            attrs = [rename.get(a, a) for a in lq.attrs]
            sm_s = series_matrix(
                spark.createDataFrame(rel), names[0], attrs, "bottles", beta_max=3
            )
            sm_p = series_matrix_pandas(rel, names[0], attrs, "bottles", beta_max=3)
            assert sm_s.labels == sm_p.labels, names
            np.testing.assert_allclose(sm_s.S, sm_p.S)
            np.testing.assert_allclose(sm_s.total, sm_p.total)

    def test_missing_slices_are_zero(self, spark):
        import pandas as pd

        rel = pd.DataFrame({"t": [1, 2, 2], "g": ["a", "a", "b"], "x": [5.0, 6.0, 7.0]})
        sm = series_matrix(spark.createDataFrame(rel), "t", ["g"], "x")
        from repro.core.types import Explanation

        row_b = sm.labels.index(Explanation.of(g="b"))
        np.testing.assert_allclose(sm.S[row_b], [0.0, 7.0])


    def test_explain_is_the_same_on_both_paths(self, spark):
        """The Spark cube gives its candidates the ids of the in-memory
        cube, so ``explain_relation`` and ``explain_series`` over
        ``series_matrix_pandas`` rank, break ties and segment alike."""
        from repro.core.pipeline import Config, explain_relation, explain_series

        data = liquor_like.generate(n=32, n_combos=100, seed=4)
        rel, attrs, cfg = data.relation_df, list(data.attrs), Config(gv_m_bar0=8)
        got = explain_relation(spark.createDataFrame(rel), "date", attrs, "bottles", cfg=cfg)
        sm = series_matrix_pandas(rel, "date", attrs, "bottles", beta_max=cfg.beta_max)
        want = explain_series(sm.S, sm.labels, attrs, sm.total, cfg, times=sm.times)
        assert (got.K, got.cuts) == (want.K, want.cuts)
        lists = [[(lab, sign) for lab, sign, _ in seg.explanations] for seg in got.segments]
        assert lists == [[(lab, sign) for lab, sign, _ in seg.explanations] for seg in want.segments]
        assert got.total_variance == pytest.approx(want.total_variance, rel=1e-12)


class TestOneTaskPerCore:
    def test_many_partition_input(self, spark):
        """A 64-partition input is read through ``Coalesce`` of
        defaultParallelism, and the cube still equals DuckDB and the pandas
        cube."""
        lq = liquor_like.generate(n=10, n_combos=40, seed=5)
        rel = lq.relation()
        rel["date"] = rel["date"].astype(str)
        attrs = list(lq.attrs)[:2]
        sdf = spark.createDataFrame(rel).repartition(64)
        assert sdf.rdd.getNumPartitions() == 64

        cand = candidate_series(sdf, "date", attrs, "bottles", beta_max=2)
        plan = cand._jdf.queryExecution().executedPlan().toString()
        assert f"Coalesce {spark.sparkContext.defaultParallelism}" in plan, plan

        a, b = attrs
        sql = f"""
            SELECT date AS "{TIME}", "{a}", "{b}",
                   GROUPING("{a}") AS "{_gcol(a)}",
                   GROUPING("{b}") AS "{_gcol(b)}",
                   SUM(bottles) AS "{VAL}"
            FROM r GROUP BY GROUPING SETS
                ((date), (date, "{a}"), (date, "{b}"), (date, "{a}", "{b}"))
        """
        assert_equivalent(cand.drop("__order"), sql, r=rel)

        sm_s = series_matrix(sdf, "date", attrs, "bottles", beta_max=2)
        sm_p = series_matrix_pandas(rel, "date", attrs, "bottles", beta_max=2)
        assert sm_s.labels == sm_p.labels
        np.testing.assert_allclose(sm_s.S, sm_p.S)
        np.testing.assert_allclose(sm_s.total, sm_p.total)


def _duckdb_cube(rel, attrs, beta_max):
    """{label: series} from DuckDB's GROUPING SETS over ``t`` and ``v``, with a
    NULL sum (a slice whose measure is NULL in every row) read as 0."""
    import itertools

    import duckdb

    from repro.core.types import Explanation

    times = sorted(rel["t"].unique())
    subsets = [
        sub for r in range(1, beta_max + 1) for sub in itertools.combinations(attrs, r)
    ]
    sets = ", ".join(f"(t, {', '.join(sub)})" for sub in subsets)
    duck = duckdb.connect()
    try:
        duck.register("r", rel)
        rows = duck.execute(
            f"SELECT t, {', '.join(attrs)}, "
            f"{', '.join(f'GROUPING({a})' for a in attrs)}, SUM(v)"
            f" FROM r GROUP BY GROUPING SETS ((t), {sets})"
        ).fetchall()
    finally:
        duck.close()
    k = len(attrs)
    expected = {}
    for t, *rest in rows:
        keys, flags, val = rest[:k], rest[k : 2 * k], rest[2 * k]
        preds = tuple((a, v) for a, v, g in zip(attrs, keys, flags) if g == 0)
        if preds:
            series = expected.setdefault(Explanation(preds), [0.0] * len(times))
            series[times.index(t)] = 0.0 if val is None else val
    return expected


class TestNullValues:
    def _check_paths(self, spark, rel, schema, attrs, total):
        """The Spark cube and the pandas cube both equal DuckDB, with the
        same labels in the same order."""
        expected = _duckdb_cube(rel, attrs, beta_max=2)
        sdf = spark.createDataFrame(rel, schema)
        sms = (
            series_matrix(sdf, "t", attrs, "v", beta_max=2),
            series_matrix_pandas(rel, "t", attrs, "v", beta_max=2),
        )
        assert sms[0].labels == sms[1].labels
        for sm in sms:
            got = {e: list(row) for e, row in zip(sm.labels, sm.S)}
            assert got == expected
            np.testing.assert_allclose(sm.total, total)
        return expected

    def test_null_is_an_explanation_on_every_path(self, spark):
        """NULL attribute values are slices of their own: the Spark cube, the
        pandas cube and DuckDB give the same series, ``a=NULL`` included."""
        import pandas as pd

        from repro.core.types import Explanation

        rel = pd.DataFrame(
            {
                "t": [1, 1, 1, 2, 2, 2, 2],
                "a": ["x", None, None, "x", None, None, "x"],
                "b": ["u", "u", None, None, "u", None, "u"],
                "v": [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0],
            }
        )
        expected = self._check_paths(
            spark, rel, "t int, a string, b string, v double", ["a", "b"], [3.0, 7.0]
        )
        assert expected[Explanation.of(a=None)] == [2.0, 4.0]

    def test_all_null_measure_slice_is_kept(self, spark):
        """A slice whose measure is NULL in every row sums to 0 on every path
        and stays a candidate (Spark's SUM gives NULL there)."""
        import pandas as pd

        from repro.core.types import Explanation

        rel = pd.DataFrame(
            {"t": [1, 1, 2, 2], "a": ["x", "y", "x", "y"], "v": [1.0, None, 2.0, None]}
        )
        expected = self._check_paths(spark, rel, "t int, a string, v double", ["a"], [1.0, 2.0])
        assert expected == {Explanation.of(a="x"): [1.0, 2.0], Explanation.of(a="y"): [0.0, 0.0]}

    def test_integer_keys_label_as_integers(self, spark):
        """An integer attribute keeps integer keys on both cube paths, its
        NULL included: labels read ``h=1`` and ``h=None`` as from DuckDB,
        not ``h=1.0`` (toPandas reads a bigint column holding NULLs, as
        every cube attribute column does, as float64)."""
        import pandas as pd

        rel = pd.DataFrame(
            {
                "t": [1, 1, 1, 2, 2, 2],
                "g": ["x", "y", "x", "y", "x", "y"],
                "h": pd.array([1, 2, None, 1, 2, None], dtype="Int64"),
                "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            }
        )
        schema = "t int, g string, h bigint, v double"
        expected = self._check_paths(spark, rel, schema, ["g", "h"], [6.0, 15.0])
        want = sorted(e.label for e in expected)
        assert "h=1" in want and "h=None" in want and "g=x & h=2" in want
        sdf = spark.createDataFrame(rel, schema)
        for sm in (
            series_matrix(sdf, "t", ["g", "h"], "v", beta_max=2),
            series_matrix_pandas(rel, "t", ["g", "h"], "v", beta_max=2),
        ):
            assert sorted(e.label for e in sm.labels) == want
            for e in sm.labels:
                h = e.as_dict().get("h")
                assert h is None or isinstance(h, (int, np.integer))

    def test_nan_and_null_float_keys_bin_alike(self, spark):
        """Spark groups a double key's NaN and NULL apart, and ``toPandas``
        reads both as NaN; the Spark cube sums the two rows into one slice,
        as the in-memory cube does, rather than keeping either row alone."""
        import pandas as pd

        rows = [(1, float("nan"), 1.0), (1, None, 2.0), (2, float("nan"), 4.0), (2, 1.5, 8.0)]
        rel = pd.DataFrame(rows, columns=["t", "a", "v"])
        sm_s = series_matrix(spark.createDataFrame(rows, "t int, a double, v double"), "t", ["a"], "v")
        sm_p = series_matrix_pandas(rel, "t", ["a"], "v")
        assert sm_s.labels == sm_p.labels
        np.testing.assert_array_equal(sm_s.S, sm_p.S)
        np.testing.assert_array_equal(sm_s.S.sum(axis=0), sm_s.total)


def test_time_gap_is_absent_from_the_axis(spark):
    """A time value with no rows is not on the time axis of either cube path
    (it is not read as a zero column); both paths agree with DuckDB."""
    import pandas as pd

    rel = pd.DataFrame(
        {"t": [1, 1, 2, 5, 5], "a": ["x", "y", "x", "x", "y"], "v": [1.0, 2.0, 3.0, 4.0, 5.0]}
    )
    expected = _duckdb_cube(rel, ["a"], beta_max=1)
    sdf = spark.createDataFrame(rel, "t int, a string, v double")
    for sm in (
        series_matrix(sdf, "t", ["a"], "v", beta_max=1),
        series_matrix_pandas(rel, "t", ["a"], "v", beta_max=1),
    ):
        assert sm.times == [1, 2, 5]
        assert {e: list(row) for e, row in zip(sm.labels, sm.S)} == expected
        np.testing.assert_array_equal(sm.total, [3.0, 3.0, 9.0])


class TestCollectedAsBuilt:
    def test_series_matrix_collects_the_cube_unsorted(self, spark, synth_rel, monkeypatch):
        """``series_matrix`` collects the cube with no sort and no range
        exchange (``to_matrix`` orders the axis itself); the presentation
        view ``candidate_series`` keeps its sort by time."""
        from repro.core import precompute

        collected = []
        collect = precompute.to_pandas

        def capture(df):
            collected.append(df)
            return collect(df)

        monkeypatch.setattr(precompute, "to_pandas", capture)
        sdf = spark.createDataFrame(synth_rel)
        series_matrix(sdf, "T", ["category"], "sales")
        (cube,) = collected
        plan = cube._jdf.queryExecution().executedPlan().toString()
        assert "Sort" not in plan and "rangepartitioning" not in plan, plan

        view = candidate_series(sdf, "T", ["category"], "sales")
        plan = view._jdf.queryExecution().executedPlan().toString()
        assert "Sort" in plan and "rangepartitioning" in plan, plan


@pytest.mark.parametrize(
    "kind, schema",
    [("str", "t string, a string, v double"), ("int", "t int, a string, v double")],
)
@pytest.mark.parametrize("path", ["spark", "pandas"])
def test_null_time_is_an_error(request, path, kind, schema):
    """A NULL time value has no place on the time axis: both cube paths
    raise the same ``ValueError``, for a string and an integer time column."""
    import pandas as pd

    t = ["2020-01", None, "2020-02"] if kind == "str" else [1, None, 2]
    a, v = ["x", "y", "x"], [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="time column 't' holds NULL"):
        if path == "spark":
            sdf = request.getfixturevalue("spark").createDataFrame(list(zip(t, a, v)), schema)
            series_matrix(sdf, "t", ["a"], "v")
        else:
            col = pd.array(t, dtype="Int64" if kind == "int" else object)
            series_matrix_pandas(pd.DataFrame({"t": col, "a": a, "v": v}), "t", ["a"], "v")

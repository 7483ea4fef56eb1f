"""Two-relations diff as a DataFrame op: DuckDB oracle + CA integration."""
import numpy as np
import pandas as pd
import pytest

from repro.core.diff import _signed_diff, topm_for_relations, two_relation_diff
from repro.core.precompute import _gcol, to_pandas
from repro.core.types import Explanation, pairwise_non_overlapping
from repro.datasets import synthetic
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def rels():
    sd = synthetic.generate(n=30, seed=31)
    rel = sd.relation_sum()
    return rel[rel["T"] == 25].copy(), rel[rel["T"] == 3].copy()  # test, control


class TestDiffOracle:
    def test_single_attr_vs_duckdb(self, spark, rels):
        test_pdf, ctrl_pdf = rels
        got = two_relation_diff(
            spark.createDataFrame(test_pdf),
            spark.createDataFrame(ctrl_pdf),
            ["category"],
            "sales",
            "sum",
        ).drop("__order")
        g = _gcol("category")
        sql = f"""
            WITH t AS (
                SELECT category, GROUPING(category) AS g, SUM(sales) AS v
                FROM rt GROUP BY GROUPING SETS ((), (category))
            ), c AS (
                SELECT category, GROUPING(category) AS g, SUM(sales) AS v
                FROM rc GROUP BY GROUPING SETS ((), (category))
            )
            SELECT COALESCE(t.category, c.category) AS category,
                   COALESCE(t.g, c.g) AS "{g}",
                   ABS(COALESCE(t.v, 0) - COALESCE(c.v, 0)) AS gamma,
                   CAST(SIGN(COALESCE(t.v, 0) - COALESCE(c.v, 0)) AS INT) AS tau
            FROM t FULL OUTER JOIN c
              ON t.g = c.g AND t.category IS NOT DISTINCT FROM c.category
        """
        assert_equivalent(got, sql, rt=test_pdf, rc=ctrl_pdf)

    def test_two_attr_vs_duckdb(self, spark):
        for a, b in (("a", "b"), ("my g", "sub-cat")):
            rng_rows = pd.DataFrame(
                {
                    a: list("xxyyxz"),
                    b: [1, 2, 1, 2, 1, 3],
                    "m": [10.0, 5.0, 2.0, 8.0, 1.0, 4.0],
                }
            )
            ctrl = rng_rows.iloc[:3]
            test = rng_rows.iloc[2:]
            got = two_relation_diff(
                spark.createDataFrame(test),
                spark.createDataFrame(ctrl),
                [a, b],
                "m",
                "sum",
                beta_max=2,
            ).drop("__order")
            ga, gb = _gcol(a), _gcol(b)
            sql = f"""
                WITH t AS (
                    SELECT "{a}" AS a, "{b}" AS b, GROUPING("{a}") AS ga,
                           GROUPING("{b}") AS gb, SUM(m) AS v
                    FROM rt GROUP BY GROUPING SETS ((), ("{a}"), ("{b}"), ("{a}", "{b}"))
                ), c AS (
                    SELECT "{a}" AS a, "{b}" AS b, GROUPING("{a}") AS ga,
                           GROUPING("{b}") AS gb, SUM(m) AS v
                    FROM rc GROUP BY GROUPING SETS ((), ("{a}"), ("{b}"), ("{a}", "{b}"))
                )
                SELECT COALESCE(t.a, c.a) AS "{a}", COALESCE(t.b, c.b) AS "{b}",
                       COALESCE(t.ga, c.ga) AS "{ga}", COALESCE(t.gb, c.gb) AS "{gb}",
                       ABS(COALESCE(t.v, 0) - COALESCE(c.v, 0)) AS gamma,
                       CAST(SIGN(COALESCE(t.v, 0) - COALESCE(c.v, 0)) AS INT) AS tau
                FROM t FULL OUTER JOIN c
                  ON t.ga = c.ga AND t.gb = c.gb
                 AND t.a IS NOT DISTINCT FROM c.a AND t.b IS NOT DISTINCT FROM c.b
            """
            assert_equivalent(got, sql, rt=test, rc=ctrl)

    def test_overall_row_is_total_difference(self, spark, rels):
        test_pdf, ctrl_pdf = rels
        d = two_relation_diff(
            spark.createDataFrame(test_pdf),
            spark.createDataFrame(ctrl_pdf),
            ["category"],
            "sales",
            "sum",
        )
        overall = d.filter("__order = 0").collect()[0]
        expected = test_pdf["sales"].sum() - ctrl_pdf["sales"].sum()
        assert overall["gamma"] == pytest.approx(abs(expected))
        assert overall["tau"] == (1 if expected > 0 else -1)

    def test_null_keys_vs_duckdb(self, spark):
        """NULL attribute values are explanations of their own on both sides,
        and a slice whose measure is NULL in every row counts as 0."""
        schema = "g string, h bigint, m double"
        test = pd.DataFrame(
            {
                "g": ["a", None, "b", None],
                "h": pd.array([1, 1, 2, None], dtype="Int64"),
                "m": pd.array([3.0, 5.0, None, 2.0], dtype="Float64"),
            }
        )
        ctrl = pd.DataFrame(
            {
                "g": ["a", None, "c"],
                "h": pd.array([1, 2, 2], dtype="Int64"),
                "m": pd.array([1.0, 1.0, 4.0], dtype="Float64"),
            }
        )
        t_sdf = spark.createDataFrame(test, schema)
        c_sdf = spark.createDataFrame(ctrl, schema)
        got = two_relation_diff(t_sdf, c_sdf, ["g", "h"], "m", beta_max=2)
        gg, gh = _gcol("g"), _gcol("h")
        sql = f"""
            WITH t AS (
                SELECT g, h, GROUPING(g) AS gg, GROUPING(h) AS gh, SUM(m) AS v
                FROM rt GROUP BY GROUPING SETS ((), (g), (h), (g, h))
            ), c AS (
                SELECT g, h, GROUPING(g) AS gg, GROUPING(h) AS gh, SUM(m) AS v
                FROM rc GROUP BY GROUPING SETS ((), (g), (h), (g, h))
            )
            SELECT COALESCE(t.g, c.g) AS g, COALESCE(t.h, c.h) AS h,
                   COALESCE(t.gg, c.gg) AS "{gg}", COALESCE(t.gh, c.gh) AS "{gh}",
                   ABS(COALESCE(t.v, 0) - COALESCE(c.v, 0)) AS gamma,
                   CAST(SIGN(COALESCE(t.v, 0) - COALESCE(c.v, 0)) AS INT) AS tau
            FROM t FULL OUTER JOIN c
              ON t.gg = c.gg AND t.gh = c.gh
             AND t.g IS NOT DISTINCT FROM c.g AND t.h IS NOT DISTINCT FROM c.h
        """
        assert_equivalent(got.drop("__order"), sql, rt=test, rc=ctrl)
        b_slice = got.filter(f"g = 'b' AND {gh} = 1").collect()
        assert [(r["gamma"], r["tau"]) for r in b_slice] == [(0.0, 0)]
        out = topm_for_relations(t_sdf, c_sdf, ["g", "h"], "m", beta_max=2, m=3)
        assert out == [
            (Explanation.of(h=1), 7.0, 1),
            (Explanation.of(h=2), 5.0, -1),
            (Explanation.of(h=None), 2.0, 1),
        ]

    def test_integer_keys_label_as_integers(self, spark):
        """The top list of a diff over an integer attribute labels its slices
        with integer keys, as DuckDB does: ``h=1``, not ``h=1.0``."""
        import duckdb

        schema = "g string, h bigint, m double"
        h_t, h_c = pd.array([1, 2, None], dtype="Int64"), pd.array([1, 2, 2], dtype="Int64")
        test = pd.DataFrame({"g": ["a", "a", "b"], "h": h_t, "m": [9.0, 1.0, 4.0]})
        ctrl = pd.DataFrame({"g": ["a", "b", "b"], "h": h_c, "m": [1.0, 3.0, 2.0]})
        out = topm_for_relations(
            spark.createDataFrame(test, schema),
            spark.createDataFrame(ctrl, schema),
            ["g", "h"],
            "m",
            beta_max=2,
            m=3,
        )
        duck = duckdb.connect()
        try:
            duck.register("rt", test)
            duck.register("rc", ctrl)
            rows = duck.execute(
                """
                SELECT g, h, GROUPING(g), GROUPING(h), SUM(v)
                FROM (SELECT g, h, m AS v FROM rt UNION ALL SELECT g, h, -m FROM rc)
                GROUP BY GROUPING SETS ((g), (h), (g, h))
                """
            ).fetchall()
        finally:
            duck.close()
        want = {}
        for g, h, gg, gh, v in rows:
            preds = tuple((a, x) for a, x, flag in (("g", g, gg), ("h", h, gh)) if flag == 0)
            want[Explanation(preds).label] = (abs(v), int(np.sign(v)))
        assert [e.label for e, _, _ in out] == ["g=a", "g=b & h=2", "g=b & h=None"]
        for e, gamma, tau in out:
            assert want[e.label] == (gamma, tau)

    @pytest.mark.parametrize("empty", ["test", "control"])
    def test_one_side_empty(self, spark, rels, empty):
        """With no rows on one side the diff is the other side's cube, signed:
        the order-0 row included, and the top list is that side's top slices."""
        test_pdf, ctrl_pdf = rels
        test, ctrl = spark.createDataFrame(test_pdf), spark.createDataFrame(ctrl_pdf)
        if empty == "test":
            test, side, sign = test.limit(0), ctrl_pdf, -1
        else:
            ctrl, side, sign = ctrl.limit(0), test_pdf, 1
        d = two_relation_diff(test, ctrl, ["category"], "sales")
        overall = d.filter("__order = 0").collect()
        assert len(overall) == 1
        assert overall[0]["gamma"] == pytest.approx(abs(side["sales"].sum()))
        assert overall[0]["tau"] == sign * np.sign(side["sales"].sum())
        out = topm_for_relations(test, ctrl, ["category"], "sales", m=2)
        per_cat = side.groupby("category")["sales"].sum()
        top = per_cat.abs().sort_values(ascending=False).index[:2]
        assert [e.preds[0][1] for e, g, t in out] == list(top)
        assert [g for e, g, t in out] == pytest.approx(list(per_cat[top].abs()))
        assert [t for e, g, t in out] == [sign * int(np.sign(per_cat[c])) for c in top]


class TestTopM:
    def test_topm_matches_manual(self, spark, rels):
        test_pdf, ctrl_pdf = rels
        out = topm_for_relations(
            spark.createDataFrame(test_pdf),
            spark.createDataFrame(ctrl_pdf),
            ["category"],
            "sales",
            m=2,
        )
        per_cat = (
            test_pdf.groupby("category")["sales"].sum()
            - ctrl_pdf.groupby("category")["sales"].sum()
        ).abs().sort_values(ascending=False)
        assert [e.preds[0][1] for e, g, t in out] == list(per_cat.index[:2])
        assert [g for e, g, t in out] == pytest.approx(list(per_cat.iloc[:2]))

    def test_topm_signs(self, spark):
        for g in ("g", "my g", "sub-cat"):
            test = spark.createDataFrame(pd.DataFrame({g: ["a", "b"], "m": [10.0, 1.0]}))
            ctrl = spark.createDataFrame(pd.DataFrame({g: ["a", "b"], "m": [1.0, 12.0]}))
            rows = two_relation_diff(test, ctrl, [g], "m").toPandas()
            got = {(r[g], r["__order"]): (r["gamma"], r["tau"]) for _, r in rows.iterrows()}
            assert got == {("a", 1): (9.0, 1), ("b", 1): (11.0, -1), (None, 0): (2.0, -1)}
            out = topm_for_relations(test, ctrl, [g], "m", m=2)
            d = {e.preds: (gamma, t) for e, gamma, t in out}
            assert d == {((g, "b"),): (11.0, -1), ((g, "a"),): (9.0, 1)}


class TestValidation:
    """Bad arguments raise before any Spark call: the relations here are not
    DataFrames, so reaching Spark would fail with another error."""

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"m": 0}, "m"),
            ({"m": -1}, "m"),
            ({"beta_max": 0}, "beta_max"),
            ({"agg": "avg"}, "agg"),
        ],
    )
    def test_topm_for_relations(self, kwargs, name):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            topm_for_relations(object(), object(), ["g"], "m", **kwargs)

    @pytest.mark.parametrize("kwargs, name", [({"beta_max": 0}, "beta_max"), ({"agg": "max"}, "agg")])
    def test_two_relation_diff(self, kwargs, name):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            two_relation_diff(object(), object(), ["g"], "m", **kwargs)


class TestCount:
    def test_count_vs_duckdb(self, spark):
        """COUNT(m) counts the non-NULL measures of a slice: a NULL measure row
        is skipped, and a slice with only NULL measures counts 0."""
        import duckdb

        schema = "g string, h bigint, m double"
        test = pd.DataFrame(
            {
                "g": ["a", "a", "b", "b", "c", None],
                "h": pd.array([1, 2, 1, None, 2, 2], dtype="Int64"),
                "m": pd.array([3.0, None, 2.0, 7.0, None, 1.0], dtype="Float64"),
            }
        )
        ctrl = pd.DataFrame(
            {
                "g": ["a", "b", "b", "b", None],
                "h": pd.array([1, 1, 2, 2, 1], dtype="Int64"),
                "m": pd.array([1.0, 1.0, None, 4.0, 5.0], dtype="Float64"),
            }
        )
        t_sdf = spark.createDataFrame(test, schema)
        c_sdf = spark.createDataFrame(ctrl, schema)
        gg, gh = _gcol("g"), _gcol("h")
        cube = """
            SELECT g, h, GROUPING(g) AS gg, GROUPING(h) AS gh, COUNT(m) AS v
            FROM {} GROUP BY GROUPING SETS ((), (g), (h), (g, h))
        """
        sql = f"""
            WITH t AS ({cube.format("rt")}), c AS ({cube.format("rc")})
            SELECT COALESCE(t.g, c.g) AS g, COALESCE(t.h, c.h) AS h,
                   COALESCE(t.gg, c.gg) AS "{gg}", COALESCE(t.gh, c.gh) AS "{gh}",
                   ABS(COALESCE(t.v, 0) - COALESCE(c.v, 0)) AS gamma,
                   CAST(SIGN(COALESCE(t.v, 0) - COALESCE(c.v, 0)) AS INT) AS tau,
                   2 - COALESCE(t.gg, c.gg) - COALESCE(t.gh, c.gh) AS __order
            FROM t FULL OUTER JOIN c
              ON t.gg = c.gg AND t.gh = c.gh
             AND t.g IS NOT DISTINCT FROM c.g AND t.h IS NOT DISTINCT FROM c.h
        """
        got = two_relation_diff(t_sdf, c_sdf, ["g", "h"], "m", agg="count", beta_max=2)
        assert_equivalent(got, sql, rt=test, rc=ctrl)

        duck = duckdb.connect()
        try:
            duck.register("rt", test)
            duck.register("rc", ctrl)
            rows = duck.execute(f'SELECT g, h, "{gg}", "{gh}", gamma, tau FROM ({sql})').fetchall()
        finally:
            duck.close()
        want = {}
        for g, h, fg, fh, gamma, tau in rows:
            preds = tuple((a, x) for a, x, flag in (("g", g, fg), ("h", h, fh)) if flag == 0)
            want[Explanation(preds)] = (gamma, tau)
        out = topm_for_relations(t_sdf, c_sdf, ["g", "h"], "m", agg="count", beta_max=2, m=3)
        # Six candidates have gamma 1 (h=1, h=None, g=b & h=None, g=b & h=2,
        # g=None & h=1, g=None & h=2) and at most three of them do not overlap.
        assert len(out) == 3 and sum(g for _, g, _ in out) == 3.0
        assert pairwise_non_overlapping(e for e, _, _ in out)
        for e, gamma, tau in out:
            assert want[e] == (gamma, tau)
        assert want[Explanation.of(g="c")] == (0, 0)  # only a NULL measure


def _seeded_relation(seed: int, n: int) -> pd.DataFrame:
    """Rows over a string key with NULLs, an integer key with NULLs and a
    measure with NULLs; slice g=z holds only NULL measures."""
    rng = np.random.default_rng(seed)
    g = rng.choice(np.array(["x", "y", "z", None], dtype=object), n)
    h = pd.array(rng.integers(1, 4, n), dtype="Int64")
    h[rng.random(n) < 0.2] = pd.NA
    m = pd.array(np.round(rng.uniform(-5.0, 20.0, n), 2), dtype="Float64")
    m[(rng.random(n) < 0.15) | (g == "z")] = pd.NA
    return pd.DataFrame({"g": g, "h": h, "m": m})


class TestFastPathMatchesOracle:
    """``topm_for_relations`` diffs two collected cubes on the driver; its
    signed diff equals ``two_relation_diff``'s Spark diff for every
    explanation, the order-0 row included."""

    @pytest.mark.parametrize("agg", ["sum", "count"])
    @pytest.mark.parametrize("empty", [None, "test", "control", "both"])
    def test_signed_diff(self, spark, agg, empty):
        schema = "g string, h bigint, m double"
        test = spark.createDataFrame(_seeded_relation(7, 40), schema)
        ctrl = spark.createDataFrame(_seeded_relation(8, 30), schema)
        if empty in ("test", "both"):
            test = test.limit(0)
        if empty in ("control", "both"):
            ctrl = ctrl.limit(0)
        attrs = ["g", "h"]
        labels, d, overall = _signed_diff(test, ctrl, attrs, "m", agg, 2)
        got = {e: (abs(v), int(np.sign(v))) for e, v in zip(labels, d)}

        rows = to_pandas(two_relation_diff(test, ctrl, attrs, "m", agg, beta_max=2))
        want, want_overall = {}, []
        for r in rows.to_dict("records"):
            preds = tuple((a, r[a]) for a in attrs if r[_gcol(a)] == 0)
            if preds:
                want[Explanation(preds)] = (r["gamma"], r["tau"])
            else:
                want_overall.append((r["gamma"], r["tau"]))

        assert set(got) == set(want)
        for e, (gamma, tau) in want.items():
            assert got[e][1] == tau, e
            assert got[e][0] == pytest.approx(gamma, rel=1e-12, abs=0.0), e
        for e in labels:
            for _, v in e.preds:
                assert v is None or isinstance(v, str) or type(v) is int, e
        if empty == "both":
            assert (labels, want_overall, overall) == ([], [], 0.0)
            assert topm_for_relations(test, ctrl, attrs, "m", agg, beta_max=2) == []
        else:
            assert len(want_overall) == 1
            assert int(np.sign(overall)) == want_overall[0][1]
            assert abs(overall) == pytest.approx(want_overall[0][0], rel=1e-12, abs=0.0)
            assert any(e.label.startswith("h=1") for e in labels)
            assert Explanation.of(g="z") in got

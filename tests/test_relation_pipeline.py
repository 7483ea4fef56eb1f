"""Full Spark path: relation DataFrame -> GROUPING SETS cube -> evolving
explanations, on the synthetic and real-like generators."""
import numpy as np
import pytest

from repro.core import pipeline
from repro.core.pipeline import Config, explain_relation, explain_series
from repro.datasets import covid_like, synthetic


class TestExplainRelation:
    def test_synthetic_matches_series_path(self, spark):
        sd = synthetic.generate(n=50, snr_db=45, seed=41)
        sdf = spark.createDataFrame(sd.relation_sum())
        cfg = Config(K=sd.gt_k, use_filter=False, use_sketch=False)
        rel_res = explain_relation(sdf, "T", ["category"], "sales", "sum", cfg)
        ser_res = explain_series(sd.S, sd.labels, list(sd.attrs), sd.total, cfg)
        assert rel_res.cuts == ser_res.cuts
        assert rel_res.K == ser_res.K
        assert rel_res.total_variance == pytest.approx(ser_res.total_variance)
        for a, b in zip(rel_res.segments, ser_res.segments):
            assert [x[0] for x in a.explanations] == [x[0] for x in b.explanations]

    def test_count_aggregate(self, spark):
        sd = synthetic.generate(n=25, seed=42)
        sdf = spark.createDataFrame(sd.relation_count(scale=0.05))
        res = explain_relation(
            sdf, "T", ["category"], "sales", "count", Config(K=2, use_sketch=False)
        )
        assert res.K == 2
        assert len(res.segments) == 2

    def test_covid_small_relation(self, spark):
        cv = covid_like.generate(n=120)
        sdf = spark.createDataFrame(cv.relation())
        res = explain_relation(
            sdf, "date", ["state"], "daily_confirmed", "sum", Config(K=cv.gt_k)
        )
        assert res.K == cv.gt_k
        # every planted cut recovered within a few days
        for g in cv.gt_cuts:
            assert min(abs(c - g) for c in res.cuts) <= 4

    def test_spark_ca_dispatch_equivalence(self, spark, monkeypatch):
        """Forcing the distributed CA path yields identical results."""
        sd = synthetic.generate(n=40, snr_db=45, seed=43)
        cfg = Config(K=3, use_sketch=False)
        a = explain_series(sd.S, sd.labels, list(sd.attrs), sd.total, cfg)
        monkeypatch.setattr(pipeline, "SPARK_CA_MIN_SEGMENTS", 1)
        b = explain_series(sd.S, sd.labels, list(sd.attrs), sd.total, cfg, spark=spark)
        assert a.cuts == b.cuts
        assert a.total_variance == pytest.approx(b.total_variance)

    def test_timings_include_spark_precompute(self, spark):
        sd = synthetic.generate(n=25, seed=44)
        sdf = spark.createDataFrame(sd.relation_sum())
        res = explain_relation(sdf, "T", ["category"], "sales", "sum", Config(K=2))
        assert res.timings["precompute"] > 0
        assert res.timings["total"] >= res.timings["precompute"]

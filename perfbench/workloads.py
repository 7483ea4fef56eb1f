"""The benchmark's three workloads, their output checks and exactness oracles.

Each workload makes its inputs from the seed alone, then serves its ``ops``
in a closed loop: ``explain`` (the evolving explanations of the KPI) on every
workload, and on ``tpch-relation`` also ``diff`` (the top-m non-overlapping
explanations of the difference between two relations, paper Sec. 3.1.1).

- ``liquor``: Liquor-like, eps = 2481 (1763 after the support filter). The
  large-eps regime where Cascading Analysts (CA) and guess-and-verify rebuild
  of the explanation space dominate a call.
- ``long-series``: synthetic n = 800, eps = 3 (a Fig. 17 point). Many
  segments over a tiny space: sketch phase I, segment costs and the K-seg DP
  dominate, per-node CA work is negligible.
- ``tpch-relation``: TPC-H-lite SF = 0.1 lineitem join part on Spark. The
  only workload where the Spark cube and the ``mapInPandas`` CA do the work;
  its diff op is the Spark two-relation diff (cube both years, full-outer
  join).
"""
from __future__ import annotations

import math
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core import cascading, space
from repro.core.filtering import support_mask
from repro.core.kseg import all_segments
from repro.core.pipeline import Config, ExplainResult, _aligned_matrix, explain_series
from repro.core.precompute import SeriesMatrix, series_matrix_pandas
from repro.core.toplists import object_segments
from repro.core.types import Explanation, pairwise_non_overlapping

M = 3
ORACLE_GV_SEGMENTS = 32  # sampled segments for guess-and-verify vs plain CA
ORACLE_SPARK_SEGMENTS = 48  # sampled centroid segments for Spark vs local CA

DiffResult = List[Tuple[Explanation, float, int]]


def parse_label(label: str) -> Explanation:
    """Explanation from its ``A=a & B=b`` label. Values come back as strings;
    the overlap test only compares values of one attribute for equality,
    which ``str`` preserves for the int and string values used here."""
    return Explanation(tuple(tuple(p.split("=", 1)) for p in label.split(" & ")))


def check_explain(res: ExplainResult, k_max: int) -> List[str]:
    """Structural checks that hold for any input."""
    out = []
    n, cuts = res.n, res.cuts
    if cuts != sorted(cuts) or any(not 1 <= c <= n - 2 for c in cuts):
        out.append(f"interior cuts {cuts} not sorted within [1, {n - 2}]")
    if not 1 <= res.K <= k_max or res.K != len(cuts) + 1:
        out.append(f"K = {res.K} with {len(cuts)} cuts, k_max = {k_max}")
    segs = [(s.start, s.end) for s in res.segments]
    bounds = [0, *cuts, n - 1]
    if segs != list(zip(bounds[:-1], bounds[1:])):
        out.append(f"segments {segs} do not cover [0, {n - 1}] at the cuts")
    for s in res.segments:
        if not pairwise_non_overlapping(parse_label(lbl) for lbl, _, _ in s.explanations):
            out.append(f"segment ({s.start}, {s.end}) has overlapping explanations")
    return out


def check_diff(res: DiffResult) -> List[str]:
    out = []
    if not 1 <= len(res) <= M:
        out.append(f"diff returned {len(res)} explanations")
    if not pairwise_non_overlapping(e for e, _, _ in res):
        out.append("diff explanations overlap")
    return out


def digest_explain(res: ExplainResult) -> Dict:
    """What the reference records of an explain at the reference seed."""
    return {
        "K": res.K,
        "cuts": list(res.cuts),
        "total_variance": res.total_variance,
        "segments": [[[lbl, sign] for lbl, sign, _ in s.explanations] for s in res.segments],
    }


def digest_diff(res: DiffResult) -> List:
    return [[e.label, tau] for e, _, tau in res]


def compare_explain(res: ExplainResult, ref: Dict) -> List[str]:
    got = digest_explain(res)
    out = [f"{k}: {got[k]} != reference {ref[k]}" for k in ("K", "cuts", "segments") if got[k] != ref[k]]
    if not math.isclose(got["total_variance"], ref["total_variance"], rel_tol=1e-9):
        out.append(f"total_variance {got['total_variance']} != {ref['total_variance']}")
    return out


def compare_diff(res: DiffResult, ref: List) -> List[str]:
    got = digest_diff(res)
    return [] if got == ref else [f"diff {got} != reference {ref}"]


def explain_space(cube: SeriesMatrix, attrs: Sequence[str]):
    """The filtered space and aligned matrix ``explain_series`` builds."""
    cfg = Config()
    mask = support_mask(cube.S, cube.total, cfg.filter_ratio)
    labels = [e for e, k in zip(cube.labels, mask) if k]
    sp = space.ExplanationSpace(labels, attrs)
    return sp, _aligned_matrix(cube.S[mask], labels, sp)


def gv_oracle(sp, S: np.ndarray, positions: Sequence[int], seed: int) -> List[str]:
    """Guess-and-verify returns the same top lists as plain CA on the full
    (filtered) space, for a seeded sample of the object and centroid
    segments of an explain (Eq. 12)."""
    m, m_bar0 = Config().m, Config().gv_m_bar0
    segs = object_segments(S.shape[1]) + all_segments(positions)
    rng = np.random.default_rng(seed)
    out = []
    for i in rng.choice(len(segs), min(ORACLE_GV_SEGMENTS, len(segs)), replace=False):
        s, e = segs[i]
        g = np.abs(S[:, e] - S[:, s])
        gv = cascading.topm_guess_verify(sp, g, m, m_bar0)
        full = cascading.topm_nonoverlapping(sp, g, m)
        # SUM is additive, so different non-overlapping sets can tie on the
        # total; exactness means the same optimum, reached by a valid list.
        tol = 1e-9 * max(1.0, full.best[m])
        valid = (
            abs(sum(gv.gammas) - gv.best[m]) <= tol
            and all(sp.takeable[j] for j in gv.ids)
            and pairwise_non_overlapping(sp.explanations[j] for j in gv.ids)
        )
        if not (valid and abs(gv.best[m] - full.best[m]) <= tol):
            out.append(
                f"segment ({s}, {e}): guess-and-verify {gv.ids} scores {gv.best[m]},"
                f" CA {full.ids} scores {full.best[m]}"
            )
    return out


class Workload:
    """Defaults shared by the workloads."""

    name: str
    default_seed: int
    uses_spark = False
    ops: Tuple[str, ...] = ("explain",)  # one round of the closed loop, in order
    setup_builds = 3  # input builds in set-up; setup_s counts their median
    reference = None  # the recorded outputs, at the reference seed only

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rows = 0
        self.pandas_cube_s: List[float] = []

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def planted(self, res: ExplainResult) -> List[str]:
        """Checks of a planted ground truth at the reference seed."""
        return []

    def check(self, kind: str, out) -> List[str]:
        """Problems with one op's output; empty when it is correct."""
        ref = self.reference
        if kind == "explain":
            problems = check_explain(out, Config().k_max)
            if ref is not None:
                problems += compare_explain(out, ref["explain"]) + self.planted(out)
        else:
            problems = check_diff(out)
            if ref is not None:
                problems += compare_diff(out, ref["diff"])
        return problems


class SeriesWorkload(Workload):
    """A pandas cube built in set-up, explained in memory, no Spark."""

    attrs: Tuple[str, ...]
    cube: SeriesMatrix

    def _set_cube(self, relation, time_col: str, measure: str) -> None:
        self.rows = len(relation)
        t = time.perf_counter()
        self.cube = series_matrix_pandas(relation, time_col, self.attrs, measure, beta_max=3)
        self.pandas_cube_s.append(time.perf_counter() - t)

    def explain(self) -> ExplainResult:
        c = self.cube
        return explain_series(c.S, c.labels, self.attrs, c.total, Config(), times=c.times)

    def oracles(self, res: ExplainResult) -> Dict[str, List[str]]:
        sp, S = explain_space(self.cube, self.attrs)
        return {"gv_equals_ca": gv_oracle(sp, S, res.positions, self.seed)}


class Liquor(SeriesWorkload):
    name = "liquor"
    default_seed = 13  # the generator's default; its planted cuts are required

    def build(self) -> None:
        from repro.datasets import liquor_like

        data = liquor_like.generate(n=128, n_combos=600, seed=self.seed)
        self.attrs = data.attrs
        self._set_cube(data.relation_df, "date", "bottles")

    def planted(self, res: ExplainResult) -> List[str]:
        from repro.datasets.liquor_like import GT_CUTS

        if res.K == 7 and res.cuts == GT_CUTS:
            return []
        return [f"K = {res.K}, cuts {res.cuts}; planted K = 7, cuts {GT_CUTS}"]


class LongSeries(SeriesWorkload):
    name = "long-series"
    default_seed = 0

    def build(self) -> None:
        from repro.datasets import synthetic

        data = synthetic.generate(n=800, snr_db=40, seed=self.seed)
        self.attrs = data.attrs
        self._set_cube(data.relation_sum(), "T", "sales")


class TpchRelation(Workload):
    """Spark ``local[k]``: lineitem join part cached in set-up; explain the
    monthly revenue, and diff year 1997 against 1996."""

    name = "tpch-relation"
    default_seed = 0
    uses_spark = True
    ops = ("explain", "diff")
    # One build takes about 13 s (a cold JVM); repeating it does not fit the
    # run budget.
    setup_builds = 1
    attrs = ("l_returnflag", "l_linestatus", "p_brand")
    SF = 0.1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.spark = None
        self.df = None
        self.cube: SeriesMatrix = None  # type: ignore[assignment]

    def open(self) -> None:
        from pyspark.sql import SparkSession

        self.spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", "64")  # as conftest.py
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .config("spark.ui.showConsoleProgress", "false")
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")

    def close(self) -> None:
        """Stop the session, then the JVM, and wait for it to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        self.spark.stop()
        gw = SparkContext._gateway
        if gw is not None:
            gw.shutdown()
            proc = getattr(gw, "proc", None)
            if proc is not None:
                proc.stdin.close()
                proc.wait(timeout=60)
            SparkContext._gateway = None
            SparkContext._jvm = None

    def build(self) -> None:
        from pyspark.sql import functions as F

        from repro.synth_data import lineitem, part

        li = lineitem(self.spark, sf=self.SF, seed=self.seed)
        pt = part(self.spark, sf=self.SF, seed=self.seed + 5)
        df = (
            li.join(pt, F.col("l_partkey") == F.col("p_partkey"))
            .withColumn("month", F.date_format("l_shipdate", "yyyy-MM"))
            .withColumn("year", F.year("l_shipdate"))
            .withColumn("revenue", F.col("l_extendedprice") * (1 - F.col("l_discount")))
            .select("month", "year", *self.attrs, "revenue")
        )
        df.cache()
        self.rows = df.count()
        if self.df is not None:
            self.df.unpersist()
        self.df = df
        self.cube = None

    def explain(self) -> ExplainResult:
        from repro.core import precompute
        from repro.core.pipeline import explain_relation

        def run() -> ExplainResult:
            return explain_relation(self.df, "month", self.attrs, "revenue", cfg=Config(beta_max=3))

        if self.cube is not None:
            return run()
        # The first call (the warm-up) keeps the Spark cube it builds, so the
        # oracles check the very matrix the explain used without a rebuild.
        build = precompute.series_matrix

        def keep(*args, **kwargs):
            self.cube = build(*args, **kwargs)
            return self.cube

        precompute.series_matrix = keep
        try:
            return run()
        finally:
            precompute.series_matrix = build

    def diff(self) -> DiffResult:
        from pyspark.sql import functions as F

        from repro.core.diff import topm_for_relations

        return topm_for_relations(
            self.df.filter(F.col("year") == 1997),
            self.df.filter(F.col("year") == 1996),
            self.attrs,
            "revenue",
            beta_max=3,
            m=M,
        )

    def oracles(self, res: ExplainResult) -> Dict[str, List[str]]:
        from repro.core.spark_ca import compute_toplists_spark
        from repro.core.toplists import compute_toplists

        cube = self.cube
        pdf = self.df.select("month", *self.attrs, "revenue").toPandas()
        t = time.perf_counter()
        ref = series_matrix_pandas(pdf, "month", self.attrs, "revenue", beta_max=3)
        self.pandas_cube_s.append(time.perf_counter() - t)
        cube_problems = _compare_cubes(cube, ref)

        m = Config().m
        sp, S = explain_space(cube, self.attrs)
        segs = all_segments(res.positions)
        rng = np.random.default_rng(self.seed)
        pick = sorted(rng.choice(len(segs), min(ORACLE_SPARK_SEGMENTS, len(segs)), replace=False))
        sample = [segs[i] for i in pick]
        dist = compute_toplists_spark(self.spark, S, sp, sample, m)
        local = compute_toplists(S, sp, sample, m)
        spark_problems = [
            f"segment {tuple(sample[r])}: Spark {dist.ids[r].tolist()} != local {local.ids[r].tolist()}"
            for r in range(len(sample))
            if not (
                np.array_equal(dist.ids[r], local.ids[r])
                and np.array_equal(dist.signs[r], local.signs[r])
                and np.allclose(dist.gammas[r], local.gammas[r], rtol=1e-12, atol=0.0)
            )
        ]
        return {
            "gv_equals_ca": gv_oracle(sp, S, res.positions, self.seed),
            "spark_cube_equals_pandas": cube_problems,
            "spark_ca_equals_local": spark_problems,
        }


def _compare_cubes(got: SeriesMatrix, ref: SeriesMatrix) -> List[str]:
    """Same times, same explanations and the same series up to float
    summation order."""
    if [str(t) for t in got.times] != [str(t) for t in ref.times]:
        return ["time axes differ"]
    row = {e: i for i, e in enumerate(ref.labels)}
    if set(row) != set(got.labels):
        return [f"explanation sets differ: {len(got.labels)} vs {len(ref.labels)}"]
    order = [row[e] for e in got.labels]
    out = []
    if not np.allclose(got.S, ref.S[order], rtol=1e-9, atol=1e-6):
        out.append("series differ")
    if not np.allclose(got.total, ref.total, rtol=1e-9, atol=1e-6):
        out.append("overall series differ")
    return out


WORKLOADS = {w.name: w for w in (Liquor, LongSeries, TpchRelation)}

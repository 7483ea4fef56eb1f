"""Distributed Cascading Analysts (mapInPandas) vs the local implementation."""
import numpy as np
import pytest
from pyspark.broadcast import Broadcast
from pyspark.errors import PythonException

from repro.core.space import ExplanationSpace
from repro.core.spark_ca import compute_toplists_spark
from repro.core.toplists import compute_toplists
from repro.core.types import Explanation


def _instance(seed=0, eps=8, n=25):
    rng = np.random.default_rng(seed)
    S = rng.uniform(0, 100, (eps, n))
    labels = [Explanation.of(k=i) for i in range(eps)]
    space = ExplanationSpace(labels, ["k"])
    segs = [(s, e) for s in range(n - 1) for e in range(s + 1, n)]
    return S, space, segs


@pytest.mark.parametrize("use_gv", [False, True])
def test_spark_matches_local(spark, use_gv):
    S, space, segs = _instance()
    local = compute_toplists(S, space, segs, 3, use_gv=use_gv)
    dist = compute_toplists_spark(spark, S, space, segs, 3, use_gv=use_gv)
    np.testing.assert_array_equal(local.ids, dist.ids)
    np.testing.assert_allclose(local.gammas, dist.gammas)
    np.testing.assert_array_equal(local.signs, dist.signs)
    np.testing.assert_allclose(local.idcg, dist.idcg)


def test_spark_multiattr_space(spark):
    rng = np.random.default_rng(1)
    labels = [
        Explanation.of(a=i) for i in range(4)
    ] + [Explanation.of(a=i, b=j) for i in range(4) for j in range(3)]
    space = ExplanationSpace(labels, ["a", "b"])
    S = rng.uniform(0, 10, (space.n_nodes, 15))
    segs = [(s, e) for s in range(14) for e in range(s + 1, 15)]
    local = compute_toplists(S, space, segs, 3)
    dist = compute_toplists_spark(spark, S, space, segs, 3)
    np.testing.assert_array_equal(local.ids, dist.ids)


def test_segment_row_alignment(spark):
    S, space, segs = _instance(seed=2, n=10)
    segs = segs[::-1]  # scrambled input order must be preserved
    dist = compute_toplists_spark(spark, S, space, segs, 2)
    for r, seg in enumerate(segs):
        assert dist.row(seg) == r


def test_padding_matches_local(spark):
    """Fewer than m explanations (2 candidates, m=3) and a flat segment with
    all-zero gamma come back padded and typed exactly as locally."""
    S = np.array([[5.0, 5.0, 9.0, 1.0], [2.0, 2.0, 0.0, 4.0]])
    space = ExplanationSpace([Explanation.of(k=i) for i in range(2)], ["k"])
    segs = [(0, 1), (0, 2), (1, 3), (0, 3)]  # (0, 1) is flat
    for use_gv in (False, True):
        local = compute_toplists(S, space, segs, 3, use_gv=use_gv)
        dist = compute_toplists_spark(spark, S, space, segs, 3, use_gv=use_gv)
        assert (local.ids == -1).any()
        for name in ("ids", "gammas", "signs", "idcg"):
            a, b = getattr(local, name), getattr(dist, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("n_segs", [0, 1])
def test_fewer_segments_than_partitions(spark, n_segs):
    """0 or 1 segments over defaultParallelism range partitions: empty
    partitions yield nothing, and the arrays equal the local ones, dtypes
    included."""
    S, space, segs = _instance(seed=3, n=6)
    segs = segs[3 : 3 + n_segs]
    local = compute_toplists(S, space, segs, 3)
    dist = compute_toplists_spark(spark, S, space, segs, 3)
    for name in ("segments", "ids", "gammas", "signs", "idcg"):
        a, b = getattr(local, name), getattr(dist, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_broadcast_released_on_worker_error(spark, monkeypatch):
    """An out-of-range segment (e = n) fails on the executor; the error
    reaches the caller and the broadcast is still unpersisted."""
    S, space, segs = _instance(seed=4, n=6)
    released = []
    unpersist = Broadcast.unpersist

    def spy(self, *args, **kwargs):
        released.append(self)
        return unpersist(self, *args, **kwargs)

    monkeypatch.setattr(Broadcast, "unpersist", spy)
    with pytest.raises(PythonException, match="IndexError"):
        compute_toplists_spark(spark, S, space, [*segs, (0, S.shape[1])], 3)
    assert len(released) == 1

"""Matrix-path end-to-end pipeline: recovery of planted segmentations."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filtering import support_mask
from repro.core.pipeline import Config, ExplainResult, explain_series, moving_average
from repro.core.types import Explanation
from repro.datasets import synthetic


def _planted(n=60, seed=0, noise=1.0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    a = np.where(t < 20, 100 + 5 * t, 200 - 2 * (t - 20))
    a[40:] = a[39]
    b = np.where(t < 40, 50 + t, 90 + 6 * (t - 40))
    c = np.full(n, 30.0)
    S = np.vstack([a, b, c]) + rng.normal(0, noise, (3, n))
    labels = [Explanation.of(cat=x) for x in "abc"]
    return S, labels, S.sum(axis=0)


class TestPlantedRecovery:
    def test_exact_k(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(K=3, use_sketch=False))
        assert res.K == 3
        assert all(abs(c - g) <= 2 for c, g in zip(res.cuts, [20, 40]))

    def test_auto_k(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config())
        assert res.K == 3

    def test_segment_explanations(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(K=3, use_sketch=False))
        top1 = [seg.explanations[0] for seg in res.segments]
        assert top1[0][0] == "cat=a" and top1[0][1] == 1
        assert top1[1][0] == "cat=a" and top1[1][1] == -1
        assert top1[2][0] == "cat=b" and top1[2][1] == 1

    @pytest.mark.parametrize("use_sketch", [False, True])
    @pytest.mark.parametrize("use_gv", [False, True])
    def test_optimizations_preserve_recovery(self, use_sketch, use_gv):
        S, labels, total = _planted()
        res = explain_series(
            S, labels, ["cat"], total,
            Config(K=3, use_sketch=use_sketch, use_gv=use_gv),
        )
        assert all(abs(c - g) <= 3 for c, g in zip(res.cuts, [20, 40]))

    @pytest.mark.parametrize("seed", range(4))
    def test_synthetic_generator_recovery(self, seed):
        sd = synthetic.generate(n=80, snr_db=45, seed=seed)
        res = explain_series(
            sd.S, sd.labels, list(sd.attrs), sd.total,
            Config(K=sd.gt_k, use_filter=False, use_sketch=False),
        )
        for g in sd.gt_cuts:
            assert min(abs(c - g) for c in res.cuts) <= 3, (res.cuts, sd.gt_cuts)


class TestResultContract:
    def test_result_fields(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(K=2, use_sketch=False))
        assert isinstance(res, ExplainResult)
        assert res.n == 60
        assert res.epsilon == 3
        assert len(res.cuts) == res.K - 1
        assert len(res.segments) == res.K
        assert len(res.curve) <= Config().k_max
        assert set(res.timings) >= {"precompute", "ca", "kseg", "total"}
        assert res.total_variance >= 0

    def test_segments_tile_domain(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(K=4, use_sketch=False))
        assert res.segments[0].start == 0
        assert res.segments[-1].end == res.n - 1
        for a, b in zip(res.segments, res.segments[1:]):
            assert a.end == b.start

    def test_k_clamped_when_too_large(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(K=50, use_sketch=False))
        assert res.K <= Config().k_max

    def test_curve_decreasing(self):
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(use_sketch=False))
        curve = res.curve
        assert all(curve[i] >= curve[i + 1] - 1e-9 for i in range(len(curve) - 1))

    def test_filter_reduces_epsilon(self):
        S, labels, total = _planted()
        # add a negligible 4th slice
        S2 = np.vstack([S, np.full(60, 1e-4)])
        labels2 = labels + [Explanation.of(cat="tiny")]
        res = explain_series(S2, labels2, ["cat"], total, Config(K=2))
        assert res.epsilon == 4
        assert res.filtered_epsilon == 3

    def test_times_passthrough(self):
        S, labels, total = _planted()
        times = [f"d{i}" for i in range(60)]
        res = explain_series(
            S, labels, ["cat"], total, Config(K=2, use_sketch=False), times=times
        )
        assert res.segments[0].start_t == "d0"
        assert res.segments[-1].end_t == "d59"

    def test_sketch_phase1_uses_gv_m_bar0(self, monkeypatch):
        """Every guess-and-verify call, sketch phase I included, starts from
        ``Config.gv_m_bar0``."""
        from repro.core import toplists

        gv = toplists.topm_guess_verify
        seen = []

        def spy(space, gamma, m, m_bar0=30):
            seen.append(m_bar0)
            return gv(space, gamma, m, m_bar0)

        monkeypatch.setattr(toplists, "topm_guess_verify", spy)
        S, labels, total = _planted()
        res = explain_series(S, labels, ["cat"], total, Config(K=2, gv_m_bar0=4))
        assert len(res.positions) < 60  # the sketch ran
        assert seen and set(seen) == {4}


class TestConfigValidation:
    """Out-of-range ``Config`` fields fail at the ``explain_series`` boundary
    with a ``ValueError`` naming the field."""

    def _explain(self, **kw):
        S, labels, total = _planted()
        return explain_series(S, labels, ["cat"], total, Config(K=2, **kw))

    def test_m(self):
        with pytest.raises(ValueError, match=r"Config\.m must"):
            self._explain(m=0)

    def test_k_max(self):
        with pytest.raises(ValueError, match=r"Config\.k_max must"):
            self._explain(k_max=0)

    def test_gv_m_bar0(self):
        with pytest.raises(ValueError, match=r"Config\.gv_m_bar0 must"):
            self._explain(gv_m_bar0=0)

    def test_metric(self):
        with pytest.raises(ValueError, match=r"Config\.metric must"):
            self._explain(metric="nope")

    def test_beta_max(self):
        with pytest.raises(ValueError, match=r"Config\.beta_max must"):
            self._explain(beta_max=0)


class TestInputValidation:
    """Inputs ``explain_series`` cannot explain fail at its boundary with a
    ``ValueError`` naming the input."""

    def test_nan_in_series(self):
        S, labels, total = _planted()
        S[1, 7] = np.nan
        with pytest.raises(ValueError, match=r"^S contains NaN or inf"):
            explain_series(S, labels, ["cat"], total)

    def test_inf_in_total(self):
        S, labels, total = _planted()
        total[3] = np.inf
        with pytest.raises(ValueError, match=r"^total contains NaN or inf"):
            explain_series(S, labels, ["cat"], total)

    def test_all_zero_series(self):
        S, labels, _ = _planted()
        with pytest.raises(ValueError, match=r"empty explanation space: 3 labels"):
            explain_series(np.zeros_like(S), labels, ["cat"], np.zeros(S.shape[1]))

    def test_no_labels(self):
        S, _, total = _planted()
        with pytest.raises(ValueError, match=r"empty explanation space: 0 labels"):
            explain_series(S[:0], [], ["cat"], total)

    def test_single_time_point(self):
        S, labels, total = _planted()
        with pytest.raises(ValueError, match=r"S needs at least 2 time points"):
            explain_series(S[:, :1], labels, ["cat"], total[:1])

    def test_more_labels_than_rows(self):
        """An extra label is an error, not dropped by the filter."""
        S, labels, total = _planted(n=40)
        with pytest.raises(ValueError, match=r"^4 labels for the 3 rows of S"):
            explain_series(S, labels + [Explanation.of(cat="d")], ["cat"], total)

    def test_fewer_labels_than_rows(self):
        S, labels, total = _planted(n=40)
        with pytest.raises(ValueError, match=r"^2 labels for the 3 rows of S"):
            explain_series(S, labels[:2], ["cat"], total)

    @pytest.mark.parametrize("n_times", [10, 100])
    def test_times_length(self, n_times):
        S, labels, total = _planted(n=40)
        with pytest.raises(ValueError, match=rf"^times has {n_times} values, S has 40"):
            explain_series(S, labels, ["cat"], total, times=range(n_times))

    def test_total_length_without_filter(self):
        S, labels, total = _planted(n=40)
        with pytest.raises(ValueError, match=r"^total has shape \(39,\), S has 40"):
            explain_series(S, labels, ["cat"], total[:-1], Config(use_filter=False))

    def test_repeated_label(self):
        """A repeated label is an error, not one candidate whose series is
        the last row and that counts twice in epsilon; the attach-to-cuts
        path of the baselines goes through the same check."""
        from repro.eval.harness import explain_fixed_cuts

        S, _, total = _planted()
        labels = [Explanation.of(cat="a"), Explanation.of(cat="b"), Explanation.of(cat="a")]
        with pytest.raises(ValueError, match=r"^label cat=a is repeated"):
            explain_series(S, labels, ["cat"], total)
        with pytest.raises(ValueError, match=r"^label cat=a is repeated"):
            explain_fixed_cuts(S, labels, ["cat"], [20, 40])


class TestSmallInputs:
    """The smallest inputs ``explain_series`` accepts have a defined result."""

    @pytest.mark.parametrize(
        "cfg", [Config(), Config(use_filter=False, use_gv=False, use_sketch=False)]
    )
    def test_two_time_points_give_one_segment(self, cfg):
        """n = 2 has one object and one possible segmentation: K = 1, no cut,
        and the segment's list is the object's CA list."""
        labels = [Explanation.of(a="x"), Explanation.of(a="y"), Explanation.of(a="z")]
        S = np.array([[1.0, 5.0], [2.0, 1.0], [3.0, 3.0]])
        res = explain_series(S, labels, ["a"], S.sum(axis=0), cfg)
        assert (res.K, res.cuts, res.curve) == (1, [], [0.0])
        [seg] = res.segments
        assert (seg.start, seg.end) == (0, 1)
        assert seg.explanations == [("a=x", 1, 4.0), ("a=y", -1, 1.0)]

    def test_one_candidate(self):
        """ε = 1: the one candidate explains every segment where it changes,
        the same under every optimization switch."""
        S = np.array([[0.0, 1.0, 2.0, 3.0, 10.0, 10.0, 10.0, 10.0]])
        labels = [Explanation.of(a="x")]
        results = [
            explain_series(S, labels, ["a"], S[0] + 1.0, cfg)
            for cfg in (Config(), Config(use_filter=False, use_gv=False, use_sketch=False))
        ]
        for res in results:
            assert (res.epsilon, res.filtered_epsilon) == (1, 1)
            assert (res.K, res.cuts) == (2, [4])
            assert [(s.start, s.end, s.explanations) for s in res.segments] == [
                (0, 4, [("a=x", 1, 10.0)]),
                (4, 7, []),
            ]


class TestMovingAverage:
    def test_identity_window(self):
        S = np.random.default_rng(0).random((2, 10))
        np.testing.assert_array_equal(moving_average(S, 1), S)

    def test_constant_preserved(self):
        S = np.full((1, 20), 7.0)
        np.testing.assert_allclose(moving_average(S, 5), S)

    def test_shape_preserved(self):
        S = np.random.default_rng(0).random((3, 17))
        assert moving_average(S, 4).shape == S.shape

    def test_smoothing_reduces_noise_variance(self):
        rng = np.random.default_rng(0)
        S = rng.normal(0, 1, (1, 500))
        sm = moving_average(S, 7)
        assert sm.std() < S.std() * 0.6

    @pytest.mark.parametrize("window", [2, 3, 4, 7])
    def test_matches_convolve_reference(self, window):
        S = np.random.default_rng(window).normal(0, 1, (3, 25))
        pad = window // 2
        padded = np.pad(S, ((0, 0), (pad, pad)), mode="edge")
        kernel = np.ones(window) / window
        ref = np.array([np.convolve(r, kernel, "valid")[:25] for r in padded])
        np.testing.assert_allclose(moving_average(S, window), ref, rtol=0, atol=1e-12)


# Labels over two attributes: a in {0, 1, 2}, b in {0, 1}, orders 1 and 2.
_LABELS = (
    [Explanation.of(a=i) for i in range(3)]
    + [Explanation.of(b=j) for j in range(2)]
    + [Explanation.of(a=i, b=j) for i in range(3) for j in range(2)]
)


@st.composite
def _explain_inputs(draw):
    n = draw(st.integers(2, 40))
    rows = draw(st.lists(st.sampled_from(range(len(_LABELS))), min_size=1, unique=True))
    S = np.array(
        [draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)) for _ in rows],
        dtype=float,
    )
    cfg = Config(
        m=draw(st.integers(1, 3)),
        k_max=draw(st.integers(1, 12)),
        K=draw(st.none() | st.integers(1, 45)),
        use_gv=draw(st.booleans()),
        gv_m_bar0=draw(st.integers(1, 4)),
        use_sketch=draw(st.booleans()),
    )
    return S, [_LABELS[r] for r in rows], cfg


class TestResultInvariants:
    @settings(max_examples=60, deadline=None)
    @given(_explain_inputs())
    def test_cuts_segments_and_positions(self, inp):
        """On any small matrix: sorted interior cuts, segments that tile
        [0, n-1] and break at the cuts, K <= k_max, and sketch positions in
        range(n) that keep both endpoints."""
        S, labels, cfg = inp
        n = S.shape[1]
        total = S.sum(axis=0)
        if not support_mask(S, total, cfg.filter_ratio).any():
            with pytest.raises(ValueError, match="empty explanation space"):
                explain_series(S, labels, ["a", "b"], total, cfg)
            return
        res = explain_series(S, labels, ["a", "b"], total, cfg)

        assert res.cuts == sorted(set(res.cuts))
        assert all(1 <= c <= n - 2 for c in res.cuts)
        assert 1 <= res.K <= cfg.k_max
        assert len(res.cuts) == res.K - 1
        bounds = [0, *res.cuts, n - 1]
        assert [(g.start, g.end) for g in res.segments] == list(zip(bounds, bounds[1:]))

        assert res.positions == sorted(set(res.positions))
        assert set(res.positions) <= set(range(n))
        assert res.positions[0] == 0 and res.positions[-1] == n - 1
        assert set(res.cuts) <= set(res.positions)

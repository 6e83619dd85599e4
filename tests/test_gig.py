"""Global pattern mining, channel attention, and video-level supervision."""

import numpy as np
import pytest

from gigvad import ops
from gigvad.errors import ConfigError, DimensionError
from gigvad.gig import (FeatureMaps, HeadParams, VideoLabels, enhance,
                        global_pattern, video_level_loss, video_overall_score)
from gigvad.tensor import GradTape, Tensor


def _feats(arr):
    return FeatureMaps(Tensor(arr))


def _zero_params(n_classes, channels):
    out = 1 + n_classes
    return HeadParams(
        Tensor(np.zeros((out, channels))), Tensor(np.zeros(out)),
        Tensor(np.zeros((out, channels))), Tensor(np.zeros(out)),
        accum={})


class TestGlobalPattern:
    def test_singleton_pooling_is_identity(self):
        g = global_pattern(_feats(np.array([2.0, -1.0, 0.0]).reshape(1, 1, 1, 3)))
        assert np.array_equal(g.data, [2.0, -1.0, 0.0])

    def test_pairwise_max(self):
        x = np.array([[[[1.0, 5.0]]], [[[3.0, 2.0]]]])
        assert np.array_equal(global_pattern(_feats(x)).data, [3.0, 5.0])

    def test_backbone_scale_extent(self, rng):
        x = rng.normal(size=(8, 7, 7, 2048))
        assert global_pattern(_feats(x)).shape == (2048,)

    def test_matches_triple_loop_oracle(self, rng):
        x = rng.normal(size=(3, 2, 4, 5))
        got = global_pattern(_feats(x)).data
        want = np.full(5, -np.inf)
        for t in range(3):
            for i in range(2):
                for j in range(4):
                    for c in range(5):
                        want[c] = max(want[c], x[t, i, j, c])
        assert np.array_equal(got, want)


class TestEnhance:
    def test_zero_gate_is_exactly_one_point_five(self, rng):
        x = rng.normal(size=(2, 2, 2, 3))
        out = enhance(_feats(x), Tensor(np.zeros(3)))
        assert np.array_equal(out.data.data, 1.5 * x)

    def test_saturated_gate_doubles(self, rng):
        x = rng.normal(size=(1, 2, 2, 2))
        out = enhance(_feats(x), Tensor([100.0, 100.0]))
        assert np.allclose(out.data.data, 2.0 * x, rtol=0, atol=1e-12)

    def test_matches_elementwise_oracle(self, rng):
        x = rng.normal(size=(2, 3, 2, 4))
        g = rng.normal(size=4)
        out = enhance(_feats(x), Tensor(g)).data.data
        gate = 1.0 / (1.0 + np.exp(-g))
        for t in range(2):
            for i in range(3):
                for j in range(2):
                    for c in range(4):
                        assert out[t, i, j, c] == pytest.approx(
                            (1.0 + gate[c]) * x[t, i, j, c], rel=1e-12)

    def test_monotone_and_amplification_range(self, rng):
        x = np.abs(rng.normal(size=(2, 2, 2, 3)))
        g = rng.normal(size=3)
        base = enhance(_feats(x), Tensor(g)).data.data
        bumped = enhance(_feats(x + 0.5), Tensor(g)).data.data
        assert (bumped >= base).all()
        factor = base / x
        assert (factor > 1.0).all() and (factor < 2.0).all()

    def test_channel_mismatch(self, rng):
        with pytest.raises(DimensionError):
            enhance(_feats(rng.normal(size=(1, 1, 1, 3))), Tensor([0.0, 0.0]))


class TestVideoOverallScore:
    def test_zero_head_gives_half(self, rng):
        params = _zero_params(3, 5)
        s = video_overall_score(Tensor(rng.normal(size=5)), params)
        assert s.item() == 0.5

    def test_max_over_anomaly_channels(self):
        w = np.zeros((3, 2))
        b = np.array([5.0, -1.0, 2.0])  # normal logit ignored
        params = HeadParams(Tensor(w), Tensor(b), Tensor(w.copy()),
                            Tensor(b.copy()), accum={})
        s = video_overall_score(Tensor([0.0, 0.0]), params)
        assert s.item() == pytest.approx(0.880797, abs=1e-6)

    def test_range(self, rng):
        for _ in range(20):
            params = HeadParams.initialize(4, 2, rng)
            s = video_overall_score(Tensor(rng.normal(size=4) * 10), params)
            assert 0.0 <= s.item() <= 1.0

    def test_no_anomaly_classes_rejected(self):
        params = _zero_params(0, 4)
        with pytest.raises(ConfigError):
            video_overall_score(Tensor(np.zeros(4)), params)


class TestVideoLevelLoss:
    def test_confident_correct_is_zero(self):
        assert video_level_loss(Tensor(1.0), 1).item() == pytest.approx(0.0, abs=1e-6)

    def test_half_is_ln2(self):
        for flag in (0, 1):
            assert video_level_loss(Tensor(0.5), flag).item() == pytest.approx(
                np.log(2.0), abs=1e-12)

    def test_confident_wrong(self):
        assert video_level_loss(Tensor(0.9), 0).item() == pytest.approx(
            2.302585, abs=1e-6)

    def test_non_negative_and_zero_only_at_matching_extremes(self, rng):
        for _ in range(200):
            s, y = rng.uniform(0, 1), int(rng.integers(0, 2))
            val = video_level_loss(Tensor(s), y).item()
            assert val >= 0.0
            if val < 1e-6:
                assert (s > 0.99 and y == 1) or (s < 0.01 and y == 0)


class TestVideoLabels:
    def test_flag_iff_any_set(self):
        assert VideoLabels(np.array([0, 0, 0])).any_anomaly == 0
        assert VideoLabels(np.array([0, 1, 0])).any_anomaly == 1

    def test_extended_layout(self):
        labels = VideoLabels(np.array([1, 0, 1]))
        assert np.array_equal(labels.extended(), [0.0, 1.0, 0.0, 1.0])
        normal = VideoLabels(np.array([0, 0]))
        assert np.array_equal(normal.extended(), [1.0, 0.0, 0.0])

    def test_rejects_non_binary(self):
        with pytest.raises(ConfigError):
            VideoLabels(np.array([0, 2]))

    def test_from_classes(self):
        labels = VideoLabels.from_classes([2], 3)
        assert np.array_equal(labels.present, [0, 1, 0])
        with pytest.raises(ConfigError):
            VideoLabels.from_classes([4], 3)


def test_gig_pipeline_gradient(rng):
    """Pattern -> enhance -> video score -> loss, checked by differences."""
    params = HeadParams.initialize(4, 2, rng)

    def f(x, w, b):
        feats = FeatureMaps(x)
        g = global_pattern(feats)
        enhanced = enhance(feats, g)
        head = HeadParams(w, b, w, b, accum={})
        score = video_overall_score(g, head)
        # pull the enhanced block into the scalar so its rule is exercised
        probe = ops.scale(ops.sum_all(enhanced.data), 1e-3)
        return ops.add(video_level_loss(score, 1), probe)

    passes = 0
    for _ in range(12):
        x = Tensor(rng.normal(size=(2, 2, 2, 4)))
        report = ops.grad_check(f, [x, params.video_w, params.video_b])
        if report.degenerate:
            continue
        assert report.passed, report
        passes += 1
    assert passes >= 8

"""Frame-level scoring, smoothing, classification, and ranking metrics."""

import numpy as np
import pytest

from gigvad.data import AnomalySpan, VideoSpec, frame_truth, generate_dataset
from gigvad.errors import ConfigError, DimensionError, MetricError
from gigvad.gig import HeadParams, VideoLabels
from gigvad.inference import (MAX_SIGMA, FrameScoreSeries, classify_frames,
                              evaluate_dataset, gaussian_smooth, score_video,
                              smooth_series, window_starts)
from gigvad.metrics import f1_metrics, roc_auc


class TestWindowStarts:
    def test_twelve_frames(self):
        assert window_starts(12, 6, 3) == [0, 3, 6]

    def test_ragged_tail_clamps_to_end(self):
        assert window_starts(13, 6, 3) == [0, 3, 6, 7]
        assert window_starts(16, 6, 3) == [0, 3, 6, 9, 10]

    def test_short_video_single_window(self):
        assert window_starts(4, 6, 3) == [0]
        assert window_starts(6, 6, 3) == [0]

    def test_all_frames_covered(self):
        for frame_count in range(1, 60):
            starts = window_starts(frame_count, 6, 3)
            covered = set()
            for s in starts:
                covered.update(range(s, min(s + 6, frame_count)))
            assert covered == set(range(frame_count))

    def test_stride_above_window_rejected(self):
        # window 2, stride 5 would leave frames 2-4 of every 5 unscored
        with pytest.raises(ConfigError, match="stride must not exceed"):
            window_starts(20, 2, 5)
        assert window_starts(20, 5, 5) == [0, 5, 10, 15]


def _trained_like_params(rng, channels=32, n_classes=3):
    return HeadParams.initialize(channels, n_classes, rng)


class TestScoreVideo:
    DIMS = (4, 4, 32)

    def _video(self, video_id=0, frame_count=40, spans=()):
        classes = sorted({s.cls for s in spans})
        return VideoSpec(video_id, frame_count,
                         VideoLabels.from_classes(classes, 3), list(spans))

    def test_one_score_row_per_frame(self, rng):
        params = _trained_like_params(rng)
        series = score_video(self._video(frame_count=37), params, self.DIMS,
                             feature_seed=7, top_k=4)
        assert series.channel_scores.shape == (37, 4)
        assert series.overall.shape == (37,)
        assert ((series.channel_scores >= 0) & (series.channel_scores <= 1)).all()

    def test_short_video_constant_series(self, rng):
        params = _trained_like_params(rng)
        series = score_video(self._video(frame_count=4), params, self.DIMS,
                             feature_seed=7, top_k=4)
        assert np.allclose(series.channel_scores,
                           series.channel_scores[0], rtol=0, atol=0)


class TestGaussianSmooth:
    def test_constant_series_unchanged(self):
        x = np.full(50, 0.37)
        assert np.allclose(gaussian_smooth(x, 2.0), x, rtol=0, atol=1e-12)

    def test_impulse_matches_kernel_oracle(self):
        sigma = 2.0
        radius = int(np.ceil(4 * sigma))
        n = 101
        x = np.zeros(n)
        x[50] = 1.0
        got = gaussian_smooth(x, sigma)
        offsets = np.arange(-radius, radius + 1)
        kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
        kernel /= kernel.sum()
        want = np.zeros(n)
        want[50 - radius:50 + radius + 1] = kernel
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_commutes_with_constant_shift(self, rng):
        x = rng.uniform(size=80)
        a = gaussian_smooth(x + 0.25, 2.0)
        b = gaussian_smooth(x, 2.0) + 0.25
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_preserves_unit_interval(self, rng):
        x = rng.uniform(size=40)
        out = gaussian_smooth(x, 2.0)
        assert (out >= 0.0).all() and (out <= 1.0).all()

    def test_series_shorter_than_kernel(self):
        out = gaussian_smooth(np.array([0.0, 1.0, 0.0]), 2.0)
        assert out.shape == (3,)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            gaussian_smooth(np.ones(5), sigma=0.0)
        with pytest.raises(ConfigError):
            gaussian_smooth(np.ones(5), sigma=float("nan"))
        with pytest.raises(DimensionError):
            gaussian_smooth(np.ones((2, 2)), sigma=2.0)
        with pytest.raises(DimensionError):
            gaussian_smooth(np.array([]), sigma=2.0)

    def test_sigma_cap(self):
        # the kernel's radius, ceil(4 * sigma), is what a sigma costs
        with pytest.raises(ConfigError, match="at most"):
            gaussian_smooth(np.ones(5), sigma=MAX_SIGMA * (1 + 1e-9))
        assert np.allclose(gaussian_smooth(np.ones(5), sigma=MAX_SIGMA), 1.0)

    def test_smooth_series_per_channel(self, rng):
        scores = rng.uniform(size=(30, 3))
        out = smooth_series(FrameScoreSeries(scores), 2.0)
        for c in range(3):
            assert np.array_equal(out.channel_scores[:, c],
                                  gaussian_smooth(scores[:, c], 2.0))


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_hand_counted_pairs(self):
        assert roc_auc([0.9, 0.6, 0.4, 0.1], [1, 0, 1, 0]) == 0.75

    def test_matches_pair_counting_oracle_with_ties(self, rng):
        for _ in range(300):
            n = int(rng.integers(4, 40))
            scores = rng.choice([0.1, 0.3, 0.5, 0.5, 0.9], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            pos, neg = scores[labels == 1], scores[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            want = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert abs(roc_auc(scores, labels) - want) < 1e-12

    def test_invariant_under_monotone_transform(self, rng):
        scores = rng.uniform(size=500)
        labels = rng.integers(0, 2, size=500)
        assert roc_auc(scores, labels) == roc_auc(scores ** 3, labels)

    def test_random_labels_hover_at_half(self):
        rng = np.random.default_rng(123)
        scores = rng.uniform(size=10_000)
        aucs = []
        for _ in range(100):
            labels = rng.permutation(np.repeat([0, 1], 5_000))
            aucs.append(roc_auc(scores, labels))
        assert abs(np.mean(aucs) - 0.5) < 0.05

    def test_accepts_per_video_sequences(self):
        auc = roc_auc([[0.9, 0.1], [0.8]], [[1, 0], [1]])
        assert auc == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            roc_auc([0.5, 0.6], [1, 1])


class TestClassifyFrames:
    def test_all_zero_scores_all_normal(self):
        scores = np.zeros((5, 4))
        assert np.array_equal(classify_frames(scores), np.zeros(5))

    def test_confident_channel_wins(self):
        scores = np.array([[0.1, 0.2, 0.9, 0.3]])
        assert classify_frames(scores).tolist() == [2]

    def test_threshold_above_one_blocks_everything(self, rng):
        scores = rng.uniform(size=(20, 4))
        assert np.array_equal(classify_frames(scores, tau=1.0 + 1e-9),
                              np.zeros(20))

    def test_tie_picks_lowest_class(self):
        scores = np.array([[0.0, 0.7, 0.7, 0.7]])
        assert classify_frames(scores).tolist() == [1]


class TestF1Metrics:
    def test_perfect_predictions(self):
        truth = np.array([0, 1, 2, 3, 1, 0])
        f1, mf1 = f1_metrics(truth, truth, 3)
        assert np.array_equal(f1, np.ones(3)) and mf1 == 1.0

    def test_hand_confusion(self):
        truth = np.array([1, 1, 1, 0, 0, 0])
        pred = np.array([1, 1, 0, 1, 0, 0])  # TP=2 FP=1 FN=1
        f1, mf1 = f1_metrics(pred, truth, 1)
        assert f1[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert mf1 == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_absent_prediction_scores_zero(self):
        truth = np.array([2, 2, 0])
        pred = np.array([0, 0, 0])
        f1, mf1 = f1_metrics(pred, truth, 2)
        assert f1.tolist() == [0.0, 0.0] and mf1 == 0.0

    def test_matches_confusion_matrix_oracle(self, rng):
        for _ in range(100):
            n, n_classes = 60, 3
            truth = rng.integers(0, n_classes + 1, size=n)
            pred = rng.integers(0, n_classes + 1, size=n)
            f1, mf1 = f1_metrics(pred, truth, n_classes)
            want = []
            for cls in range(1, n_classes + 1):
                tp = np.sum((pred == cls) & (truth == cls))
                fp = np.sum((pred == cls) & (truth != cls))
                fn = np.sum((pred != cls) & (truth == cls))
                if tp + fp == 0 or tp + fn == 0:
                    want.append(0.0)
                    continue
                precision, recall = tp / (tp + fp), tp / (tp + fn)
                want.append(0.0 if precision + recall == 0
                            else 2 * precision * recall / (precision + recall))
            assert np.allclose(f1, want, rtol=0, atol=1e-15)
            assert mf1 == pytest.approx(np.mean(want), abs=1e-15)


class TestFrameTruth:
    def test_spans_label_frames(self):
        video = VideoSpec(0, 10, VideoLabels.from_classes([1, 2], 2),
                          [AnomalySpan(1, 2, 4), AnomalySpan(2, 7, 9)])
        truth = frame_truth(video)
        assert truth.tolist() == [0, 0, 1, 1, 1, 0, 0, 2, 2, 2]

    def test_earlier_span_wins_overlap(self):
        video = VideoSpec(0, 6, VideoLabels.from_classes([1, 2], 2),
                          [AnomalySpan(1, 0, 3), AnomalySpan(2, 2, 5)])
        assert frame_truth(video).tolist() == [1, 1, 1, 1, 2, 2]


def test_evaluate_dataset_smoke(rng):
    dataset = generate_dataset(6, 4, 2, seed=5, frames=(40, 80),
                               cover=(0.2, 0.4), start_id=50)
    params = _trained_like_params(rng, channels=16, n_classes=2)
    report = evaluate_dataset(dataset, params, (4, 4, 16), top_k=4)
    assert 0.0 <= report.auc <= 1.0
    assert report.per_class_f1.shape == (2,)
    assert report.n_videos == 6
    assert report.n_frames == sum(v.frame_count for v in dataset.videos)

"""Supervision terms, their combination, and the composite gradient."""

import numpy as np
import pytest

from gigvad import ops
from gigvad.errors import ConfigError
from gigvad.gig import FeatureMaps, HeadParams, VideoLabels
from gigvad.losses import (DEFAULT_WEIGHTS, multiclass_loss,
                           segment_overall_loss, sparsity_loss, total_loss)
from gigvad.model import video_loss
from gigvad.spatial import consensus
from gigvad.tensor import Tensor

from conftest import spaced_scores

LN2 = float(np.log(2.0))


def _consensus_of(column_scores):
    """ConsensusScore whose channel vector equals the given values (p=1)."""
    return consensus(Tensor(np.asarray(column_scores)[None, :]), 1)


class TestSegmentOverallLoss:
    def test_confident_correct(self):
        cs = _consensus_of([0.2, 1.0])
        assert segment_overall_loss(cs, 1).item() == pytest.approx(0.0, abs=1e-6)

    def test_half_is_ln2(self):
        cs = _consensus_of([0.1, 0.5])
        assert segment_overall_loss(cs, 1).item() == pytest.approx(LN2, abs=1e-12)

    def test_confident_wrong_magnitude(self):
        cs = _consensus_of([0.9, 0.2])
        assert segment_overall_loss(cs, 1).item() == pytest.approx(
            1.609438, abs=1e-6)


class TestMulticlassLoss:
    def test_zero_at_exact_match(self):
        labels = VideoLabels(np.array([1, 0]))
        cs = _consensus_of([0.0, 1.0, 0.0])
        assert multiclass_loss(cs, labels).item() == pytest.approx(0.0, abs=1e-6)

    def test_all_half_is_ln2_for_any_label(self):
        cs = _consensus_of([0.5, 0.5, 0.5])
        for bits in ([0, 0], [1, 0], [1, 1]):
            labels = VideoLabels(np.array(bits))
            assert multiclass_loss(cs, labels).item() == pytest.approx(
                LN2, abs=1e-12)

    def test_hand_value_normal_video(self):
        # normal video, C=2: extended target (1, 0, 0)
        labels = VideoLabels(np.array([0, 0]))
        cs = _consensus_of([0.1, 0.9, 0.5])
        want = (-np.log(0.1) - np.log(0.1) - np.log(0.5)) / 3.0
        assert multiclass_loss(cs, labels).item() == pytest.approx(want, rel=1e-6)
        assert multiclass_loss(cs, labels).item() == pytest.approx(1.766, abs=5e-4)

    def test_anomaly_channel_permutation_equivariance(self, rng):
        for _ in range(50):
            scores = rng.uniform(0.05, 0.95, size=4)
            bits = rng.integers(0, 2, size=3)
            perm = rng.permutation(3)
            base = multiclass_loss(_consensus_of(scores),
                                   VideoLabels(bits)).item()
            permuted_scores = scores.copy()
            permuted_scores[1:] = scores[1:][perm]
            shuffled = multiclass_loss(_consensus_of(permuted_scores),
                                       VideoLabels(bits[perm])).item()
            assert shuffled == pytest.approx(base, rel=1e-12)


class TestSparsityLoss:
    def test_zero_scores(self):
        assert sparsity_loss(Tensor(np.zeros((4, 3)))).item() == 0.0

    def test_sum_of_per_segment_overall(self):
        s = np.array([[0.0, 0.5, 0.1], [0.9, 0.25, 0.2]])
        # per-segment anomaly-channel maxes: 0.5 and 0.25
        assert sparsity_loss(Tensor(s)).item() == pytest.approx(0.75, abs=1e-15)

    def test_bounded_by_segment_count(self, rng):
        for _ in range(20):
            t = int(rng.integers(1, 10))
            s = rng.uniform(size=(t, 4))
            assert sparsity_loss(Tensor(s)).item() <= t + 1e-12


class TestTotalLoss:
    def test_unit_components_default_weights(self):
        one = Tensor(1.0)
        total, bd = total_loss(one, one, one, one)
        assert total.item() == pytest.approx(2.6, abs=1e-12)
        assert DEFAULT_WEIGHTS == (1.0, 0.5, 0.1)

    def test_zero_components(self):
        zero = Tensor(0.0)
        total, bd = total_loss(zero, zero, zero, zero)
        assert total.item() == 0.0 and bd.total == 0.0

    def test_breakdown_composition(self, rng):
        vals = [Tensor(v) for v in rng.uniform(0.1, 2.0, size=4)]
        weights = (0.7, 0.3, 0.05)
        total, bd = total_loss(*vals, weights=weights)
        assert bd.video_segment == pytest.approx(
            bd.multiclass + 0.7 * bd.segment_overall + 0.3 * bd.video_overall,
            abs=1e-12)
        assert bd.total == pytest.approx(
            bd.video_segment + 0.05 * bd.sparsity, abs=1e-12)
        assert total.item() == pytest.approx(bd.total, abs=1e-15)
        assert min(bd.multiclass, bd.segment_overall, bd.video_overall,
                   bd.sparsity, bd.total) >= 0.0

    def test_negative_weight_rejected(self):
        one = Tensor(1.0)
        with pytest.raises(ConfigError):
            total_loss(one, one, one, one, weights=(1.0, -0.1, 0.1))


def test_sparsity_step_decreases_segment_scores(rng):
    """One plain gradient step on the sparsity term alone lowers its value."""
    from gigvad.spatial import segment_scores
    from gigvad.tensor import GradTape

    params = HeadParams.initialize(6, 2, rng)
    patterns = Tensor(rng.normal(size=(5, 6)))

    def sparsity_of(p):
        return sparsity_loss(segment_scores(patterns, p))

    with GradTape() as tape:
        before = sparsity_of(params)
    grads = tape.gradients(before, list(params.tensors()))
    stepped = HeadParams(
        *[Tensor(t.data - 0.01 * g) for t, g in zip(params.tensors(), grads)],
        accum={})
    after = sparsity_of(stepped)
    assert after.item() < before.item()


def test_composite_gradient_matches_finite_differences(rng):
    """Full supervision signal vs central differences on both heads and X."""
    labels = VideoLabels(np.array([1, 0]))

    def f(x, vw, vb, sw, sb):
        params = HeadParams(vw, vb, sw, sb, accum={})
        total, _ = video_loss(FeatureMaps(x), params, labels, top_k=2,
                              top_p=2, weights=DEFAULT_WEIGHTS)
        return total

    passes = 0
    for _ in range(12):
        params = HeadParams.initialize(5, 2, rng)
        x = Tensor(rng.normal(size=(3, 2, 2, 5)))
        report = ops.grad_check(f, [x, *params.tensors()], h=1e-4, tol=1e-5)
        if report.degenerate:
            continue
        assert report.passed, report
        passes += 1
    assert passes >= 8

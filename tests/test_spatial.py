"""Relevance ranking, top-k pooling, and segment consensus."""

import numpy as np
import pytest

from gigvad.errors import ConfigError, DimensionError
from gigvad.gig import FeatureMaps, HeadParams
from gigvad.spatial import (consensus, default_top_k, default_top_p,
                            relation_scores, segment_patterns, segment_scores,
                            select_topk)
from gigvad.tensor import Tensor

from conftest import spaced_scores


def _feats(arr):
    return FeatureMaps(Tensor(arr))


class TestRelationScores:
    def test_parallel_vectors(self):
        g = np.array([1.0, 2.0, -1.0])
        r = relation_scores(Tensor(g), _feats((2 * g).reshape(1, 1, 1, 3)))
        assert r.item() == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        r = relation_scores(Tensor([1.0, 0.0]),
                            _feats(np.array([0.0, 1.0]).reshape(1, 1, 1, 2)))
        assert r.item() == 0.0

    def test_hand_value(self):
        r = relation_scores(Tensor([1.0, 0.0]),
                            _feats(np.array([1.0, 1.0]).reshape(1, 1, 1, 2)))
        assert r.item() == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)

    def test_range_and_scale_invariance(self, rng):
        g = rng.normal(size=6)
        x = rng.normal(size=(3, 2, 2, 6))
        base = relation_scores(Tensor(g), _feats(x)).data
        assert (np.abs(base) <= 1.0 + 1e-12).all()
        for alpha in (0.5, 3.0, 1e3):
            scaled = relation_scores(Tensor(alpha * g), _feats(x)).data
            assert np.allclose(scaled, base, rtol=0, atol=1e-12)
            rescaled_x = relation_scores(Tensor(g), _feats(alpha * x)).data
            assert np.allclose(rescaled_x, base, rtol=0, atol=1e-12)

    def test_zero_norm_guard(self, rng):
        x = rng.normal(size=(1, 2, 1, 3))
        x[0, 1, 0] = 0.0
        r = relation_scores(Tensor([1.0, 0.0, 0.0]), _feats(x))
        assert r.data[0, 1, 0] == 0.0
        all_zero = relation_scores(Tensor([0.0, 0.0, 0.0]), _feats(x))
        assert np.array_equal(all_zero.data, np.zeros((1, 2, 1)))


class TestSelectTopk:
    def test_k_one_is_argmax_vector(self, rng):
        x = rng.normal(size=(2, 2, 3))
        r = np.array([[0.1, 0.9], [0.4, 0.2]])
        got = select_topk(Tensor(x), r, 1)
        assert np.array_equal(got.data, x[0, 1])

    def test_k_all_is_plain_mean(self, rng):
        x = rng.normal(size=(3, 2, 4))
        r = rng.normal(size=(3, 2))
        got = select_topk(Tensor(x), r, 6).data
        assert np.allclose(got, x.reshape(-1, 4).mean(axis=0), rtol=0, atol=1e-12)

    def test_two_by_two_grid(self, rng):
        x = rng.normal(size=(2, 2, 3))
        r = np.array([[0.9, 0.1], [0.8, 0.2]])
        got = select_topk(Tensor(x), r, 2).data
        assert np.allclose(got, (x[0, 0] + x[1, 0]) / 2.0, rtol=0, atol=1e-15)

    def test_selection_matches_stable_sort_oracle(self, rng):
        from gigvad import ops
        from gigvad.tensor import GradTape

        for _ in range(200):
            m, d = int(rng.integers(1, 9)), 3
            k = int(rng.integers(1, m + 1))
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=(m, 1))  # ties
            x = Tensor(rng.normal(size=(m, 1, d)))
            with GradTape() as tape:
                out = ops.sum_all(select_topk(x, scores, k))
            grad = tape.gradients(out, [x])[0]
            selected = set(np.nonzero(grad[:, 0, 0])[0].tolist())
            scores = scores[:, 0]
            oracle = set(sorted(range(m), key=lambda i: (-scores[i], i))[:k])
            assert selected == oracle

    def test_k_out_of_range(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 3)))
        r = rng.normal(size=(2, 2))
        for bad in (0, 5):
            with pytest.raises(ConfigError):
                select_topk(x, r, bad)


class TestSegmentPatterns:
    def test_rows_match_per_segment_select(self, rng):
        x = rng.normal(size=(4, 2, 3, 5))
        r = spaced_scores(rng, (4, 2, 3))
        batched = segment_patterns(_feats(x), r, 2).data
        for t in range(4):
            single = select_topk(Tensor(x[t]), r[t], 2).data
            assert np.array_equal(batched[t], single)


class TestSegmentScores:
    def test_zero_head_eval_gives_half(self):
        params = HeadParams(Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)),
                            Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)),
                            accum={})
        out = segment_scores(Tensor(np.random.default_rng(0).normal(size=(5, 4))),
                             params)
        assert out.shape == (5, 3)
        assert np.array_equal(out.data, np.full((5, 3), 0.5))

    def test_output_extents(self, rng):
        params = HeadParams.initialize(6, 4, rng)
        out = segment_scores(Tensor(rng.normal(size=(8, 6))), params)
        assert out.shape == (8, 1 + 4)

    def test_eval_mode_deterministic(self, rng):
        params = HeadParams.initialize(6, 2, rng)
        x = Tensor(rng.normal(size=(4, 6)))
        a = segment_scores(x, params).data
        b = segment_scores(x, params).data
        assert np.array_equal(a, b)

    def test_extent_mismatch(self, rng):
        params = HeadParams.initialize(6, 2, rng)
        with pytest.raises(DimensionError):
            segment_scores(Tensor(rng.normal(size=(4, 5))), params)


class TestConsensus:
    def test_p_one_is_per_channel_max(self, rng):
        s = rng.uniform(size=(5, 4))
        cs = consensus(Tensor(s), 1)
        assert np.array_equal(cs.channel_scores.data, s.max(axis=0))

    def test_p_all_is_mean(self, rng):
        s = rng.uniform(size=(6, 3))
        cs = consensus(Tensor(s), 6)
        assert np.allclose(cs.channel_scores.data, s.mean(axis=0),
                           rtol=0, atol=1e-12)

    def test_top_two_of_four(self):
        col = np.array([0.9, 0.2, 0.7, 0.1])
        s = np.column_stack([np.zeros(4), col])
        cs = consensus(Tensor(s), 2)
        assert cs.channel_scores.data[1] == pytest.approx(0.8, abs=1e-15)
        assert cs.overall.item() == pytest.approx(0.8, abs=1e-15)

    def test_overall_is_anomaly_channel_max(self, rng):
        s = rng.uniform(size=(4, 5))
        cs = consensus(Tensor(s), 2)
        assert cs.overall.item() == cs.channel_scores.data[1:].max()

    def test_monotone_in_entries(self, rng):
        for _ in range(100):
            s = rng.uniform(size=(5, 3))
            before = consensus(Tensor(s), 2).channel_scores.data.copy()
            t, c = int(rng.integers(5)), int(rng.integers(3))
            bumped = s.copy()
            bumped[t, c] += rng.uniform(0, 0.5)
            after = consensus(Tensor(bumped), 2).channel_scores.data
            assert (after >= before - 1e-15).all()

    def test_segment_permutation_invariance(self, rng):
        for _ in range(100):
            s = rng.choice([0.1, 0.2, 0.2, 0.7, 0.7, 0.9], size=(6, 3))
            base = consensus(Tensor(s), 2).channel_scores.data
            perm = consensus(Tensor(s[rng.permutation(6)]), 2).channel_scores.data
            assert np.array_equal(base, perm)

    def test_p_out_of_range(self, rng):
        s = Tensor(rng.uniform(size=(4, 3)))
        for bad in (0, 5):
            with pytest.raises(ConfigError):
                consensus(s, bad)


def test_default_selection_counts():
    assert default_top_k(4, 4) == 4
    assert default_top_k(1, 1) == 1
    assert default_top_p(8) == 2
    assert default_top_p(2) == 1

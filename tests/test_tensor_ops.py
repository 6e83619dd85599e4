"""Engine tests: tensors, the tape, primitive forward/backward rules."""

import math

import numpy as np
import pytest

from gigvad import ops
from gigvad.errors import ConfigError, DimensionError, NumericError
from gigvad.tensor import GradTape, Tensor

from conftest import spaced_scores


class TestTensor:
    def test_row_major_and_size(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.flags.c_contiguous
        assert t.data.size == 4

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            Tensor([1.0, float("nan")])
        with pytest.raises(NumericError):
            Tensor([float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((2, 0)))

    def test_values_frozen(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0


class TestAffine:
    def test_identity(self):
        y = ops.affine(Tensor(np.eye(2)), Tensor([0.0, 0.0]), Tensor([3.0, -1.0]))
        assert np.array_equal(y.data, [3.0, -1.0])

    def test_hand_matrix(self):
        y = ops.affine(Tensor([[1.0, 2.0], [0.0, 1.0]]), Tensor([1.0, 0.0]),
                       Tensor([1.0, 1.0]))
        assert np.array_equal(y.data, [4.0, 1.0])

    def test_head_output_extent(self, rng):
        n_classes, d = 4, 16
        w = Tensor(rng.normal(size=(1 + n_classes, d)))
        b = Tensor(np.zeros(1 + n_classes))
        assert ops.affine(w, b, Tensor(rng.normal(size=d))).shape == (1 + n_classes,)

    def test_extent_mismatch(self, rng):
        w = Tensor(rng.normal(size=(2, 3)))
        with pytest.raises(DimensionError):
            ops.affine(w, Tensor([0.0, 0.0]), Tensor([1.0, 1.0]))

    def test_row_batched(self, rng):
        w, b = rng.normal(size=(3, 4)), rng.normal(size=3)
        x = rng.normal(size=(5, 4))
        y = ops.affine(Tensor(w), Tensor(b), Tensor(x))
        assert np.allclose(y.data, x @ w.T + b)


class TestSigmoid:
    def test_symmetry_point(self):
        assert ops.sigmoid(Tensor(0.0)).item() == 0.5

    def test_derivative_at_zero(self):
        x = Tensor(0.0)
        with GradTape() as tape:
            s = ops.sigmoid(x)
        assert tape.gradients(s, [x])[0] == 0.25

    def test_scalar_value(self):
        assert ops.sigmoid(Tensor(2.0)).item() == pytest.approx(0.880797, abs=1e-6)

    def test_strictly_inside_unit_interval(self):
        out = ops.sigmoid(Tensor([-1e4, -50.0, 0.0, 50.0, 1e4])).data
        assert (out > 0.0).all() and (out < 1.0).all()


class TestReduceMax:
    def test_singleton_axis_identity(self):
        x = Tensor(np.array([[1.0], [2.0]]))
        assert np.array_equal(ops.reduce_max(x, axes=(1,)).data, [1.0, 2.0])

    def test_full_reduction(self):
        assert ops.reduce_max(Tensor([1.0, 5.0, 3.0])).item() == 5.0

    def test_tie_routes_to_first(self):
        x = Tensor([2.0, 2.0])
        with GradTape() as tape:
            m = ops.reduce_max(x)
        assert np.array_equal(tape.gradients(m, [x])[0], [1.0, 0.0])
        assert tape.min_selection_margin() == 0.0

    def test_matches_brute_force_all_ranks(self, rng):
        for _ in range(50):
            rank = int(rng.integers(1, 5))
            shape = tuple(int(rng.integers(1, 5)) for _ in range(rank))
            x = rng.normal(size=shape)
            n_axes = int(rng.integers(1, rank + 1))
            axes = tuple(sorted(rng.choice(rank, size=n_axes, replace=False)))
            got = ops.reduce_max(Tensor(x), axes=axes).data
            want = x.max(axis=axes)
            assert np.array_equal(got, np.asarray(want))

    def test_bad_axes(self):
        x = Tensor(np.ones((2, 2)))
        with pytest.raises(DimensionError):
            ops.reduce_max(x, axes=())
        with pytest.raises(DimensionError):
            ops.reduce_max(x, axes=(0, 0))
        with pytest.raises(DimensionError):
            ops.reduce_max(x, axes=(2,))


class TestTape:
    def test_additive_fanout(self, rng):
        x = Tensor(rng.normal(size=4))
        with GradTape() as tape:
            s = ops.sigmoid(x)
            y = ops.sum_all(ops.add(s, s))
        g = tape.gradients(y, [x])[0]
        sd = 1.0 / (1.0 + np.exp(-x.data))
        assert np.allclose(g, 2.0 * sd * (1.0 - sd), rtol=0, atol=1e-12)

    def test_unused_input_gets_zero(self, rng):
        x, z = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3))
        with GradTape() as tape:
            y = ops.sum_all(x)
        gx, gz = tape.gradients(y, [x, z])
        assert np.array_equal(gx, np.ones(3))
        assert np.array_equal(gz, np.zeros(3))

    def test_backward_requires_scalar(self, rng):
        x = Tensor(rng.normal(size=3))
        with GradTape() as tape:
            y = ops.sigmoid(x)
        with pytest.raises(DimensionError):
            tape.backward(y)
        with pytest.raises(DimensionError):
            tape.gradients(y, [x])

    def test_no_tape_still_computes(self):
        assert ops.sigmoid(Tensor(0.0)).item() == 0.5


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = Tensor(rng.normal(size=8))
        assert ops.dropout(x, 0.0, True, rng) is x

    def test_eval_identity(self, rng):
        x = Tensor(rng.normal(size=8))
        assert ops.dropout(x, 0.9, False, rng) is x

    def test_survivors_doubled_at_half(self, rng):
        x = Tensor(np.ones(1000))
        out = ops.dropout(x, 0.5, True, rng).data
        assert set(np.unique(out)) == {0.0, 2.0}

    def test_bad_rate(self, rng):
        with pytest.raises(ConfigError):
            ops.dropout(Tensor([1.0]), 1.0, True, rng)


def _weighted_sum(t, weights):
    return ops.sum_all(ops.apply_mask(t, weights))


def _away_from_origin(rng, shape, min_norm=0.5):
    """Channel vectors with norms bounded away from 0.

    Cosine similarity is smooth but ill-conditioned near the origin, where
    finite differences lose accuracy without the gradient being wrong.
    """
    flat = rng.normal(size=(int(np.prod(shape[:-1])), shape[-1]))
    norms = np.linalg.norm(flat, axis=-1, keepdims=True)
    flat *= np.maximum(1.0, min_norm / norms)
    return flat.reshape(shape)


class TestGradCheck:
    def test_sigmoid_at_zero(self):
        report = ops.grad_check(ops.sigmoid, [Tensor(0.0)], h=1e-5, tol=1e-6)
        assert report.passed and not report.degenerate

    def test_linear_map_near_exact(self, rng):
        w = rng.normal(size=5)

        def f(x):
            return _weighted_sum(x, w)

        report = ops.grad_check(f, [Tensor(rng.normal(size=5))])
        assert report.max_rel_err < 1e-8

    def test_flags_selection_ties(self):
        report = ops.grad_check(lambda x: ops.reduce_max(x), [Tensor([2.0, 2.0])])
        assert report.degenerate and not report.passed

    def test_flags_probe_crossing_selection_kink(self):
        # margin 2e-5 clears tie_tol but not h: the -h probe moves the arg-max
        report = ops.grad_check(lambda x: ops.reduce_max(x),
                                [Tensor([2.0, 2.0 + 2e-5])])
        assert report.degenerate and not report.passed

    def test_rejects_non_scalar_target(self, rng):
        with pytest.raises(DimensionError):
            ops.grad_check(ops.sigmoid, [Tensor(rng.normal(size=3))])


def _primitive_cases(rng):
    """One grad_check target per primitive with differentiable inputs."""
    w8 = rng.normal(size=8)
    w6 = rng.normal(size=6)
    w23 = rng.normal(size=(2, 3))
    w234 = rng.normal(size=(2, 3, 4))
    scores_23 = spaced_scores(rng, (2, 3))
    scores_6 = spaced_scores(rng, (6,))
    return {
        "affine_vec": (lambda w, b, x: _weighted_sum(ops.affine(w, b, x), w8[:3]),
                       lambda: [Tensor(rng.normal(size=(3, 4))),
                                Tensor(rng.normal(size=3)),
                                Tensor(rng.normal(size=4))]),
        "affine_rows": (lambda w, b, x: _weighted_sum(ops.affine(w, b, x), w23),
                        lambda: [Tensor(rng.normal(size=(3, 4))),
                                 Tensor(rng.normal(size=3)),
                                 Tensor(rng.normal(size=(2, 4)))]),
        "sigmoid": (lambda x: _weighted_sum(ops.sigmoid(x), w6),
                    lambda: [Tensor(rng.normal(size=6))]),
        "add": (lambda a, b: _weighted_sum(ops.add(a, b), w6),
                lambda: [Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6))]),
        "scale": (lambda x: _weighted_sum(ops.scale(x, -1.7), w6),
                  lambda: [Tensor(rng.normal(size=6))]),
        "apply_mask": (lambda x: _weighted_sum(ops.apply_mask(x, w6), w8[:6]),
                       lambda: [Tensor(rng.normal(size=6))]),
        "scale_channels": (lambda x, g: _weighted_sum(ops.scale_channels(x, g), w234),
                           lambda: [Tensor(rng.normal(size=(2, 3, 4))),
                                    Tensor(rng.normal(size=4))]),
        "reduce_max": (lambda x: _weighted_sum(ops.reduce_max(x, axes=(0,)), w8[:3]),
                       lambda: [Tensor(spaced_scores(rng, (4, 3)))]),
        "slice_axis": (lambda x: _weighted_sum(ops.slice_axis(x, 1, 1, 3), w8.reshape(4, 2)),
                       lambda: [Tensor(rng.normal(size=(4, 3)))]),
        "sum_all": (lambda x: ops.sum_all(x),
                    lambda: [Tensor(rng.normal(size=(2, 3)))]),
        "cosine_map": (lambda v, x: _weighted_sum(ops.cosine_map(v, x), w23),
                       lambda: [Tensor(_away_from_origin(rng, (4,))),
                                Tensor(_away_from_origin(rng, (2, 3, 4)))]),
        "topk_mean": (lambda x: _weighted_sum(ops.topk_mean(x, scores_6, 3), w8[:4]),
                      lambda: [Tensor(rng.normal(size=(6, 4)))]),
        "topk_mean_batch": (lambda x: _weighted_sum(
                                ops.topk_mean_batch(x, scores_23, 2), w8[:8].reshape(2, 4)),
                            lambda: [Tensor(rng.normal(size=(2, 3, 4)))]),
        "topp_mean_cols": (lambda x: _weighted_sum(ops.topp_mean_cols(x, 2), w8[:3]),
                           lambda: [Tensor(spaced_scores(rng, (5, 3)))]),
        "bce": (lambda s: ops.bce(s, 1.0),
                lambda: [Tensor(rng.uniform(0.05, 0.95))]),
        "bce_mean": (lambda s: ops.bce_mean(s, np.array([1.0, 0.0, 1.0])),
                     lambda: [Tensor(rng.uniform(0.05, 0.95, size=3))]),
    }


@pytest.mark.parametrize("name", sorted(_primitive_cases(
    np.random.default_rng(0)).keys()))
def test_primitive_gradients_match_finite_differences(name):
    """Every primitive: analytic grad vs central differences, 100 points."""
    import zlib

    rng = np.random.default_rng(zlib.crc32(name.encode()))
    passes = 0
    attempts = 0
    while passes < 100 and attempts < 140:
        attempts += 1
        f, make = _primitive_cases(rng)[name]
        report = ops.grad_check(f, make(), h=1e-4, tol=1e-5)
        if report.degenerate:
            continue  # redraw away from a selection tie
        assert report.passed, f"{name}: rel err {report.max_rel_err}"
        passes += 1
    assert passes == 100

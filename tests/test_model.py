"""The plain-numpy head kernel against the tape reference, bit for bit."""

import numpy as np
import pytest

from gigvad.backbone import synthetic_backbone
from gigvad.config import Config
from gigvad.data import AnomalySpan, VideoSpec, generate_dataset
from gigvad.errors import NumericError
from gigvad.gig import FeatureMaps, HeadParams, VideoLabels
from gigvad.inference import score_video, window_starts
from gigvad.model import head_forward, head_step, run_head, video_loss
from gigvad.tensor import GradTape, Tensor
from gigvad.training import hflip_augment, train

from conftest import head_inputs

# (T, rows, cols, d, top_k, top_p): the protocol and train_wide shapes, then
# top_p above its default and a grid where top-k takes more than 8 cells
SHAPES = [(8, 4, 4, 32, 4, 2), (16, 8, 8, 128, 4, 4), (8, 4, 4, 32, 4, 5),
          (6, 5, 5, 16, 12, 6)]


def _draw(rng, shape):
    t, rows, cols, d, _, _ = shape
    n_classes = int(rng.integers(1, 5))
    present = rng.integers(0, 2, size=n_classes)  # multi-hot, or all normal
    labels = VideoLabels(present)
    # trained-like heads: wider than the init bound, so scores spread out
    params = HeadParams.initialize(d, n_classes, rng)
    params.video_w = Tensor(params.video_w.data * rng.uniform(1, 40))
    params.segment_w = Tensor(params.segment_w.data * rng.uniform(1, 40))
    params.video_b = Tensor(rng.normal(0, 1, n_classes + 1))
    params.segment_b = Tensor(rng.normal(0, 1, n_classes + 1))
    block = rng.standard_normal((t, rows, cols, d))
    cells = rng.integers(0, rows * cols, size=2)
    block.reshape(t, -1, d)[:, cells, :4] += 3.0  # a planted signature
    feats = FeatureMaps(Tensor(block))
    if rng.random() < 0.5:
        feats = hflip_augment(feats, 1.0, rng)
    return feats, params, labels


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("rate", [0.0, 0.5])
def test_head_step_equals_tape(shape, rate):
    rng = np.random.default_rng([*shape, int(10 * rate)])
    k, p = shape[4], shape[5]
    weights = (1.0, 0.5, 0.1)
    for draw in range(8):
        feats, params, labels = _draw(rng, shape)
        seed = int(rng.integers(2 ** 32))
        tape_rng = np.random.default_rng(seed)
        with GradTape() as tape:
            total, want = video_loss(feats, params, labels, k, p, weights,
                                     rate, True, tape_rng)
        want_grads = tape.gradients(total, params.tensors())
        kernel_rng = np.random.default_rng(seed)
        pattern, patterns = head_inputs(feats.data.data, k, rate,
                                         kernel_rng)
        got, grads = head_step(pattern, patterns,
                               [t.data for t in params.tensors()],
                               labels.extended(), p, weights)
        assert got == want, draw
        for name, a, b in zip(HeadParams.NAMES, grads, want_grads):
            assert np.array_equal(a, b), (draw, name)
        # both drew the same dropout masks, and nothing more
        assert kernel_rng.random() == tape_rng.random()


@pytest.mark.parametrize("shape", SHAPES)
def test_head_forward_equals_run_head(shape):
    rng = np.random.default_rng(sum(shape))
    t, rows, cols, d, k, p = shape
    draws = [_draw(rng, shape) for _ in range(5)]
    params = draws[0][1]
    blocks = [feats.data.data for feats, _, _ in draws]
    stack = np.stack(blocks).reshape(5, t, rows * cols, d)
    got = head_forward(stack, params.segment_w.data, params.segment_b.data,
                       k, p)
    windows = stack.reshape(5 * t, 1, rows * cols, d)
    got_windows = head_forward(windows, params.segment_w.data,
                               params.segment_b.data, k, 1)
    for n, block in enumerate(blocks):
        want = run_head(FeatureMaps(Tensor(block)), params, k, p)
        assert np.array_equal(got[n], want.consensus.channel_scores.data)
    for n in range(5 * t):
        block = windows[n].reshape(1, rows, cols, d)
        want = run_head(FeatureMaps(Tensor(block)), params, k, 1)
        assert np.array_equal(got_windows[n],
                              want.consensus.channel_scores.data)


@pytest.mark.parametrize("frames, window, stride, dims", [
    pytest.param(2000, 6, 3, (4, 4, 32), id="2000-6-3"),
    pytest.param(1037, 10, 4, (4, 4, 32), id="1037-10-4"),
    pytest.param(50, 1, 1, (4, 4, 32), id="50-1-1"),
    pytest.param(4, 6, 3, (4, 4, 32), id="4-6-3"),
    pytest.param(14, 6, 3, (4, 4, 32), id="14-6-3"),
    pytest.param(27, 6, 3, (8, 8, 128), id="27-6-3-wide"),
    pytest.param(60, 6, 3, (8, 8, 128), id="60-6-3-wide"),
])
def test_score_video_equals_window_oracle(rng, frames, window, stride, dims):
    """A 512 KiB chunk holds 128 windows at 4x4x32 and 8 at 8x8x128. So
    2,000 frames (666 windows) end in a partial sixth chunk, 27 frames at
    the wide shape are one full chunk (8 windows), and 60 frames there are
    two full chunks and a partial one (19 windows)."""
    k = 4
    params = HeadParams.initialize(dims[2], 3, rng)
    params.segment_w = Tensor(params.segment_w.data * 30)
    video = VideoSpec(9, frames, VideoLabels.from_classes([2], 3),
                      [AnomalySpan(2, frames // 3, frames // 2)])
    got = score_video(video, params, dims, 7, k, window, stride)
    sums, counts = np.zeros((frames, 4)), np.zeros(frames)
    for start in window_starts(frames, window, stride):
        clip = [min(start + i, frames - 1) for i in range(window)]
        out = run_head(synthetic_backbone([clip], video, dims, 7), params,
                       top_k=k, top_p=1)
        sums[start:start + window] += out.consensus.channel_scores.data
        counts[start:start + window] += 1
    assert np.array_equal(got.channel_scores, sums / counts[:, None])


def _overflowing(params: HeadParams) -> HeadParams:
    # finite weights whose segment logits overflow float64
    return HeadParams(params.video_w, params.video_b,
                      Tensor(np.full(params.segment_w.shape, 1e308)),
                      params.segment_b, params.accum)


def test_score_video_overflow_is_numeric_error(rng):
    params = _overflowing(HeadParams.initialize(32, 3, rng))
    video = VideoSpec(3, 40, VideoLabels.from_classes([], 3), [])
    with pytest.raises(NumericError, match="affine"):
        score_video(video, params, (4, 4, 32), 7, 4)


def test_head_step_overflow_is_numeric_error(rng):
    feats, params, labels = _draw(rng, SHAPES[0])
    heads = [t.data for t in _overflowing(params).tensors()]
    with pytest.raises(NumericError, match="affine"):
        head_step(*head_inputs(feats.data.data, 4, 0.0, None), heads,
                  labels.extended(), 2, (1.0, 0.5, 0.1))


def test_train_overflow_is_numeric_error(monkeypatch):
    dataset = generate_dataset(4, 2, 2, seed=3, frames=(40, 60))
    # the sparsity term (about T/2) times 1e308 overflows the total
    with pytest.raises(NumericError, match="loss"):
        train(dataset, Config(epochs=1, channels=16, lambda3=1e308))
    init = HeadParams.initialize.__func__
    monkeypatch.setattr(HeadParams, "initialize", classmethod(
        lambda cls, *a: _overflowing(init(cls, *a))))
    with pytest.raises(NumericError, match="affine"):
        train(dataset, Config(epochs=1, channels=16))

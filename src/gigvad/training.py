"""Segment sampling, augmentation, the Adagrad optimizer, and the epoch loop.

Determinism contract: everything random is drawn from generators seeded by
tuples of (config seed, purpose tag, epoch, video id), so a fixed seed
reproduces sampling, masks, initialization, and final weights bit-for-bit,
and per-video streams are independent of batch composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backbone import synthetic_backbone
from .data import DatasetSpec
from .errors import ConfigError, DatasetError, NumericError
from .gig import FeatureMaps, HeadParams
from .losses import LossBreakdown
from .model import head_step
from .spatial import default_top_k, default_top_p
from .tensor import Tensor

ADAGRAD_EPS = 1e-10

# entropy tags separating the seeded streams of one training run
_INIT_TAG = 1
_SHUFFLE_TAG = 2
_VIDEO_TAG = 3


@dataclass
class TrainConfig:
    """Training hyperparameters and synthetic feature dimensions.

    Every value is checked when the config is built (``__post_init__``), so
    an instance always holds finite floats, a non-negative seed and, when
    given, ``top_k`` in [1, rows*cols] and ``top_p`` in [1, segments].
    ``dataclasses.replace`` re-runs the checks.
    """

    segments: int = 8            # T
    clips_per_segment: int = 6
    clip_interval: int = 5       # frames between consecutive clip starts
    batch_size: int = 8
    learning_rate: float = 0.001
    epochs: int = 100
    dropout: float = 0.5
    flip_prob: float = 0.5
    top_k: int | None = None     # None: quarter of the spatial cells
    top_p: int | None = None     # None: quarter of the segments
    lambda1: float = 1.0
    lambda2: float = 0.5
    lambda3: float = 0.1
    seed: int = 7
    rows: int = 4                # w
    cols: int = 4                # h
    channels: int = 32           # d

    def __post_init__(self) -> None:
        counts = (self.segments, self.clips_per_segment, self.clip_interval,
                  self.batch_size, self.rows, self.cols, self.channels)
        if any(c < 1 for c in counts):
            raise ConfigError("all counts must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must lie in [0, 1)")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ConfigError("flip_prob must lie in [0, 1]")
        if not all(math.isfinite(w) and w >= 0 for w in self.weights):
            raise ConfigError("loss weights must be finite and non-negative")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning rate must be finite and positive")
        for name, value, top in (("top_k", self.top_k, self.rows * self.cols),
                                 ("top_p", self.top_p, self.segments)):
            if value is not None and not (1 <= value <= top):
                raise ConfigError(f"{name} must lie in [1, {top}]")

    @property
    def resolved_k(self) -> int:
        return self.top_k if self.top_k is not None else default_top_k(
            self.rows, self.cols)

    @property
    def resolved_p(self) -> int:
        return self.top_p if self.top_p is not None else default_top_p(
            self.segments)

    @property
    def weights(self) -> tuple[float, float, float]:
        return (self.lambda1, self.lambda2, self.lambda3)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.rows, self.cols, self.channels)


@dataclass
class TrainResult:
    params: HeadParams
    history: list[LossBreakdown] = field(default_factory=list)


def sample_segments(frame_count: int, segments: int, clips_per_segment: int,
                    clip_interval: int,
                    rng: np.random.Generator) -> list[list[int]]:
    """Split a video into near-equal segments and sample clip starts in each.

    Segment lengths differ by at most one, longer segments first. Within a
    segment a start offset is drawn uniformly so every clip fits; when the
    segment is shorter than the clip span, starts clamp to the segment's last
    frame (an empty segment borrows the nearest earlier frame).
    """
    if frame_count < 1:
        raise DatasetError("frame_count must be positive")
    base, extra = divmod(frame_count, segments)
    bounds, pos = [], 0
    for t in range(segments):
        length = base + (1 if t < extra else 0)
        bounds.append((pos, pos + length))
        pos += length
    span = (clips_per_segment - 1) * clip_interval + 1
    all_starts = []
    for lo, hi in bounds:
        length = hi - lo
        last = min(max(hi - 1, lo), frame_count - 1)
        start = lo + int(rng.integers(0, max(length - span, 0) + 1))
        all_starts.append([min(start + j * clip_interval, last)
                           for j in range(clips_per_segment)])
    return all_starts


def hflip_augment(feats: FeatureMaps, prob: float,
                  rng: np.random.Generator) -> FeatureMaps:
    """With probability ``prob``, reverse the feature block's row axis."""
    if rng.random() >= prob:
        return feats
    flipped = np.ascontiguousarray(feats.data.data[:, ::-1, :, :])
    return FeatureMaps(Tensor(flipped), enhanced=feats.enhanced)


def adagrad_step(params: HeadParams, grads, lr: float) -> None:
    """One Adagrad update: accumulate squared grads, scale the step by them.

    Aborts (no parameter touched) on any non-finite gradient.
    """
    grads = list(grads)
    tensors = params.tensors()
    if len(grads) != len(tensors):
        raise ConfigError("expected one gradient per parameter")
    for name, t, g in zip(HeadParams.NAMES, tensors, grads):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != t.data.shape:
            raise ConfigError(f"gradient extents for {name} do not match")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for {name}; step aborted")
    for name, t, g in zip(HeadParams.NAMES, tensors, grads):
        acc = params.accum[name]
        acc += np.asarray(g) ** 2
        new = t.data - lr * np.asarray(g) / (np.sqrt(acc) + ADAGRAD_EPS)
        setattr(params, name, Tensor(new))


def _chunks(seq: np.ndarray, size: int):
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


def train(dataset: DatasetSpec, cfg: TrainConfig) -> TrainResult:
    """Run the full epoch loop and return final heads plus per-epoch losses.

    Each video step samples segments, synthesizes and maybe flips the
    feature block, then :func:`~gigvad.model.head_step` returns the four
    losses and the closed-form gradients of the four head tensors, and one
    Adagrad step applies them. The step equals ``video_loss`` on a
    ``GradTape`` bit for bit, without recording or replaying a tape. Each
    logged epoch entry holds the means of the four loss terms over the
    epoch's videos, with the combined totals recomputed from those means.
    """
    dataset.validate()
    flags = [v.labels.any_anomaly for v in dataset.videos]
    if not (any(flags) and not all(flags)):
        raise DatasetError("need at least one normal and one anomalous video")
    if cfg.channels < dataset.n_classes:
        raise ConfigError("channel count below class count")

    init_rng = np.random.default_rng(
        np.random.SeedSequence((cfg.seed, _INIT_TAG)))
    params = HeadParams.initialize(cfg.channels, dataset.n_classes, init_rng)
    k, p, weights = cfg.resolved_k, cfg.resolved_p, cfg.weights
    history: list[LossBreakdown] = []

    for epoch in range(1, cfg.epochs + 1):
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, _SHUFFLE_TAG, epoch)))
        order = shuffle_rng.permutation(len(dataset.videos))
        term_sums = np.zeros(4)
        for batch in _chunks(order, cfg.batch_size):
            # batch items are independent given the shuffle; the optimizer
            # step applies per video, serialized in batch index order
            for pos in batch:
                video = dataset.videos[int(pos)]
                rng = np.random.default_rng(np.random.SeedSequence(
                    (cfg.seed, _VIDEO_TAG, epoch, video.video_id)))
                starts = sample_segments(video.frame_count, cfg.segments,
                                         cfg.clips_per_segment,
                                         cfg.clip_interval, rng)
                feats = synthetic_backbone(starts, video, cfg.dims,
                                           dataset.seed)
                feats = hflip_augment(feats, cfg.flip_prob, rng)
                bd, grads = head_step(
                    feats.data.data, [t.data for t in params.tensors()],
                    video.labels.extended(), k, p, weights, cfg.dropout, rng)
                adagrad_step(params, grads, cfg.learning_rate)
                term_sums += (bd.multiclass, bd.segment_overall,
                              bd.video_overall, bd.sparsity)
        history.append(_epoch_breakdown(term_sums / len(dataset.videos),
                                        weights))
    return TrainResult(params=params, history=history)


def _epoch_breakdown(means: np.ndarray,
                     weights: tuple[float, float, float]) -> LossBreakdown:
    w1, w2, w3 = weights
    multiclass, segment_overall, video_overall, sparsity = map(float, means)
    video_segment = multiclass + w1 * segment_overall + w2 * video_overall
    return LossBreakdown(multiclass=multiclass,
                         segment_overall=segment_overall,
                         video_overall=video_overall,
                         sparsity=sparsity,
                         video_segment=video_segment,
                         total=video_segment + w3 * sparsity,
                         weights=weights)

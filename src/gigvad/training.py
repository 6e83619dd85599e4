"""Segment sampling, augmentation, the Adagrad optimizer, and the epoch loop.

:func:`train` takes the one configuration type, :class:`~gigvad.config.Config`
(``TrainConfig`` names the same class), whose caps on segments, clips, grid,
channels and feature-block size bound every array of a video step.

Determinism contract: everything random is drawn from the PCG64 streams
that ``SeedSequence`` gives tuples of (config seed, purpose tag, epoch, video
id), so a fixed seed reproduces sampling, masks, initialization, and final
weights bit-for-bit, and per-video streams are independent of batch
composition. Each epoch keys its shuffle stream, then all of its video
streams at once (:func:`~gigvad.backbone._pcg64_keys`), and the run's one
generator is set to each stream's state before it draws from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backbone import _pcg64_keys, _set_state, synthetic_backbone
from .config import Config
from .data import DatasetSpec
from .errors import ConfigError, DatasetError, NumericError
from .gig import FeatureMaps, HeadParams
from .losses import LossBreakdown
from .model import head_step
from .tensor import Tensor

ADAGRAD_EPS = 1e-10

# entropy tags separating the seeded streams of one training run
_INIT_TAG = 1
_SHUFFLE_TAG = 2
_VIDEO_TAG = 3

# the one configuration type under the name the training API first had
TrainConfig = Config


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
    # a flipped copy of values already checked finite: wrap it as it is
    flipped = np.ascontiguousarray(feats.data.data[:, ::-1, :, :])
    return FeatureMaps(Tensor._wrap(flipped), enhanced=feats.enhanced)


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


def train(dataset: DatasetSpec, cfg: Config) -> TrainResult:
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

    # the run's one generator; every stream below sets its state first
    rng = np.random.Generator(np.random.PCG64())
    _set_state(rng, _pcg64_keys([(cfg.seed, _INIT_TAG)])[0])
    params = HeadParams.initialize(cfg.channels, dataset.n_classes, rng)
    k, p, weights = cfg.resolved_k, cfg.resolved_p, cfg.weights
    history: list[LossBreakdown] = []
    # one (seed, tag, epoch, video id) row per video; column 2 is the epoch
    video_rows = np.array([(cfg.seed, _VIDEO_TAG, 0, video.video_id)
                           for video in dataset.videos], dtype=np.int64)

    for epoch in range(1, cfg.epochs + 1):
        _set_state(rng, _pcg64_keys([(cfg.seed, _SHUFFLE_TAG, epoch)])[0])
        video_rows[:, 2] = epoch
        streams = _pcg64_keys(video_rows)
        order = rng.permutation(len(dataset.videos))
        term_sums = np.zeros(4)
        for pos in order:
            video = dataset.videos[int(pos)]
            _set_state(rng, streams[int(pos)])
            starts = sample_segments(video.frame_count, cfg.segments,
                                     cfg.clips_per_segment,
                                     cfg.clip_interval, rng)
            feats = synthetic_backbone(starts, video, cfg.dims, dataset.seed)
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

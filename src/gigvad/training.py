"""Segment sampling, augmentation, the Adagrad optimizer, and the epoch loop.

:func:`train` takes the one configuration type, :class:`~gigvad.config.Config`,
whose caps on segments, clips, grid, channels and feature-block size bound
every array of a video step. It takes one Adagrad step per video. Only the
two heads learn, so the work before them (sampling, augmentation draws, the
backbone and top-k selection) is done for a chunk of videos at a time, and
:data:`~gigvad.inference.CHUNK_BYTES` bounds a chunk's feature blocks.

Determinism contract: everything random is drawn from the PCG64 streams
that ``SeedSequence`` gives tuples of (config seed, purpose tag, epoch, video
id), so a fixed seed reproduces sampling, masks, initialization, and final
weights bit-for-bit, and per-video streams are independent of batch
composition. Each epoch keys its shuffle stream, then all of its video
streams at once (:func:`~gigvad.backbone._pcg64_keys`), and the run's one
generator is set to each stream's state before it draws from it. A video's
stream is drawn in the same order as in a step of its own: the clip
offsets, the flip, the pattern-vector mask, then the segment-pattern mask.
No draw reads the heads, so the chunks change no bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .backbone import _pcg64_keys, _set_state, _video_blocks
from .config import Config
from .data import DatasetSpec, VideoSpec
from .errors import ConfigError, DatasetError, NumericError
from .gig import FeatureMaps, HeadParams
from .inference import CHUNK_BYTES
from .losses import LossBreakdown
from .model import _select, head_step
from .tensor import Tensor

ADAGRAD_EPS = 1e-10

# entropy tags separating the seeded streams of one training run
_INIT_TAG = 1
_SHUFFLE_TAG = 2
_VIDEO_TAG = 3

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
    frame (an empty segment borrows the nearest earlier frame). One
    ``rng.integers`` call draws the T offsets, the same values and generator
    state as T scalar calls in segment order.
    """
    return _clip_starts(frame_count, segments, clips_per_segment,
                        clip_interval, rng).tolist()


def _clip_starts(frame_count: int, segments: int, clips_per_segment: int,
                 clip_interval: int, rng: np.random.Generator) -> np.ndarray:
    """:func:`sample_segments` as a (T, C) int64 array."""
    if frame_count < 1:
        raise DatasetError("frame_count must be positive")
    base, extra = divmod(frame_count, segments)
    lengths = base + (np.arange(segments) < extra)
    hi = np.cumsum(lengths)
    lo = hi - lengths
    span = (clips_per_segment - 1) * clip_interval + 1
    last = np.minimum(np.maximum(hi - 1, lo), frame_count - 1)
    start = lo + rng.integers(0, np.maximum(lengths - span, 0) + 1)
    clips = start[:, None] + clip_interval * np.arange(clips_per_segment)
    return np.minimum(clips, last[:, None])


def _flip_drawn(prob: float, rng: np.random.Generator) -> bool:
    """The augmentation's one draw: whether to flip a video's rows."""
    return rng.random() < prob


def hflip_augment(feats: FeatureMaps, prob: float,
                  rng: np.random.Generator) -> FeatureMaps:
    """With probability ``prob``, reverse the feature block's row axis.

    A flip cannot move the head's outputs: the head pools the spatial cells
    without regard to their order (a max-pool, a cosine per cell and the
    mean of the top-k set), so only an exact relevance tie could tell a
    flipped block from the original. The draw still advances ``rng``.
    """
    if not _flip_drawn(prob, rng):
        return feats
    # a flipped copy of values already checked finite: wrap it as it is
    flipped = np.ascontiguousarray(feats.data.data[:, ::-1, :, :])
    return FeatureMaps(Tensor._wrap(flipped))


def adagrad_step(params: HeadParams, grads, lr: float) -> None:
    """One Adagrad update: accumulate squared grads, scale the step by them.

    Aborts (no parameter touched) on any non-finite gradient.
    """
    grads = list(grads)
    tensors = params.tensors()
    if len(grads) != len(tensors):
        raise ConfigError("expected one gradient per parameter")
    arrays = []
    for name, t, g in zip(HeadParams.NAMES, tensors, grads):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != t.data.shape:
            raise ConfigError(f"gradient extents for {name} do not match")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for {name}; step aborted")
        arrays.append(g)
    for name, t, g in zip(HeadParams.NAMES, tensors, arrays):
        acc = params.accum[name]
        acc += g ** 2
        new = t.data - lr * g / (np.sqrt(acc) + ADAGRAD_EPS)
        setattr(params, name, Tensor(new))


def _chunk_inputs(videos: list[VideoSpec], keys: np.ndarray, cfg: Config,
                  feature_seed: int, rng: np.random.Generator,
                  blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Head inputs of a chunk of video steps: pattern vectors (n, d) and
    segment patterns (n, T, d), masked when dropout is on.

    None of it reads the heads. First each video's stream (its row of
    ``keys``) is set and drawn from in step order: the clip offsets, the
    flip, the pattern-vector mask, then the segment-pattern mask. Then one
    backbone call writes the n feature blocks into ``blocks``, and one
    :func:`~gigvad.model._select` call pools, gates and picks them.
    """
    n, t, d, rate = len(videos), cfg.segments, cfg.dims[2], cfg.dropout
    clips = np.empty((n, t, cfg.clips_per_segment), dtype=np.int64)
    flips = np.empty(n, dtype=bool)
    pattern_masks, segment_masks = np.empty((n, d)), np.empty((n, t, d))
    for i, video in enumerate(videos):
        _set_state(rng, keys[i])
        clips[i] = _clip_starts(video.frame_count, t, cfg.clips_per_segment,
                                cfg.clip_interval, rng)
        flips[i] = _flip_drawn(cfg.flip_prob, rng)
        if rate > 0.0:
            pattern_masks[i] = ops.dropout_mask((d,), rate, rng)
            segment_masks[i] = ops.dropout_mask((t, d), rate, rng)
    x = _video_blocks(clips, videos, cfg.dims, feature_seed, blocks)
    if flips.any():
        # hflip_augment's flip: reverse the row axis of the drawn blocks
        x[flips] = x[flips, :, ::-1]
    pattern, patterns = _select(x.reshape(n, t, -1, d), cfg.resolved_k)
    if rate > 0.0:
        return pattern * pattern_masks, patterns * segment_masks
    return pattern, patterns


def train(dataset: DatasetSpec, cfg: Config) -> TrainResult:
    """Run the full epoch loop and return final heads plus per-epoch losses.

    Each epoch walks its shuffled order in chunks of videos whose feature
    blocks fit :data:`~gigvad.inference.CHUNK_BYTES` (at least one video).
    For a chunk, :func:`_chunk_inputs` draws every video's stream, makes the
    feature blocks and selects the head inputs, none of which reads the
    heads. Then, one video at a time in order,
    :func:`~gigvad.model.head_step` returns the four losses and the
    closed-form gradients of the four head tensors, and one Adagrad step
    applies them. The steps equal sampling, ``synthetic_backbone``,
    ``hflip_augment`` and ``video_loss`` on a ``GradTape`` per video, bit
    for bit. Each logged epoch entry holds the means of the four loss
    terms over the epoch's videos, with the combined totals recomputed
    from those means.
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
    p, weights = cfg.resolved_p, cfg.weights
    history: list[LossBreakdown] = []
    block_bytes = 8 * cfg.segments * int(np.prod(cfg.dims))
    per_chunk = min(max(1, CHUNK_BYTES // block_bytes), len(dataset.videos))
    # every chunk's feature blocks go to this one buffer: a fresh array per
    # chunk let the allocator hand its pages back, and faulting them in
    # again cost about a fifth of a step at the train_wide shape
    blocks = np.empty((per_chunk, cfg.segments, *cfg.dims))
    # one (seed, tag, epoch, video id) row per video; column 2 is the epoch
    video_rows = np.array([(cfg.seed, _VIDEO_TAG, 0, video.video_id)
                           for video in dataset.videos], dtype=np.int64)

    for epoch in range(1, cfg.epochs + 1):
        _set_state(rng, _pcg64_keys([(cfg.seed, _SHUFFLE_TAG, epoch)])[0])
        video_rows[:, 2] = epoch
        streams = _pcg64_keys(video_rows)
        order = rng.permutation(len(dataset.videos))
        term_sums = np.zeros(4)
        for lo in range(0, len(order), per_chunk):
            chunk = order[lo:lo + per_chunk]
            pattern, patterns = _chunk_inputs(
                [dataset.videos[pos] for pos in chunk], streams[chunk], cfg,
                dataset.seed, rng, blocks)
            for i, pos in enumerate(chunk):
                heads = [t.data for t in params.tensors()]
                bd, grads = head_step(
                    pattern[i], patterns[i], heads,
                    dataset.videos[pos].labels.extended(), p, weights)
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
                         total=video_segment + w3 * sparsity)

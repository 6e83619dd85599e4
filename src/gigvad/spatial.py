"""Spatial reasoning: relevance ranking, top-k pooling, segment consensus.

Each spatial cell of the enhanced feature block is scored by its cosine
similarity to the global pattern vector; the k most relevant cells of each
segment are averaged into that segment's pattern vector, classified by the
segment head, and the per-class means of the p best segment scores form the
video's consensus score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, DimensionError
from .gig import FeatureMaps, HeadParams
from .tensor import Tensor


@dataclass
class ConsensusScore:
    """Per-class consensus over segments plus the derived overall score.

    ``channel_scores`` has extent 1+C (channel 0 normal); each entry is the
    mean of that channel's p largest segment scores, p being the argument of
    :func:`consensus`. ``overall`` is the max of the anomaly channels.
    """

    channel_scores: Tensor
    overall: Tensor


def relation_scores(pattern: Tensor, feats: FeatureMaps) -> Tensor:
    """Cosine similarity of the pattern vector with every spatial vector.

    Result extents are (T, w, h), values in [-1, 1]; a zero entry is emitted
    wherever either vector's norm falls below the guard.
    """
    if pattern.shape != (feats.channels,):
        raise DimensionError("pattern extent must equal the channel extent")
    return ops.cosine_map(pattern, feats.data)


def select_topk(segment: Tensor, relevance: Tensor | np.ndarray,
                k: int) -> Tensor:
    """Mean of the k spatial vectors of one segment with the best relevance.

    ``segment`` has extents (w, h, d) and ``relevance`` (w, h). Ties break by
    lowest row-major index; gradient flows only to the selected vectors.
    """
    if segment.data.ndim != 3:
        raise DimensionError("segment must have extents (w, h, d)")
    return ops.topk_mean(segment, relevance, k)


def segment_patterns(feats: FeatureMaps, relevance: Tensor | np.ndarray,
                     k: int) -> Tensor:
    """Row t is :func:`select_topk` applied to segment t; extents (T, d)."""
    return ops.topk_mean_batch(feats.data, relevance, k)


def segment_scores(patterns: Tensor, params: HeadParams,
                   dropout_rate: float = 0.0, training: bool = False,
                   rng: np.random.Generator | None = None) -> Tensor:
    """Per-segment class probabilities, extents (T, 1+C).

    ``patterns`` holds one pattern vector per row. Dropout hits the head's
    input and only in training mode; evaluation is deterministic.
    """
    if patterns.data.ndim != 2 or patterns.shape[1] != params.channels:
        raise DimensionError("patterns must have extents (T, channels)")
    patterns = ops.dropout(patterns, dropout_rate, training, rng)
    return ops.sigmoid(ops.affine(params.segment_w, params.segment_b, patterns))


def consensus(scores: Tensor, p: int) -> ConsensusScore:
    """Average the p best segments per class channel, independently per class.

    The overall score is the max of the anomaly-channel consensus values;
    raising any single segment score never lowers any consensus value.
    """
    if scores.data.ndim != 2:
        raise DimensionError("segment scores must have extents (T, 1+C)")
    n_channels = scores.shape[1]
    if n_channels < 2:
        raise ConfigError("need a normal channel plus at least one class")
    channel_scores = ops.topp_mean_cols(scores, p)
    anomaly = ops.slice_axis(channel_scores, 0, 1, n_channels)
    overall = ops.reduce_max(anomaly)
    return ConsensusScore(channel_scores=channel_scores, overall=overall)


def default_top_k(rows: int, cols: int) -> int:
    """Quarter of the spatial cells, at least one."""
    return max(1, (rows * cols) // 4)


def default_top_p(segments: int) -> int:
    """Quarter of the segments, at least one."""
    return max(1, segments // 4)

"""Supervision terms and their weighted combination.

Four terms supervise one video under its video-level labels only:

* multiclass consensus loss: per-channel BCE of the consensus score against
  the extended label (normal channel gets 1 minus the any-anomaly flag),
  averaged over the 1+C channels;
* segment overall loss: BCE of the consensus overall score against the
  any-anomaly flag;
* video overall loss: same, for the pattern-vector head (computed in
  :mod:`gigvad.gig`);
* sparsity: sum over segments of each segment's best anomaly-channel score,
  encoding that anomalies are temporally rare.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ops
from .errors import ConfigError, DimensionError
from .gig import VideoLabels
from .spatial import ConsensusScore
from .tensor import Tensor

DEFAULT_WEIGHTS = (1.0, 0.5, 0.1)


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar values of every term for one video (or epoch means).

    ``video_segment`` is multiclass + w1*segment_overall + w2*video_overall;
    ``total`` adds w3*sparsity on top.
    """

    multiclass: float
    segment_overall: float
    video_overall: float
    sparsity: float
    video_segment: float
    total: float


def segment_overall_loss(cs: ConsensusScore, any_anomaly: int) -> Tensor:
    """BCE of the consensus overall score against the any-anomaly flag."""
    return ops.bce(cs.overall, float(any_anomaly))


def multiclass_loss(cs: ConsensusScore, labels: VideoLabels) -> Tensor:
    """Mean per-channel BCE of the consensus against the extended label."""
    target = labels.extended()
    if cs.channel_scores.shape != target.shape:
        raise DimensionError(
            f"consensus has {cs.channel_scores.shape[0]} channels, "
            f"labels imply {target.shape[0]}")
    return ops.bce_mean(cs.channel_scores, target)


def sparsity_loss(scores: Tensor) -> Tensor:
    """Sum over segments of the per-segment best anomaly-channel score."""
    if scores.data.ndim != 2 or scores.shape[1] < 2:
        raise DimensionError("segment scores must have extents (T, 1+C)")
    anomaly = ops.slice_axis(scores, 1, 1, scores.shape[1])
    per_segment = ops.reduce_max(anomaly, axes=(1,))
    return ops.sum_all(per_segment)


def total_loss(multiclass: Tensor, segment_overall: Tensor,
               video_overall: Tensor, sparsity: Tensor,
               weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
               ) -> tuple[Tensor, LossBreakdown]:
    """Weighted sum of the four terms, plus its scalar breakdown."""
    w1, w2, w3 = (float(w) for w in weights)
    if w1 < 0 or w2 < 0 or w3 < 0:
        raise ConfigError("loss weights must be non-negative")
    video_segment = ops.add(multiclass, ops.add(ops.scale(segment_overall, w1),
                                                ops.scale(video_overall, w2)))
    total = ops.add(video_segment, ops.scale(sparsity, w3))
    breakdown = LossBreakdown(
        multiclass=multiclass.item(),
        segment_overall=segment_overall.item(),
        video_overall=video_overall.item(),
        sparsity=sparsity.item(),
        video_segment=video_segment.item(),
        total=total.item(),
    )
    return total, breakdown

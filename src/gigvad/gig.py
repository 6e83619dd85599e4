"""Global pattern mining, channel attention, and the video-level objective.

The feature block for one video has extents (T, w, h, d): T segments, a w-by-h
spatial grid, d channels. Max-pooling the block over time and space yields a
d-length global pattern vector; gating each channel with the sigmoid of that
vector (plus a skip connection) produces the enhanced block the spatial
reasoning stage consumes. A classification head over the pattern vector scores
the whole video's anomaly status.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ConfigError, DimensionError
from .tensor import Tensor


@dataclass
class FeatureMaps:
    """A (T, w, h, d) feature block, raw or gated.

    ``channels`` is d; T, w and h are read from ``data.shape``.
    """

    data: Tensor

    def __post_init__(self) -> None:
        if len(self.data.shape) != 4:
            raise DimensionError("feature maps must have extents (T, w, h, d)")

    @property
    def channels(self) -> int:
        return self.data.shape[3]


@dataclass
class VideoLabels:
    """Multi-hot anomaly classes for one video.

    ``present[c]`` is 1 when anomaly class c+1 occurs anywhere in the video;
    the any-anomaly flag is derived, so the two can never disagree.
    """

    present: np.ndarray
    n_classes: int = field(init=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.present, dtype=np.int64)
        if arr.ndim != 1 or not np.isin(arr, (0, 1)).all():
            raise ConfigError("labels must be a flat 0/1 vector")
        self.present = arr
        self.n_classes = int(arr.shape[0])

    @classmethod
    def from_classes(cls, classes, n_classes: int) -> "VideoLabels":
        present = np.zeros(n_classes, dtype=np.int64)
        for c in classes:
            if not (1 <= int(c) <= n_classes):
                raise ConfigError(f"class id {c} outside 1..{n_classes}")
            present[int(c) - 1] = 1
        return cls(present)

    @property
    def any_anomaly(self) -> int:
        return int(self.present.any())

    def extended(self) -> np.ndarray:
        """1+C target vector: channel 0 is the normal class."""
        return np.concatenate(([1.0 - self.any_anomaly],
                               self.present.astype(np.float64)))


@dataclass
class HeadParams:
    """The two affine classification heads plus their Adagrad accumulators.

    Both heads map d channels to 1+C scores; channel 0 is the normal class and
    channels 1..C the anomaly classes in dataset order. ``video_head`` scores
    the global pattern vector, ``segment_head`` scores per-segment pattern
    vectors. Accumulators are elementwise sums of squared gradients, starting
    at zero and never decreasing.
    """

    video_w: Tensor
    video_b: Tensor
    segment_w: Tensor
    segment_b: Tensor
    accum: dict[str, np.ndarray]

    NAMES = ("video_w", "video_b", "segment_w", "segment_b")

    @classmethod
    def initialize(cls, channels: int, n_classes: int,
                   rng: np.random.Generator) -> "HeadParams":
        """Uniform weights in [-1/d, 1/d], zero biases.

        The small bound keeps initial per-class logit offsets well below what
        the fixed-budget optimizer can correct; fan-in (1/sqrt(d)) scaling
        left classes hostage to their initial draw.
        """
        if n_classes < 1:
            raise ConfigError("need at least one anomaly class")
        bound = 1.0 / channels
        out = 1 + n_classes
        vw = Tensor(rng.uniform(-bound, bound, size=(out, channels)))
        vb = Tensor(np.zeros(out))
        sw = Tensor(rng.uniform(-bound, bound, size=(out, channels)))
        sb = Tensor(np.zeros(out))
        accum = {name: np.zeros_like(t.data)
                 for name, t in zip(cls.NAMES, (vw, vb, sw, sb))}
        return cls(vw, vb, sw, sb, accum)

    def tensors(self) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        return (self.video_w, self.video_b, self.segment_w, self.segment_b)

    @property
    def channels(self) -> int:
        return self.video_w.shape[1]

    @property
    def n_classes(self) -> int:
        return self.video_w.shape[0] - 1


def global_pattern(feats: FeatureMaps) -> Tensor:
    """d-length vector of per-channel maxima over all (t, i, j) positions."""
    return ops.reduce_max(feats.data, axes=(0, 1, 2))


def enhance(feats: FeatureMaps, pattern: Tensor) -> FeatureMaps:
    """Gate each channel by sigmoid(pattern) and add the skip connection.

    Every output element is (1 + sigmoid(pattern[c])) times the input, so the
    per-channel amplification lies strictly inside (1, 2).
    """
    if pattern.shape != (feats.channels,):
        raise DimensionError("pattern extent must equal the channel extent")
    gate = ops.sigmoid(pattern)
    gated = ops.scale_channels(feats.data, gate)
    return FeatureMaps(ops.add(gated, feats.data))


def video_overall_score(pattern: Tensor, params: HeadParams) -> Tensor:
    """Largest anomaly-channel probability assigned to the pattern vector.

    The head also emits a normal-channel score (kept so both heads share a
    shape); it does not enter this value.
    """
    n_classes = params.n_classes
    if n_classes < 1:
        raise ConfigError("need at least one anomaly class")
    probs = ops.sigmoid(ops.affine(params.video_w, params.video_b, pattern))
    anomaly = ops.slice_axis(probs, 0, 1, 1 + n_classes)
    return ops.reduce_max(anomaly)


def video_level_loss(overall_score: Tensor, any_anomaly: int) -> Tensor:
    """Binary cross entropy of the video score against the any-anomaly flag."""
    return ops.bce(overall_score, float(any_anomaly))

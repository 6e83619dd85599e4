"""Synthetic feature extractor standing in for a pretrained video backbone.

Each segment's feature map is unit-scale Gaussian noise seeded by
(dataset seed, video id, its sampled clip start frames), so the same sampling
always reproduces the same bits. When an anomaly class is active during any
sampled clip of a segment, a class-specific channel block at a class-specific
spatial cell receives a constant additive offset: anomalies are localized in
space and channels, which is what the spatial reasoning stage has to exploit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import ops
from .data import VideoSpec
from .errors import ConfigError
from .gig import FeatureMaps
from .tensor import Tensor

SIGNATURE_OFFSET = 3.0

# entropy tag separating backbone noise from other seeded streams
_FEATURE_TAG = 211


def signature_cells(cls: int, rows: int, cols: int) -> list[tuple[int, int]]:
    """Spatial cells carrying class ``cls``'s signature: a 2x2 patch.

    Patches are anchored so classes land on disjoint regions of the grid as
    long as it has room (wrap-around handles tiny grids). A patch, rather
    than a lone cell, keeps the anomaly localized while surviving the top-k
    spatial mean undiluted.
    """
    anchor_r = (((cls - 1) * 2) // cols) * 2 % rows
    anchor_c = ((cls - 1) * 2) % cols
    return sorted({((anchor_r + dr) % rows, (anchor_c + dc) % cols)
                   for dr in (0, 1) for dc in (0, 1)})


def signature_channels(cls: int, n_classes: int,
                       channels: int) -> tuple[int, int]:
    """Half-open channel range carrying class ``cls``'s signature.

    Classes get disjoint blocks of width d // C; any remainder channels stay
    background-only.
    """
    width = max(1, channels // n_classes)
    lo = (cls - 1) * width
    return lo, lo + width


def synthetic_backbone(clip_starts: Sequence[Sequence[int]], video: VideoSpec,
                       dims: tuple[int, int, int], seed: int) -> FeatureMaps:
    """Feature block of extents (T, w, h, d) for the sampled clips.

    ``clip_starts`` holds one list of clip start frames per segment. Each
    class active at a segment's clips adds :data:`SIGNATURE_OFFSET` to its
    signature channels at its signature cells.
    """
    rows, cols, channels = dims
    if min(rows, cols, channels) < 1:
        raise ConfigError("feature dims must be positive")
    if channels < video.labels.n_classes:
        raise ConfigError("need at least one channel per anomaly class")
    block = np.empty((len(clip_starts), rows, cols, channels))
    for t, starts in enumerate(clip_starts):
        rng = np.random.default_rng(np.random.SeedSequence(
            (_FEATURE_TAG, seed, video.video_id, *map(int, starts))))
        seg = rng.standard_normal((rows, cols, channels))
        for cls in _active_classes(video, starts):
            lo, hi = signature_channels(cls, video.labels.n_classes, channels)
            for r, c in signature_cells(cls, rows, cols):
                seg[r, c, lo:hi] += SIGNATURE_OFFSET
        block[t] = seg
    # the block is fresh: check it and take it over without a copy
    return FeatureMaps(Tensor._wrap(ops.check_finite(block, "backbone")))


def _active_classes(video: VideoSpec, starts: Sequence[int]) -> list[int]:
    active = set()
    for span in video.spans:
        if any(span.start <= f <= span.end for f in starts):
            active.add(span.cls)
    return sorted(active)

"""Frame-level scoring of untrimmed videos and the evaluation report.

Inference slides a short window over the video, scores each window as a
single segment through the detection head (no dropout, no randomness), and
averages window scores into per-frame channel scores. The windows go in
chunks of at most :data:`CHUNK_BYTES` of features: one backbone call keys and
draws a chunk, and one :func:`~gigvad.model.head_forward` call scores it, so
a long video never holds the features or the keys of all of its windows at
once. Channel series are then Gaussian-smoothed and the overall series is
the per-frame max over anomaly channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import synthetic_backbone
from .data import MAX_FRAMES, DatasetSpec, VideoSpec, frame_truth
from .errors import ConfigError, DimensionError
from .gig import HeadParams
from .metrics import f1_metrics, roc_auc
from .model import head_forward

DEFAULT_WINDOW = 6
DEFAULT_STRIDE = 3
DEFAULT_SIGMA = 2.0
DEFAULT_TAU = 0.5

# largest smoothing sigma: the kernel's radius, ceil(4 * sigma), stays within
# MAX_FRAMES, so its length is bounded; the workloads use 2.0
MAX_SIGMA = MAX_FRAMES / 4

# feature bytes per backbone and head_forward call: enough windows to
# amortise the fixed cost of a key pass and of a kernel call (8 windows at
# the 8x8x128 shape), few enough that a long video's windows never sit in
# memory at once
CHUNK_BYTES = 512 * 1024


@dataclass
class FrameScoreSeries:
    """Per-frame channel scores (frames x (1+C)); channel 0 is normal."""

    channel_scores: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.channel_scores, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise DimensionError("channel scores must be (frames, 1+C)")
        self.channel_scores = arr

    @property
    def frames(self) -> int:
        return self.channel_scores.shape[0]

    @property
    def overall(self) -> np.ndarray:
        """Per-frame max over the anomaly channels."""
        return self.channel_scores[:, 1:].max(axis=1)


def window_starts(frame_count: int, window: int = DEFAULT_WINDOW,
                  stride: int = DEFAULT_STRIDE) -> list[int]:
    """Start frames of the scoring windows; the last one clamps to the end.

    ``stride`` may not exceed ``window``: a wider step would skip frames,
    whose scores would then be 0/0.
    """
    if frame_count < 1 or window < 1 or stride < 1:
        raise ConfigError("frame count, window, and stride must be positive")
    if stride > window:
        raise ConfigError("stride must not exceed window")
    if frame_count <= window:
        return [0]
    starts = list(range(0, frame_count - window + 1, stride))
    if starts[-1] + window < frame_count:
        starts.append(frame_count - window)
    return starts


def score_video(video: VideoSpec, params: HeadParams,
                dims: tuple[int, int, int], feature_seed: int, top_k: int,
                window: int = DEFAULT_WINDOW,
                stride: int = DEFAULT_STRIDE) -> FrameScoreSeries:
    """Raw per-frame channel scores for one video (pre-smoothing).

    Each window is scored as one segment (T = 1, top-p 1). The windows go
    in chunks of at most :data:`CHUNK_BYTES` of features (at least one window
    each); one :func:`~gigvad.backbone.synthetic_backbone` call keys and
    draws a chunk's noise in one pass, and one
    :func:`~gigvad.model.head_forward` call scores it. A window's features
    depend only on its frames, so the scores equal ``run_head`` on each
    window alone. A frame covered by several windows gets the mean of their
    channel scores, summed in window order.
    """
    starts = window_starts(video.frame_count, window, stride)
    per_chunk = max(1, CHUNK_BYTES // (8 * int(np.prod(dims))))
    last = video.frame_count - 1
    first = np.asarray(starts)
    channel = np.empty((len(starts), 1 + params.n_classes))
    for lo in range(0, len(starts), per_chunk):
        clips = np.minimum(first[lo:lo + per_chunk, None] + np.arange(window),
                           last)
        block = synthetic_backbone(clips, video, dims,
                                   feature_seed).data.data
        channel[lo:lo + len(clips)] = head_forward(
            block.reshape(len(clips), 1, -1, dims[2]),
            params.segment_w.data, params.segment_b.data, top_k, 1)
    sums = np.zeros((video.frame_count, channel.shape[1]))
    counts = np.zeros(video.frame_count)
    # offset i of every window at once; going from the last offset to the
    # first, each frame adds its windows' scores in window order
    for i in reversed(range(window)):
        live = first + i <= last
        sums[first[live] + i] += channel[live]
        counts[first[live] + i] += 1.0
    return FrameScoreSeries(sums / counts[:, None])


def gaussian_smooth(series, sigma: float = DEFAULT_SIGMA) -> np.ndarray:
    """1-D Gaussian smoothing with a normalized truncated kernel.

    The kernel is cut at radius ceil(4*sigma) and renormalized to sum 1;
    boundaries use edge-repeating reflection, so a constant series passes
    through unchanged and values stay inside the input's convex hull.
    """
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError("series must be a non-empty 1-D array")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ConfigError("sigma must be finite and positive")
    if sigma > MAX_SIGMA:
        raise ConfigError(f"sigma must be at most {MAX_SIGMA}")
    radius = int(np.ceil(4.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(arr, radius, mode="symmetric")
    return np.convolve(padded, kernel, mode="valid")


def smooth_series(series: FrameScoreSeries,
                  sigma: float = DEFAULT_SIGMA) -> FrameScoreSeries:
    """Smooth every channel column of a score series independently."""
    smoothed = np.column_stack([
        gaussian_smooth(series.channel_scores[:, c], sigma)
        for c in range(series.channel_scores.shape[1])])
    return FrameScoreSeries(smoothed)


def classify_frames(series: FrameScoreSeries | np.ndarray,
                    tau: float = DEFAULT_TAU) -> np.ndarray:
    """Per-frame class: best anomaly channel where overall >= tau, else 0.

    Ties pick the lowest class index.
    """
    scores = (series.channel_scores if isinstance(series, FrameScoreSeries)
              else np.asarray(series, dtype=np.float64))
    anomaly = scores[:, 1:]
    best = anomaly.argmax(axis=1) + 1
    return np.where(anomaly.max(axis=1) >= tau, best, 0)


@dataclass(frozen=True)
class EvalReport:
    auc: float
    per_class_f1: np.ndarray
    mf1: float
    n_videos: int
    n_frames: int


def evaluate_dataset(dataset: DatasetSpec, params: HeadParams,
                     dims: tuple[int, int, int], top_k: int,
                     window: int = DEFAULT_WINDOW,
                     stride: int = DEFAULT_STRIDE,
                     sigma: float = DEFAULT_SIGMA,
                     tau: float = DEFAULT_TAU) -> EvalReport:
    """Score every video, smooth, and pool frame-level AUC and class F1."""
    dataset.validate()
    all_scores, all_truth, all_pred = [], [], []
    for video in dataset.videos:
        series = smooth_series(
            score_video(video, params, dims, dataset.seed, top_k, window,
                        stride), sigma)
        truth = frame_truth(video)
        all_scores.append(series.overall)
        all_truth.append(truth)
        all_pred.append(classify_frames(series, tau))
    binary = [t > 0 for t in all_truth]
    auc = roc_auc(all_scores, binary)
    per_class, mf1 = f1_metrics(all_pred, all_truth, dataset.n_classes)
    n_frames = int(sum(len(t) for t in all_truth))
    return EvalReport(auc=auc, per_class_f1=per_class, mf1=mf1,
                      n_videos=len(dataset.videos), n_frames=n_frames)


def report_text(report: EvalReport) -> str:
    """Deterministic text form of an evaluation report."""
    lines = [f"videos = {report.n_videos}",
             f"frames = {report.n_frames}",
             f"auc = {report.auc!r}"]
    for cls, value in enumerate(report.per_class_f1, start=1):
        lines.append(f"f1_class_{cls} = {float(value)!r}")
    lines.append(f"mf1 = {report.mf1!r}")
    return "\n".join(lines) + "\n"

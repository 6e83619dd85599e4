"""Dataset descriptions, the synthetic dataset generator, and their file form.

A dataset is a list of videos with frame counts, multi-hot video-level labels,
and per-class anomaly spans. Spans are ground truth owned by the feature
generator and the frame-level evaluator; training itself sees only the
video-level labels. Features are never stored: they are regenerated
deterministically from the dataset seed, so a dataset file stays a few KB.

File format (UTF-8 text)::

    gigvad-dataset v1
    N = 200
    C = 3
    seed = 7
    <id> <frame_count> <label bits> <spans>

Exactly N video lines follow the header; blank lines may trail them, nothing
else may. C is at most MAX_CLASSES and frame counts lie in [1, MAX_FRAMES].
Label bits are C characters of 0/1 (class 1 first). Spans are ``-`` for
none, else comma-separated ``class:start-end`` with inclusive end frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DatasetError
from .fileio import atomic_write_text
from .gig import VideoLabels

MAGIC_LINE = "gigvad-dataset v1"

# largest frame count a video may declare: scoring holds a (frames, 1+C)
# array and a list of window starts, so an unbounded count could ask for
# any amount of memory; the workloads stay below 2,000 frames
MAX_FRAMES = 10 ** 6

# largest anomaly class count and generated video count: labels, heads and
# score arrays grow with the classes, the generator's arrays with the
# videos; the workloads use 3 classes and at most 200 videos
MAX_CLASSES = 64
MAX_VIDEOS = 10 ** 5

# entropy tag separating dataset generation from other seeded streams
_GEN_TAG = 101


@dataclass(frozen=True)
class AnomalySpan:
    """One anomalous interval: class id (1-based) and inclusive frame range."""

    cls: int
    start: int
    end: int


@dataclass
class VideoSpec:
    video_id: int
    frame_count: int
    labels: VideoLabels
    spans: list[AnomalySpan] = field(default_factory=list)

    def validate(self, n_classes: int) -> None:
        if self.video_id < 0:
            raise DatasetError(f"video {self.video_id}: negative id")
        if self.frame_count < 1:
            raise DatasetError(f"video {self.video_id}: empty video")
        if self.frame_count > MAX_FRAMES:
            raise DatasetError(
                f"video {self.video_id}: {self.frame_count} frames, above"
                f" the cap of {MAX_FRAMES}")
        if self.labels.n_classes != n_classes:
            raise DatasetError(f"video {self.video_id}: label width mismatch")
        from_spans = np.zeros(n_classes, dtype=np.int64)
        for s in self.spans:
            if not (1 <= s.cls <= n_classes):
                raise DatasetError(
                    f"video {self.video_id}: span class {s.cls} out of range")
            if not (0 <= s.start <= s.end < self.frame_count):
                raise DatasetError(
                    f"video {self.video_id}: span [{s.start}, {s.end}] outside "
                    f"[0, {self.frame_count})")
            from_spans[s.cls - 1] = 1
        if not np.array_equal(from_spans, self.labels.present):
            raise DatasetError(
                f"video {self.video_id}: label bits disagree with spans")


@dataclass
class DatasetSpec:
    videos: list[VideoSpec]
    n_classes: int
    seed: int

    def validate(self) -> None:
        if self.seed < 0:
            raise DatasetError("dataset seed must be non-negative")
        if not self.videos:
            raise DatasetError("dataset has no videos")
        ids = [v.video_id for v in self.videos]
        if len(set(ids)) != len(ids):
            raise DatasetError("duplicate video ids")
        for v in self.videos:
            v.validate(self.n_classes)

    def video_by_id(self, video_id: int) -> VideoSpec:
        for v in self.videos:
            if v.video_id == video_id:
                return v
        raise DatasetError(f"no video with id {video_id}")


def frame_truth(video: VideoSpec) -> np.ndarray:
    """Per-frame class ids (0 = normal); the earliest span wins on overlap."""
    truth = np.zeros(video.frame_count, dtype=np.int64)
    for s in video.spans:
        region = truth[s.start:s.end + 1]
        region[region == 0] = s.cls
    return truth


def generate_dataset(n_videos: int, n_anomalous: int, n_classes: int,
                     seed: int, frames: tuple[int, int] = (180, 360),
                     cover: tuple[float, float] = (0.3, 0.6),
                     start_id: int = 0,
                     second_span_every: int = 0) -> DatasetSpec:
    """Random dataset with planted spans, deterministic in its arguments.

    ``cover`` bounds the fraction of a video each span occupies; anomaly
    classes cycle so all of them appear when ``n_anomalous >= n_classes``.
    With ``second_span_every = n > 0``, every n-th anomalous video also gets a
    span of the next class (multi-hot label), placed in the other half of the
    video so spans never overlap.
    """
    if not (0 <= n_anomalous <= n_videos):
        raise DatasetError("anomalous count out of range")
    if n_videos > MAX_VIDEOS:
        raise DatasetError(f"{n_videos} videos, above the cap of {MAX_VIDEOS}")
    if n_classes < 1:
        raise DatasetError("need at least one anomaly class")
    if n_classes > MAX_CLASSES:
        raise DatasetError(
            f"{n_classes} classes, above the cap of {MAX_CLASSES}")
    if seed < 0 or start_id < 0:
        raise DatasetError("seed and start id must be non-negative")
    if not (1 <= frames[0] <= frames[1] <= MAX_FRAMES) \
            or not (0 < cover[0] <= cover[1] <= 1):
        raise DatasetError("bad frame range or cover range")
    rng = np.random.default_rng(
        np.random.SeedSequence((_GEN_TAG, seed, start_id, n_videos)))
    flags = np.zeros(n_videos, dtype=np.int64)
    flags[:n_anomalous] = 1
    rng.shuffle(flags)
    videos = []
    anom_index = 0
    for i in range(n_videos):
        frame_count = int(rng.integers(frames[0], frames[1] + 1))
        spans: list[AnomalySpan] = []
        if flags[i]:
            primary = anom_index % n_classes + 1
            double = (second_span_every > 0 and n_classes >= 2
                      and anom_index % second_span_every == second_span_every - 1)
            anom_index += 1
            if double:
                secondary = primary % n_classes + 1
                half = frame_count // 2
                spans.append(_random_span(rng, primary, 0, half, cover))
                spans.append(_random_span(rng, secondary, half,
                                          frame_count, cover))
            else:
                spans.append(_random_span(rng, primary, 0, frame_count, cover))
        labels = VideoLabels.from_classes((s.cls for s in spans), n_classes)
        videos.append(VideoSpec(start_id + i, frame_count, labels, spans))
    spec = DatasetSpec(videos, n_classes, seed)
    spec.validate()
    return spec


def _random_span(rng: np.random.Generator, cls: int, lo: int, hi: int,
                 cover: tuple[float, float]) -> AnomalySpan:
    room = hi - lo
    frac = rng.uniform(cover[0], cover[1])
    length = min(room, max(1, int(round(frac * room))))
    start = lo + int(rng.integers(0, room - length + 1))
    return AnomalySpan(cls, start, start + length - 1)


def default_train_spec(seed: int = 7) -> DatasetSpec:
    """200 trimmed videos (80 normal / 120 anomalous), 3 classes.

    Trimmed means the anomaly dominates the video, so most segments of an
    anomalous video carry its signature.
    """
    return generate_dataset(200, 120, 3, seed, frames=(180, 360),
                            cover=(0.85, 1.0), start_id=0, second_span_every=4)


def default_test_spec(seed: int = 7) -> DatasetSpec:
    """40 held-out untrimmed videos: short spans, ids disjoint from train."""
    return generate_dataset(40, 24, 3, seed, frames=(240, 480),
                            cover=(0.1, 0.3), start_id=200,
                            second_span_every=4)


def format_dataset(spec: DatasetSpec) -> str:
    lines = [MAGIC_LINE,
             f"N = {len(spec.videos)}",
             f"C = {spec.n_classes}",
             f"seed = {spec.seed}"]
    for v in spec.videos:
        bits = "".join(str(int(b)) for b in v.labels.present)
        if v.spans:
            spans = ",".join(f"{s.cls}:{s.start}-{s.end}" for s in v.spans)
        else:
            spans = "-"
        lines.append(f"{v.video_id} {v.frame_count} {bits} {spans}")
    return "\n".join(lines) + "\n"


def write_dataset(path: str | Path, spec: DatasetSpec) -> None:
    atomic_write_text(path, format_dataset(spec))


def parse_dataset(text: str) -> DatasetSpec:
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAGIC_LINE:
        raise DatasetError(f"line 1: expected magic '{MAGIC_LINE}'")
    header: dict[str, int] = {}
    for offset, key in enumerate(("N", "C", "seed")):
        lineno = 2 + offset
        if lineno - 1 >= len(lines):
            raise DatasetError(f"line {lineno}: missing header '{key} = ...'")
        parts = lines[lineno - 1].split("=")
        if len(parts) != 2 or parts[0].strip() != key:
            raise DatasetError(f"line {lineno}: expected '{key} = <int>'")
        try:
            header[key] = int(parts[1].strip())
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: bad integer") from exc
    n, n_classes = header["N"], header["C"]
    if n_classes > MAX_CLASSES:
        raise DatasetError(f"line 3: C = {n_classes}, above the cap of"
                           f" {MAX_CLASSES}")
    body = lines[4:]
    while body and not body[-1].strip():
        body.pop()
    if len(body) != n:  # name the first surplus line or the missing one
        lineno = 5 + max(0, min(len(body), n))
        raise DatasetError(f"line {lineno}: header declares N = {n} video"
                           f" lines, found {len(body)}")
    videos = [_parse_video(line, lineno, n_classes)
              for lineno, line in enumerate(body, start=5)]
    spec = DatasetSpec(videos, n_classes, header["seed"])
    try:
        spec.validate()
    except DatasetError as exc:
        raise DatasetError(f"dataset invalid: {exc}") from exc
    return spec


def _parse_video(line: str, lineno: int, n_classes: int) -> VideoSpec:
    parts = line.split()
    if len(parts) != 4:
        raise DatasetError(
            f"line {lineno}: expected 'id frames bits spans', got {len(parts)}"
            " fields")
    try:
        video_id, frame_count = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise DatasetError(f"line {lineno}: bad integer") from exc
    bits = parts[2]
    if len(bits) != n_classes or set(bits) - {"0", "1"}:
        raise DatasetError(f"line {lineno}: label bits must be {n_classes}"
                           " chars of 0/1")
    labels = VideoLabels(np.array([int(b) for b in bits]))
    spans = []
    if parts[3] != "-":
        for chunk in parts[3].split(","):
            try:
                cls_part, range_part = chunk.split(":")
                start_part, end_part = range_part.split("-")
                spans.append(AnomalySpan(int(cls_part), int(start_part),
                                         int(end_part)))
            except ValueError as exc:
                raise DatasetError(
                    f"line {lineno}: bad span '{chunk}'") from exc
    return VideoSpec(video_id, frame_count, labels, spans)


def read_dataset(path: str | Path) -> DatasetSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc.reason} at byte"
                           f" {exc.start}") from exc
    return parse_dataset(text)

"""The one configuration type, :class:`Config`, and its key = value files.

``Config.__post_init__`` checks every value, so a config that exists is
valid, whether it was parsed, built in code, or derived with
``dataclasses.replace``. Every count has a cap far above every workload:
``segments`` <= MAX_SEGMENTS, ``clips_per_segment`` <= MAX_CLIPS, ``rows``
and ``cols`` <= MAX_GRID, ``channels`` <= MAX_CHANNELS, a feature block
(``segments*rows*cols*channels`` values) <= MAX_FEATURE_ELEMENTS,
``stride`` <= ``window`` <= ``data.MAX_FRAMES``, and ``seed`` and ``epochs``
<= ``data.MAX_ENTROPY`` (one stream-key word each); ``sigma`` <=
``inference.MAX_SIGMA`` bounds the smoothing kernel.

Format: UTF-8 lines of ``key = value``; ``#`` starts a comment; blank lines
ignored. Unknown keys are rejected, missing keys fall back to the documented
defaults, and every diagnostic names the offending line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .data import MAX_ENTROPY, MAX_FRAMES
from .errors import ConfigError
from .fileio import read_text
from .inference import (DEFAULT_SIGMA, DEFAULT_STRIDE, DEFAULT_TAU,
                        DEFAULT_WINDOW, MAX_SIGMA)
from .spatial import default_top_k, default_top_p

# caps on the counts; the widest workload uses 16 segments, 6 clips, an
# 8x8 grid and 128 channels, a block of 2**17 values
MAX_SEGMENTS = 1024
MAX_CLIPS = 1024
MAX_GRID = 256
MAX_CHANNELS = 4096
MAX_FEATURE_ELEMENTS = 2 ** 24  # 128 MiB of float64 per feature block


@dataclass
class Config:
    """Every tunable of the pipeline plus dataset paths and output directory.

    Built only valid: floats finite, seed and epochs in [0, MAX_ENTROPY],
    each count in [1, its cap] (see the module docstring), ``top_k`` in
    [1, rows*cols], ``top_p`` in [1, segments]; either may be ``auto``
    (None), a quarter of the cells / segments.
    """

    segments: int = 8            # T
    clips_per_segment: int = 6
    clip_interval: int = 5       # frames between consecutive clip starts
    batch_size: int = 8          # validated; train() steps once per video
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
    window: int = DEFAULT_WINDOW
    stride: int = DEFAULT_STRIDE
    sigma: float = DEFAULT_SIGMA
    tau: float = DEFAULT_TAU
    train_data: str = ""
    test_data: str = ""
    out_dir: str = "out"

    def __post_init__(self) -> None:
        counts = (self.segments, self.clips_per_segment, self.clip_interval,
                  self.batch_size, self.rows, self.cols, self.channels)
        if any(c < 1 for c in counts):
            raise ConfigError("all counts must be positive")
        for name, cap in (("segments", MAX_SEGMENTS),
                          ("clips_per_segment", MAX_CLIPS),
                          ("rows", MAX_GRID), ("cols", MAX_GRID),
                          ("channels", MAX_CHANNELS), ("window", MAX_FRAMES)):
            if getattr(self, name) > cap:
                raise ConfigError(f"{name} must be at most {cap}")
        if self.segments * self.rows * self.cols * self.channels \
                > MAX_FEATURE_ELEMENTS:
            raise ConfigError("a feature block (segments*rows*cols*channels)"
                              f" must hold at most {MAX_FEATURE_ELEMENTS}"
                              " values")
        for name in ("epochs", "seed"):
            if not (0 <= getattr(self, name) <= MAX_ENTROPY):
                raise ConfigError(f"{name} must lie in [0, {MAX_ENTROPY}]")
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
        if self.window < 1 or self.stride < 1:
            raise ConfigError("window and stride must be positive")
        if self.stride > self.window:
            raise ConfigError("stride must not exceed window")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError("sigma must be finite and positive")
        if self.sigma > MAX_SIGMA:
            raise ConfigError(f"sigma must be at most {MAX_SIGMA}")
        if not math.isfinite(self.tau):
            raise ConfigError("tau must be finite")

    def train_config(self) -> Config:
        """The training settings: the config itself."""
        return self

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


# field annotations are strings here (postponed evaluation)
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "int | None": lambda text: None if text == "auto" else int(text),
}


def _field_parsers() -> dict:
    out = {}
    for f in fields(Config):
        parser = _PARSERS.get(f.type)
        if parser is None:
            raise AssertionError(f"no parser for config field {f.name}")
        out[f.name] = parser
    return out


# built at import, so a field without a parser fails there
_FIELD_PARSERS = _field_parsers()


def parse_config(text: str) -> Config:
    """Parse config text; total: valid Config or a line-numbered diagnostic."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = (p.strip() for p in line.partition("="))
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            values[key] = _FIELD_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad value for '{key}': {value!r}") from exc
    try:
        return Config(**values)
    except ConfigError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_config(path: str | Path) -> Config:
    return parse_config(read_text(path, ConfigError))


def format_config(cfg: Config) -> str:
    """Render the resolved configuration, one ``key = value`` per line."""
    lines = []
    for f in fields(Config):
        value = getattr(cfg, f.name)
        if value is None:
            value = "auto"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"

"""Key = value configuration files covering training, inference, and paths.

Format: UTF-8 lines of ``key = value``; ``#`` starts a comment; blank lines
ignored. Unknown keys are rejected, missing keys fall back to the documented
defaults, and every diagnostic names the offending line.

The value checks live in the ``__post_init__`` of :class:`Config` and of its
base :class:`~gigvad.training.TrainConfig`: a config that exists is valid,
whether it was parsed, built in code, or derived with ``dataclasses.replace``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .inference import (DEFAULT_SIGMA, DEFAULT_STRIDE, DEFAULT_TAU,
                        DEFAULT_WINDOW)
from .training import TrainConfig


def _parse_optional_int(text: str):
    if text == "auto":
        return None
    return int(text)


@dataclass
class Config(TrainConfig):
    """Every tunable of the pipeline plus dataset paths and output directory.

    The training fields come from :class:`TrainConfig`; this class adds the
    inference settings and the paths. ``top_k`` / ``top_p`` accept the
    literal ``auto`` (the default) to derive a quarter of the spatial cells /
    segments.
    """

    window: int = DEFAULT_WINDOW
    stride: int = DEFAULT_STRIDE
    sigma: float = DEFAULT_SIGMA
    tau: float = DEFAULT_TAU
    train_data: str = ""
    test_data: str = ""
    out_dir: str = "out"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window < 1 or self.stride < 1:
            raise ConfigError("window and stride must be positive")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError("sigma must be finite and positive")
        if not math.isfinite(self.tau):
            raise ConfigError("tau must be finite")

    def train_config(self) -> TrainConfig:
        """The training settings: a Config is a TrainConfig."""
        return self


# field annotations are strings here (postponed evaluation)
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "int | None": _parse_optional_int,
}


def _field_parsers() -> dict:
    out = {}
    for f in fields(Config):
        parser = _PARSERS.get(f.type)
        if parser is None:
            raise AssertionError(f"no parser for config field {f.name}")
        out[f.name] = parser
    return out


def parse_config(text: str) -> Config:
    """Parse config text; total: valid Config or a line-numbered diagnostic."""
    parsers = _field_parsers()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = (p.strip() for p in line.partition("="))
        if key not in parsers:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            values[key] = parsers[key](value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad value for '{key}': {value!r}") from exc
    try:
        return Config(**values)
    except ConfigError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_config(path: str | Path) -> Config:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def format_config(cfg: Config) -> str:
    """Render the resolved configuration, one ``key = value`` per line."""
    lines = []
    for f in fields(Config):
        value = getattr(cfg, f.name)
        if value is None:
            value = "auto"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"

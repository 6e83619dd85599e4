"""UTF-8 reads and atomic writes shared by every on-disk format."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write via a temp file in the same directory, then rename over target."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_text(path: str | Path, error: type[Exception]) -> str:
    """A file's UTF-8 text; bytes that are not UTF-8 raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc.reason} at byte"
                    f" {exc.start}") from exc

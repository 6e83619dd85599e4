"""Binary checkpoint format for the two classification heads.

Layout (all integers little-endian)::

    bytes 0..7    magic "GIGVAD01"
    bytes 8..23   C, d, k, p as uint32
    payload       video head weights (1+C, d), video head bias (1+C),
                  segment head weights, segment head bias,
                  as float64 in row-major order
    trailer       uint64 checksum: sum of all preceding bytes mod 2**64

The format is platform-independent; load(save(params)) is bit-exact.
Optimizer state is not persisted: loaded heads carry fresh accumulators.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigError
from .fileio import atomic_write_bytes
from .gig import HeadParams
from .tensor import Tensor

MAGIC = b"GIGVAD01"
_HEADER = struct.Struct("<8s4I")
_MASK64 = (1 << 64) - 1


def payload_floats(n_classes: int, channels: int) -> int:
    """Number of float64 values between header and checksum."""
    out = 1 + n_classes
    return 2 * out * channels + 2 * out


def expected_size(n_classes: int, channels: int) -> int:
    return _HEADER.size + 8 * payload_floats(n_classes, channels) + 8


def _checksum(blob: bytes) -> int:
    return int(np.frombuffer(blob, dtype=np.uint8).sum(dtype=np.uint64)) & _MASK64


def checkpoint_bytes(params: HeadParams, top_k: int, top_p: int) -> bytes:
    if top_k < 1 or top_p < 1:
        raise ConfigError("stored k and p must be positive")
    header = _HEADER.pack(MAGIC, params.n_classes, params.channels,
                          top_k, top_p)
    body = b"".join(
        np.ascontiguousarray(t.data, dtype="<f8").tobytes()
        for t in params.tensors())
    blob = header + body
    return blob + struct.pack("<Q", _checksum(blob))


def save_checkpoint(path: str | Path, params: HeadParams, top_k: int,
                    top_p: int) -> None:
    atomic_write_bytes(path, checkpoint_bytes(params, top_k, top_p))


def parse_checkpoint(blob: bytes) -> tuple[HeadParams, dict]:
    """Decode a checkpoint blob; raises naming the first failed check."""
    if len(blob) < _HEADER.size:
        raise CheckpointError("size mismatch: file shorter than the header")
    magic, n_classes, channels, top_k, top_p = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic: expected {MAGIC!r}")
    if min(n_classes, channels, top_k, top_p) < 1:
        raise CheckpointError("bad header: C, d, k and p must be >= 1")
    size = expected_size(n_classes, channels)
    if len(blob) != size:
        raise CheckpointError(
            f"size mismatch: expected {size} bytes, found {len(blob)}")
    (stored,) = struct.unpack_from("<Q", blob, size - 8)
    if stored != _checksum(blob[:-8]):
        raise CheckpointError("checksum failure: checkpoint is corrupt")

    out = 1 + n_classes
    flat = np.frombuffer(memoryview(blob)[_HEADER.size:-8], dtype="<f8")
    if not np.isfinite(flat).all():
        raise CheckpointError("bad payload: weights must be finite")
    shapes = [(out, channels), (out,), (out, channels), (out,)]
    arrays, pos = [], 0
    for shape in shapes:
        size_ = int(np.prod(shape))
        arrays.append(flat[pos:pos + size_].reshape(shape))
        pos += size_
    tensors = [Tensor(a) for a in arrays]
    accum = {name: np.zeros_like(t.data)
             for name, t in zip(HeadParams.NAMES, tensors)}
    params = HeadParams(*tensors, accum=accum)
    return params, {"n_classes": n_classes, "channels": channels,
                    "top_k": top_k, "top_p": top_p}


def load_checkpoint(path: str | Path) -> tuple[HeadParams, dict]:
    return parse_checkpoint(Path(path).read_bytes())

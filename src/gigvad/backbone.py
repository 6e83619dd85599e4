"""Synthetic feature extractor standing in for a pretrained video backbone.

Each segment's feature map is unit-scale Gaussian noise from the PCG64
stream that ``np.random.SeedSequence((tag, dataset seed, video id, *clip
start frames))`` seeds, so the same sampling always reproduces the same bits.
When an anomaly class is active during any sampled clip of a segment, a
class-specific channel block at a class-specific spatial cell receives a
constant additive offset: anomalies are localized in space and channels,
which is what the spatial reasoning stage has to exploit.

Each call keys all of its segments in one numpy pass over their entropy
words (:func:`_pcg64_keys`), giving each segment the four words that a
per-segment ``SeedSequence`` would have given PCG64, bit for bit. It then
sets a generator of its own to each segment's PCG64 state in turn
(:func:`_set_state`) and draws the segment's noise, so concurrent calls share
no generator. A pass has a fixed cost of about a hundred numpy calls, so a
caller that needs many segments, such as one chunk of scoring windows, asks
for them in one call; that is what makes it cheaper than one
``SeedSequence`` per segment.
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

# NumPy's SeedSequence (numpy/random/bit_generator.pyx): a pool of 4 uint32
# words, its two hash chains and its mixing multipliers; and the 128-bit LCG
# multiplier of PCG64 (O'Neill 2014, "PCG: a family of simple fast
# space-efficient statistically good algorithms for random number generation")
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _chain(init: int, mult: int, n: int) -> np.ndarray:
    """The first ``n`` values ``init * mult**j`` mod 2**32 of a hash chain."""
    return np.multiply.accumulate(
        np.array([init] + [mult] * (n - 1), dtype=np.uint32), dtype=np.uint32)


def _cross_chain() -> list[tuple[np.ndarray, np.ndarray]]:
    """Xor and multiply values of the pool's 12 mixing calls, per source.

    Entry ``src`` holds the calls that mix pool word ``src`` into the other
    three, at their columns; its own column holds a dummy 0.
    """
    cross = np.zeros((_POOL, 2, _POOL), dtype=np.uint32)
    pairs = [(s, d) for s in range(_POOL) for d in range(_POOL) if d != s]
    for j, (src, dst) in enumerate(pairs, start=_POOL):
        cross[src, :, dst] = _CHAIN_A[j:j + 2]
    return [(xor, mult) for xor, mult in cross]


# chain A's first 16 calls load the pool (4) and mix it (12); chain B's 8
# calls make generate_state's output words, going over the pool twice
_CHAIN_A = _chain(_INIT_A, _MULT_A, _POOL * _POOL + 1)
_LOAD = _CHAIN_A[:_POOL], _CHAIN_A[1:_POOL + 1]
_CROSS = _cross_chain()
_CHAIN_B = _chain(_INIT_B, _MULT_B, 2 * _POOL + 1)
_OUT = _CHAIN_B[:-1].reshape(2, _POOL), _CHAIN_B[1:].reshape(2, _POOL)


def _hashmix(values: np.ndarray, xor, mult) -> np.ndarray:
    values = values ^ xor
    values *= mult
    values ^= values >> 16
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x
    mixed -= _MIX_R * y
    mixed ^= mixed >> 16
    return mixed


def _seed_state(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row.

    ``words`` is an (n, w) uint32 matrix of entropy words. Each step of
    SeedSequence's loop runs on all n rows at once; the steps that do not
    depend on each other run as one (n, 4) operation.
    """
    n, w = words.shape
    pool = np.zeros((n, _POOL), dtype=np.uint32)
    pool[:, :min(w, _POOL)] = words[:, :_POOL]
    pool = _hashmix(pool, *_LOAD)
    for src, (xor, mult) in enumerate(_CROSS):
        mixed = _mix(pool, _hashmix(pool[:, src, None], xor, mult))
        mixed[:, src] = pool[:, src]
        pool = mixed
    extra = w - _POOL
    if extra > 0:
        # each word past the pool is mixed into all 4 pool words in turn
        chain = _chain(_INIT_A, _MULT_A, _POOL * (_POOL + extra) + 1)
        hashed = _hashmix(words[:, _POOL:, None],
                          chain[_POOL * _POOL:-1].reshape(extra, _POOL),
                          chain[_POOL * _POOL + 1:].reshape(extra, _POOL))
        for i in range(extra):
            pool = _mix(pool, hashed[:, i])
    state = _hashmix(pool[:, None, :], *_OUT)
    return state.reshape(n, 2 * _POOL).view(np.uint64)


def _words(row: Sequence[int]) -> list[int]:
    """A row's entropy words as SeedSequence splits it: each value in
    little-endian uint32 words, a 0 as one word."""
    out = []
    for value in map(int, row):
        if value < 0:
            raise ValueError("entropy values must be non-negative")
        out.append(value & _M32)
        while value > _M32:
            value >>= 32
            out.append(value & _M32)
    return out


def _pcg64_keys(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` per row, (n, 4).

    These are the words ``PCG64(SeedSequence(row))`` seeds itself with;
    :func:`_set_state` puts a generator there. Rows are tuples of
    non-negative ints, and rows of the same word count are hashed in one
    :func:`_seed_state` pass.
    """
    flat = [value for row in rows for value in row]
    if flat and not (0 <= min(flat) and max(flat) <= _M32):
        rows = [_words(row) for row in rows]
    by_count: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_count.setdefault(len(row), []).append(i)
    keys = np.empty((len(rows), 4), dtype=np.uint64)
    for count, index in by_count.items():
        words = np.array([rows[i] for i in index], dtype=np.uint32)
        keys[index] = _seed_state(words.reshape(len(index), count))
    return keys


def _set_state(generator: np.random.Generator, key: np.ndarray) -> None:
    """Put a PCG64 generator where ``PCG64(SeedSequence(row))`` starts.

    ``key`` is the row's :func:`_pcg64_keys` entry. PCG64's seeding step
    takes the increment ``2 * seq + 1`` and one LCG step past
    ``inc + state``, in 128-bit integers.
    """
    s_hi, s_lo, q_hi, q_lo = key.tolist()
    inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
    generator.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0}


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

    ``clip_starts`` holds one list of clip start frames per segment. All
    segments are keyed in one :func:`_pcg64_keys` pass, and each segment's
    noise is drawn from its own key. Each class active at a segment's clips
    adds :data:`SIGNATURE_OFFSET` to its signature channels at its signature
    cells.
    """
    rows, cols, channels = dims
    if min(rows, cols, channels) < 1:
        raise ConfigError("feature dims must be positive")
    if channels < video.labels.n_classes:
        raise ConfigError("need at least one channel per anomaly class")
    keys = _pcg64_keys([(_FEATURE_TAG, seed, video.video_id, *starts)
                        for starts in clip_starts])
    block = np.empty((len(clip_starts), rows, cols, channels))
    # a generator of this call's own, so concurrent calls share no state
    noise = np.random.Generator(np.random.PCG64())
    for t, key in enumerate(keys):
        _set_state(noise, key)
        noise.standard_normal(out=block[t])
    if video.spans:
        frames = np.array([f for starts in clip_starts for f in starts],
                          dtype=np.int64)
        owner = np.repeat(np.arange(len(clip_starts)),
                          [len(starts) for starts in clip_starts])
        active: dict[int, np.ndarray] = {}
        for span in video.spans:
            hit = (span.start <= frames) & (frames <= span.end)
            segments = active.setdefault(
                span.cls, np.zeros(len(clip_starts), dtype=bool))
            segments[owner[hit]] = True
        # every offset is the same constant: the classes' order moves no bit
        for cls, segments in active.items():
            lo, hi = signature_channels(cls, video.labels.n_classes, channels)
            for r, c in signature_cells(cls, rows, cols):
                block[segments, r, c, lo:hi] += SIGNATURE_OFFSET
    # the block is fresh: check it and take it over without a copy
    return FeatureMaps(Tensor._wrap(ops.check_finite(block, "backbone")))

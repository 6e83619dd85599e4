"""Synthetic feature extractor standing in for a pretrained video backbone.

Each segment's feature map is unit-scale Gaussian noise from the PCG64
stream that ``np.random.SeedSequence((tag, dataset seed, video id, *clip
start frames))`` seeds, so the same sampling always reproduces the same bits.
When an anomaly class is active during any sampled clip of a segment, a
class-specific channel block at a class-specific spatial cell receives a
constant additive offset: anomalies are localized in space and channels,
which is what the spatial reasoning stage has to exploit.

Every entropy value is one uint32 word (``data.MAX_ENTROPY`` caps seeds and
ids) and a call's segments have equal clip counts, so a call's stream keys
are one (T, 3 + C) word matrix. One numpy pass hashes it (:func:`_pcg64_keys`)
into the four words a per-segment ``SeedSequence`` would give PCG64, bit for
bit. The call then sets a generator of its own to each segment's state in
turn (:func:`_set_state`) and draws the segment's noise, so concurrent calls
share no generator. A pass costs about a hundred numpy calls, so a caller
that needs many segments asks for them in one call; that is what makes it
cheaper than one ``SeedSequence`` per segment. Scoring asks for a chunk of
windows in one :func:`synthetic_backbone` call, and training for the
segments of a chunk of videos in one :func:`_video_blocks` call, the
multi-video core that :func:`synthetic_backbone` runs for one video.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import ops
from .data import MAX_ENTROPY, VideoSpec
from .errors import ConfigError, DimensionError
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
_M128 = (1 << 128) - 1


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


def _pcg64_keys(
        entropy: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` per row, (n, 4).

    ``entropy`` is an (n, w) integer matrix, one entropy value per entry,
    each in [0, 2**32): SeedSequence takes such a value as one uint32 word,
    so all n rows are hashed in one :func:`_seed_state` pass. The keys are
    the words ``PCG64(SeedSequence(row))`` seeds itself with;
    :func:`_set_state` puts a generator there.
    """
    entropy = np.asarray(entropy)
    if entropy.size and not (0 <= entropy.min()
                             and entropy.max() <= MAX_ENTROPY):
        raise ValueError("entropy values must lie in [0, 2**32)")
    return _seed_state(entropy.astype(np.uint32))


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


def synthetic_backbone(clip_starts: Sequence[Sequence[int]] | np.ndarray,
                       video: VideoSpec, dims: tuple[int, int, int],
                       seed: int) -> FeatureMaps:
    """Feature block of extents (T, w, h, d) for the sampled clips.

    ``clip_starts`` is a (T, C) matrix of clip start frames, one row of
    equal length per segment, with T >= 1. The block is
    :func:`_video_blocks` of this one video.
    """
    try:
        clips = np.asarray(clip_starts, dtype=np.int64)
    except ValueError as exc:
        raise DimensionError("clip lists must all have one length") from exc
    if clips.ndim != 2 or not len(clips):
        raise DimensionError("clip starts must be a (T, C) matrix, T >= 1")
    block = _video_blocks(clips[None], [video], dims, seed)[0]
    return FeatureMaps(Tensor._wrap(block))


def _video_blocks(clips: np.ndarray, videos: Sequence[VideoSpec],
                  dims: tuple[int, int, int], seed: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Feature blocks (n, T, w, h, d) of n videos' sampled clips.

    ``clips`` is an (n, T, C) int64 array of clip start frames, row i
    sampled from ``videos[i]``. The n * T rows (tag, seed, video id, *clip
    starts) are keyed in one :func:`_pcg64_keys` pass, and each segment's
    noise is drawn from its own key. Each class active at a segment's clips
    adds :data:`SIGNATURE_OFFSET` to its signature channels at its signature
    cells. A video's block depends on its own clips alone, so it holds the
    same bits whichever videos share the call. With ``out``, an array of at
    least n such blocks, the blocks are written to its first n rows.
    """
    rows, cols, channels = dims
    if min(rows, cols, channels) < 1:
        raise ConfigError("feature dims must be positive")
    if channels < max(video.labels.n_classes for video in videos):
        raise ConfigError("need at least one channel per anomaly class")
    n, t, width = clips.shape
    entropy = np.empty((n, t, 3 + width), dtype=np.int64)
    entropy[..., :2] = _FEATURE_TAG, seed
    entropy[..., 2] = [[video.video_id] for video in videos]
    entropy[..., 3:] = clips
    block = np.empty((n, t, rows, cols, channels)) if out is None else out[:n]
    segments = block.reshape(n * t, rows, cols, channels)
    # a generator of this call's own, so concurrent calls share no state
    noise = np.random.Generator(np.random.PCG64())
    for row, key in enumerate(_pcg64_keys(entropy.reshape(n * t, -1))):
        _set_state(noise, key)
        noise.standard_normal(out=segments[row])
    for video, video_clips, video_block in zip(videos, clips, block):
        active: dict[int, np.ndarray] = {}
        for span in video.spans:
            hit = ((span.start <= video_clips)
                   & (video_clips <= span.end)).any(axis=1)
            active[span.cls] = active.get(span.cls, False) | hit
        # every offset is the same constant: the classes' order moves no bit
        for cls, hits in active.items():
            lo, hi = signature_channels(cls, video.labels.n_classes,
                                        channels)
            for r, c in signature_cells(cls, rows, cols):
                video_block[hits, r, c, lo:hi] += SIGNATURE_OFFSET
    # every value was just written: check them and hand them over uncopied
    return ops.check_finite(block, "backbone")

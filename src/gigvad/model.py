"""The detection head: the tape reference and the plain-numpy kernel.

:func:`run_head` and :func:`video_loss` compose the head from the
differentiable primitives of :mod:`gigvad.ops` and record it on a
:class:`~gigvad.tensor.GradTape`; they are the reference the kernel is tested
against. :func:`head_forward` and :func:`head_step` compute the same values
with numpy arrays alone. Only the two affine heads learn, so the kernel
differentiates the four head tensors in closed form and never builds the
feature gradient. Every expression, and the order in which gradient parts
add up, follows the primitives', so both paths agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, DimensionError
from .gig import (FeatureMaps, HeadParams, VideoLabels, enhance,
                  global_pattern, video_level_loss, video_overall_score)
from .losses import (LossBreakdown, multiclass_loss, segment_overall_loss,
                     sparsity_loss, total_loss)
from .spatial import (ConsensusScore, consensus, relation_scores,
                      segment_patterns, segment_scores)
from .tensor import Tensor


@dataclass
class HeadOutputs:
    """Every intermediate of one video's pass through the detection head."""

    pattern: Tensor            # (d,) global pattern vector
    enhanced: FeatureMaps      # gated feature block
    relevance: Tensor          # (T, w, h) cosine relevance map
    patterns: Tensor           # (T, d) per-segment pattern vectors
    scores: Tensor             # (T, 1+C) per-segment class probabilities
    consensus: ConsensusScore  # per-class top-p consensus
    video_score: Tensor        # scalar overall score from the pattern head


def run_head(feats: FeatureMaps, params: HeadParams, top_k: int, top_p: int,
             dropout_rate: float = 0.0, training: bool = False,
             rng: np.random.Generator | None = None) -> HeadOutputs:
    """Forward pass: pattern mining, attention, spatial reasoning, consensus.

    Dropout (training only) hits the two head inputs: the pattern vector
    before the video head, and the segment pattern vectors before the segment
    head. The raw pattern vector still drives attention and relevance.
    """
    pattern = global_pattern(feats)
    enhanced = enhance(feats, pattern)
    pattern_in = ops.dropout(pattern, dropout_rate, training, rng)
    video_score = video_overall_score(pattern_in, params)
    relevance = relation_scores(pattern, enhanced)
    patterns = segment_patterns(enhanced, relevance, top_k)
    scores = segment_scores(patterns, params, dropout_rate, training, rng)
    cons = consensus(scores, top_p)
    return HeadOutputs(pattern=pattern, enhanced=enhanced, relevance=relevance,
                       patterns=patterns, scores=scores, consensus=cons,
                       video_score=video_score)


def video_loss(feats: FeatureMaps, params: HeadParams, labels: VideoLabels,
               top_k: int, top_p: int,
               weights: tuple[float, float, float],
               dropout_rate: float = 0.0, training: bool = False,
               rng: np.random.Generator | None = None,
               ) -> tuple[Tensor, LossBreakdown]:
    """All four supervision terms for one video, combined in-graph."""
    out = run_head(feats, params, top_k, top_p, dropout_rate, training, rng)
    flag = labels.any_anomaly
    return total_loss(
        multiclass=multiclass_loss(out.consensus, labels),
        segment_overall=segment_overall_loss(out.consensus, flag),
        video_overall=video_level_loss(out.video_score, flag),
        sparsity=sparsity_loss(out.scores),
        weights=weights,
    )


def _select(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pattern vectors (N, d) and top-k segment patterns (N, T, d) of a
    (N, T, M, d) stack of feature blocks: max-pool, gate, cosine, top-k."""
    n, t, m, d = x.shape
    if not (1 <= k <= m):
        raise ConfigError(f"k={k} out of range [1, {m}]")
    pattern = x.reshape(n, t * m, d).max(axis=1)
    enhanced = x * ops.sigmoid_values(pattern)[:, None, None, :] + x
    rows = enhanced.reshape(n, t * m, d)
    nv = np.sqrt(pattern[:, None, :] @ pattern[:, :, None])[:, 0]
    nx = np.sqrt(np.einsum("nij,nij->ni", rows, rows))
    dots = (rows @ pattern[:, :, None])[:, :, 0]
    live = (nx >= ops.COSINE_NORM_GUARD) & (nv >= ops.COSINE_NORM_GUARD)
    relevance = np.where(live, dots / np.where(live, nv * nx, 1.0), 0.0)
    sel = np.argsort(-relevance.reshape(n, t, m), axis=-1,
                     kind="stable")[..., :k]
    picked = np.take_along_axis(enhanced, sel[..., None], axis=2)
    return pattern, picked.sum(axis=2) / k


def _segment_probs(patterns: np.ndarray, segment_w: np.ndarray,
                   segment_b: np.ndarray) -> np.ndarray:
    """Segment head on (..., T, d) pattern rows: (..., T, 1+C)
    probabilities."""
    # an overflow is caught by check_finite, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        logits = patterns @ segment_w.T + segment_b
    return ops.sigmoid_values(ops.check_finite(logits, "affine"))


def _top_p(scores: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean of the p best segments of (..., T, 1+C) scores, and
    the picked segment indices (..., 1+C, p)."""
    t = scores.shape[-2]
    if not (1 <= p <= t):
        raise ConfigError(f"p={p} out of range [1, {t}]")
    colmajor = scores.swapaxes(-1, -2)
    sel = np.argsort(-colmajor, axis=-1, kind="stable")[..., :p]
    return np.take_along_axis(colmajor, sel, axis=-1).sum(axis=-1) / p, sel


def head_forward(x: np.ndarray, segment_w: np.ndarray, segment_b: np.ndarray,
                 k: int, p: int) -> np.ndarray:
    """Consensus channel scores (N, 1+C) of N feature blocks (N, T, M, d).

    Block n is one video (or one scoring window when T = 1) with M spatial
    cells. Row n equals ``run_head(...).consensus.channel_scores`` for that
    block, bit for bit; the video head, which no score reads, is skipped.
    """
    if x.ndim != 4 or segment_w.shape[1:] != x.shape[3:]:
        raise DimensionError("features must be (N, T, M, d) with d equal to"
                             " the head's input extent")
    _, patterns = _select(x, k)
    return _top_p(_segment_probs(patterns, segment_w, segment_b), p)[0]


def head_step(pattern: np.ndarray, patterns: np.ndarray, heads,
              target: np.ndarray, p: int,
              weights: tuple[float, float, float],
              ) -> tuple[LossBreakdown, list[np.ndarray]]:
    """The four losses of one video and the gradients of the four heads.

    ``pattern`` (d,) and ``patterns`` (T, d) are the video's head inputs:
    its :func:`_select` rows, each times its dropout mask in training (the
    pattern-vector mask is drawn first, then the segment-pattern mask).
    ``heads`` are the arrays named by ``HeadParams.NAMES`` in that order,
    and ``target`` the 1+C extended label. With the masks that
    ``video_loss(..., training=True)`` draws, the result equals that loss
    and ``GradTape.gradients`` of its total with respect to
    ``HeadParams.tensors()``, bit for bit.
    """
    video_w, video_b, segment_w, segment_b = heads
    t = len(patterns)
    with np.errstate(over="ignore", invalid="ignore"):
        vlogits = video_w @ pattern + video_b
    vprobs = ops.sigmoid_values(ops.check_finite(vlogits, "affine"))
    vwin = 1 + vprobs[1:].argmax()
    scores = _segment_probs(patterns, segment_w, segment_b)
    channel, sel = _top_p(scores, p)
    cwin = 1 + channel[1:].argmax()
    segs = np.arange(t)
    swin = 1 + scores[:, 1:].argmax(axis=1)

    w1, w2, w3 = (float(w) for w in weights)
    flag = 1.0 - target[0]
    s_mc, in_mc = ops.clamp_probs(channel)
    s_so, in_so = ops.clamp_probs(channel[cwin])
    s_vo, in_vo = ops.clamp_probs(vprobs[vwin])
    multiclass = float(np.mean(ops.bce_values(s_mc, target)))
    segment_overall = float(ops.bce_values(s_so, flag))
    video_overall = float(ops.bce_values(s_vo, flag))
    sparsity = float(scores[segs, swin].sum())
    video_segment = multiclass + (segment_overall * w1 + video_overall * w2)
    total = video_segment + sparsity * w3
    ops.check_finite(np.array([video_segment, total]), "loss")
    breakdown = LossBreakdown(multiclass=multiclass,
                              segment_overall=segment_overall,
                              video_overall=video_overall, sparsity=sparsity,
                              video_segment=video_segment, total=total)

    # d total / d channel scores: the bce_mean part, then the overall max
    g_channel = ops.bce_slope(s_mc, in_mc, target) / len(target)
    g_channel[cwin] += w1 * ops.bce_slope(s_so, in_so, flag)
    # d total / d segment scores: the sparsity part, then the top-p part
    g_scores = np.zeros_like(scores)
    g_scores[segs, swin] = w3
    g_topp = np.zeros((len(channel), t))
    np.put_along_axis(g_topp, sel, g_channel[:, None] / p, axis=-1)
    g_scores += g_topp.T
    g_logits = g_scores * scores * (1.0 - scores)
    g_vprobs = np.zeros_like(vprobs)
    g_vprobs[vwin] = w2 * ops.bce_slope(s_vo, in_vo, flag)
    g_vlogits = g_vprobs * vprobs * (1.0 - vprobs)
    return breakdown, [np.outer(g_vlogits, pattern), g_vlogits,
                       g_logits.T @ patterns, g_logits.sum(axis=0)]

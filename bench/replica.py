"""Traced replicas of the training loop and the window-scoring loop.

The replicas re-drive ``gigvad.training.train`` and
``gigvad.inference.evaluate_dataset`` from the package's public functions and
put a span around every call into a layer. They must stay bit-identical to
the loops they copy: the benchmark compares their checkpoint, loss history,
head outputs, frame scores and report with what ``train()``,
``run_head``, ``score_video`` and ``gigvad eval`` produce, and fails the
run when a change to the package has made the copy stale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from gigvad import (EvalReport, FrameScoreSeries, GradTape, HeadOutputs,
                    HeadParams, LossBreakdown, adagrad_step, classify_frames,
                    consensus, dropout, enhance, f1_metrics, frame_truth,
                    global_pattern, hflip_augment, multiclass_loss,
                    relation_scores, roc_auc, run_head, sample_segments,
                    score_video, segment_overall_loss, segment_patterns,
                    segment_scores, smooth_series, sparsity_loss,
                    synthetic_backbone, total_loss, video_level_loss,
                    video_overall_score, window_starts)
from gigvad.backbone import signature_cells
from gigvad.training import (_INIT_TAG, _SHUFFLE_TAG, _VIDEO_TAG,
                             _epoch_breakdown)

# span of the replica checks and counts, which are not traced work
CHECK = "trace.check"
# head outputs are compared with run_head's for every video step of the
# first epoch: later epochs run the same code on other parameters
VERIFY_EPOCHS = 1
# raw frame scores are compared with score_video's for the first test
# videos: every video takes the same path, and each check costs a video
VERIFY_VIDEOS = 2


class Tracer:
    """In-memory spans: name, start, end and the index of the parent span.

    Replica checks run under a :data:`CHECK` span, so that
    :meth:`work_seconds` can take them out of the loop they sit in.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def durations(self) -> dict[str, np.ndarray]:
        """Span durations in seconds, grouped by span name in record order."""
        dur = np.array(self.ends) - np.array(self.starts)
        names = np.array(self.names)
        return {n: dur[names == n] for n in dict.fromkeys(self.names)}

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct children."""
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        child = parents >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parents[child], dur[child])
        return dur - covered

    def work_seconds(self, root: str) -> float:
        """Summed duration of the ``root`` spans less the check spans that
        are their direct children."""
        dur = np.array(self.ends) - np.array(self.starts)
        names = np.array(self.names)
        parents = np.array(self.parents, dtype=np.int64)
        checks = np.flatnonzero(names == CHECK)
        inside = checks[names[parents[checks]] == root]
        return float(dur[names == root].sum() - dur[inside].sum())


class _Span:
    # a slotted class rather than contextlib.contextmanager: it runs inside
    # the spans it times, so it is kept cheap
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        self.index = len(t.names)
        t.names.append(self.name)
        t.parents.append(t._stack[-1] if t._stack else -1)
        t.ends.append(0.0)
        t._stack.append(self.index)
        t.starts.append(time.perf_counter())

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.ends[self.index] = time.perf_counter()
        t._stack.pop()


@dataclass
class TrainReplica:
    params: HeadParams
    history: list[LossBreakdown]
    heads_checked: int = 0
    head_mismatches: list[str] = field(default_factory=list)
    anomalous_segments: int = 0
    signature_hits: int = 0


def _staged_head(feats, params, k, p, rate, rng, span) -> HeadOutputs:
    """``run_head`` in training mode, one span per stage."""
    with span("gig.global_pattern"):
        pattern = global_pattern(feats)
    with span("gig.enhance"):
        enhanced = enhance(feats, pattern)
    pattern_in = dropout(pattern, rate, True, rng)
    with span("gig.video_overall_score"):
        video_score = video_overall_score(pattern_in, params)
    with span("spatial.relation_scores"):
        relevance = relation_scores(pattern, enhanced)
    with span("spatial.segment_patterns"):
        patterns = segment_patterns(enhanced, relevance, k)
    with span("spatial.segment_scores"):
        scores = segment_scores(patterns, params, rate, True, rng)
    with span("spatial.consensus"):
        cons = consensus(scores, p)
    return HeadOutputs(pattern=pattern, enhanced=enhanced, relevance=relevance,
                       patterns=patterns, scores=scores, consensus=cons,
                       video_score=video_score)


def _head_arrays(out: HeadOutputs) -> dict[str, np.ndarray]:
    return {"pattern": out.pattern.data, "enhanced": out.enhanced.data.data,
            "relevance": out.relevance.data, "patterns": out.patterns.data,
            "scores": out.scores.data,
            "consensus": out.consensus.channel_scores.data,
            "overall": out.consensus.overall.data,
            "video_score": out.video_score.data}


def _signature_hits(out: HeadOutputs, starts, video, k: int,
                    flipped: bool) -> tuple[int, int]:
    """(anomalous segments, those whose top-k cells hold a planted cell)."""
    relevance = out.relevance.data
    t_count, rows, cols = relevance.shape
    top = np.argsort(-relevance.reshape(t_count, -1), axis=1,
                     kind="stable")[:, :k]
    anomalous = hits = 0
    for t, seg_starts in enumerate(starts):
        active = {s.cls for s in video.spans
                  if any(s.start <= f <= s.end for f in seg_starts)}
        if not active:
            continue
        anomalous += 1
        planted = {(rows - 1 - r if flipped else r) * cols + c
                   for cls in active
                   for r, c in signature_cells(cls, rows, cols)}
        hits += bool(planted.intersection(top[t].tolist()))
    return anomalous, hits


def traced_train(dataset, cfg, tracer: Tracer) -> TrainReplica:
    """``train(dataset, cfg)`` with spans; head outputs of the first
    :data:`VERIFY_EPOCHS` epochs are checked against ``run_head``."""
    span = tracer.span
    dataset.validate()
    init_rng = np.random.default_rng(
        np.random.SeedSequence((cfg.seed, _INIT_TAG)))
    params = HeadParams.initialize(cfg.channels, dataset.n_classes, init_rng)
    k, p, weights = cfg.resolved_k, cfg.resolved_p, cfg.weights
    result = TrainReplica(params=params, history=[])
    with span("training.train"):
        for epoch in range(1, cfg.epochs + 1):
            shuffle_rng = np.random.default_rng(
                np.random.SeedSequence((cfg.seed, _SHUFFLE_TAG, epoch)))
            order = shuffle_rng.permutation(len(dataset.videos))
            term_sums = np.zeros(4)
            for pos in order:
                video = dataset.videos[int(pos)]
                seed_seq = (cfg.seed, _VIDEO_TAG, epoch, video.video_id)
                with span("training.video_step"):
                    rng = np.random.default_rng(np.random.SeedSequence(seed_seq))
                    with span("training.sample_segments"):
                        starts = sample_segments(
                            video.frame_count, cfg.segments,
                            cfg.clips_per_segment, cfg.clip_interval, rng)
                    with span("backbone.synthesize"):
                        raw = synthetic_backbone(starts, video, cfg.dims,
                                                 dataset.seed)
                    with span("training.hflip_augment"):
                        feats = hflip_augment(raw, cfg.flip_prob, rng)
                    with GradTape() as tape:
                        with span("model.run_head"):
                            out = _staged_head(feats, params, k, p,
                                               cfg.dropout, rng, span)
                        with span("losses.assembly"):
                            flag = video.labels.any_anomaly
                            total, bd = total_loss(
                                multiclass=multiclass_loss(out.consensus,
                                                           video.labels),
                                segment_overall=segment_overall_loss(
                                    out.consensus, flag),
                                video_overall=video_level_loss(
                                    out.video_score, flag),
                                sparsity=sparsity_loss(out.scores),
                                weights=weights)
                    with span("tensor.gradients"):
                        grads = tape.gradients(total, params.tensors())
                    before = params.tensors()
                    with span("training.adagrad_step"):
                        adagrad_step(params, grads, cfg.learning_rate)
                    term_sums += (bd.multiclass, bd.segment_overall,
                                  bd.video_overall, bd.sparsity)
                with span(CHECK):
                    anomalous, hits = _signature_hits(out, starts, video, k,
                                                      feats is not raw)
                    result.anomalous_segments += anomalous
                    result.signature_hits += hits
                    if epoch <= VERIFY_EPOCHS:
                        _verify_head(result, out, raw, before, video, cfg,
                                     seed_seq, k, p)
            result.history.append(
                _epoch_breakdown(term_sums / len(dataset.videos), weights))
    return result


def _verify_head(result: TrainReplica, out: HeadOutputs, raw, before, video,
                 cfg, seed_seq, k: int, p: int) -> None:
    """Replay the step's generator draws and compare with ``run_head``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_seq))
    sample_segments(video.frame_count, cfg.segments, cfg.clips_per_segment,
                    cfg.clip_interval, rng)
    feats = hflip_augment(raw, cfg.flip_prob, rng)
    ref = run_head(feats, HeadParams(*before, accum={}), k, p, cfg.dropout,
                   True, rng)
    result.heads_checked += 1
    mine, theirs = _head_arrays(out), _head_arrays(ref)
    for name, arr in mine.items():
        if not np.array_equal(arr, theirs[name]):
            result.head_mismatches.append(f"video {video.video_id}: {name}")


def traced_eval(dataset, params: HeadParams, dims, top_k: int, window: int,
                stride: int, sigma: float, tau: float,
                tracer: Tracer) -> tuple[EvalReport, list[str]]:
    """``evaluate_dataset`` with spans around each window and stage; the
    raw frame scores of the first :data:`VERIFY_VIDEOS` videos are checked
    against ``score_video``."""
    span = tracer.span
    mismatches = []
    with span("inference.evaluate"):
        dataset.validate()
        all_scores, all_truth, all_pred = [], [], []
        for index, video in enumerate(dataset.videos):
            with span("inference.score_video"):
                sums = np.zeros((video.frame_count, 1 + params.n_classes))
                counts = np.zeros(video.frame_count)
                for start in window_starts(video.frame_count, window, stride):
                    with span("inference.window"):
                        frames = [min(start + i, video.frame_count - 1)
                                  for i in range(window)]
                        with span("backbone.synthesize_window"):
                            feats = synthetic_backbone([frames], video, dims,
                                                       dataset.seed)
                        with span("model.run_head_window"):
                            out = run_head(feats, params, top_k=top_k, top_p=1)
                        channel = out.consensus.channel_scores.data
                        stop = min(start + window, video.frame_count)
                        sums[start:stop] += channel
                        counts[start:stop] += 1.0
                raw = FrameScoreSeries(sums / counts[:, None])
            if index < VERIFY_VIDEOS:
                with span(CHECK):
                    ref = score_video(video, params, dims, dataset.seed,
                                      top_k, window, stride)
                    if not np.array_equal(raw.channel_scores,
                                          ref.channel_scores):
                        mismatches.append(
                            f"video {video.video_id}: frame scores")
            with span("inference.smooth_series"):
                series = smooth_series(raw, sigma)
            truth = frame_truth(video)
            all_scores.append(series.overall)
            all_truth.append(truth)
            with span("inference.classify_frames"):
                all_pred.append(classify_frames(series, tau))
        binary = [t > 0 for t in all_truth]
        with span("metrics.roc_auc"):
            auc = roc_auc(all_scores, binary)
        with span("metrics.f1_metrics"):
            per_class, mf1 = f1_metrics(all_pred, all_truth, dataset.n_classes)
        n_frames = int(sum(len(t) for t in all_truth))
    return EvalReport(auc=auc, per_class_f1=per_class, mf1=mf1,
                      n_videos=len(dataset.videos),
                      n_frames=n_frames), mismatches

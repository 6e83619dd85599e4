"""Sampling, the synthetic backbone, augmentation, Adagrad, and the loop."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gigvad import backbone, training
from gigvad.backbone import (_FEATURE_TAG, SIGNATURE_OFFSET, _pcg64_keys,
                             _set_state, signature_cells, signature_channels,
                             synthetic_backbone)
from gigvad.checkpoint import checkpoint_bytes
from gigvad.config import Config
from gigvad.data import (MAX_ENTROPY, AnomalySpan, DatasetSpec, VideoSpec,
                         generate_dataset)
from gigvad.errors import (ConfigError, DatasetError, DimensionError,
                           NumericError)
from gigvad.gig import FeatureMaps, HeadParams, VideoLabels
from gigvad.inference import score_video
from gigvad.model import head_step
from gigvad.ops import dropout
from gigvad.tensor import Tensor
from gigvad.training import (adagrad_step, hflip_augment, sample_segments,
                             train)

from conftest import head_inputs


def _video(video_id=0, frame_count=120, classes=(), n_classes=3, spans=()):
    labels = VideoLabels.from_classes(classes, n_classes)
    return VideoSpec(video_id, frame_count, labels, list(spans))


class TestSampleSegments:
    def test_exact_division_boundaries(self, rng):
        starts = sample_segments(240, 8, 6, 5, rng)
        assert len(starts) == 8
        for t, seg in enumerate(starts):
            lo, hi = 30 * t, 30 * (t + 1)
            assert len(seg) == 6
            assert all(lo <= f < hi for f in seg)
            assert seg == [seg[0] + 5 * j for j in range(6)]  # all fit

    def test_single_admissible_start_at_span_length(self, rng):
        # clip span = 1 + 5*5 = 26 frames: offset 0 is the only choice
        for _ in range(10):
            starts = sample_segments(26, 1, 6, 5, rng)
            assert starts == [[0, 5, 10, 15, 20, 25]]

    def test_one_frame_segment_clamps_everything(self, rng):
        starts = sample_segments(1, 1, 6, 5, rng)
        assert starts == [[0] * 6]

    def test_remainder_goes_to_earliest_segments(self, rng):
        starts = sample_segments(10, 4, 2, 1, rng)
        # segment lengths 3,3,2,2 -> bounds [0,3) [3,6) [6,8) [8,10)
        bounds = [(0, 3), (3, 6), (6, 8), (8, 10)]
        for seg, (lo, hi) in zip(starts, bounds):
            assert all(lo <= f < hi for f in seg)

    def test_more_segments_than_frames(self, rng):
        starts = sample_segments(3, 8, 6, 5, rng)
        assert len(starts) == 8
        for seg in starts:
            assert all(0 <= f < 3 for f in seg)

    def test_deterministic_given_generator_state(self):
        a = sample_segments(123, 8, 6, 5, np.random.default_rng(5))
        b = sample_segments(123, 8, 6, 5, np.random.default_rng(5))
        assert a == b

    @pytest.mark.parametrize("segments", [1, 3, 8, 16])
    @pytest.mark.parametrize("clips", [1, 3, 4, 16])
    def test_equals_scalar_draw_loop(self, segments, clips):
        """The same starts, generator state and next draw as one scalar
        ``integers`` call per segment, on short and long videos."""
        for frames in [*range(1, 60), 180, 181, 359, 360]:
            for interval in (1, 5):
                seed = [frames, segments, clips, interval]
                got_rng = np.random.default_rng(seed)
                want_rng = np.random.default_rng(seed)
                got = sample_segments(frames, segments, clips, interval,
                                      got_rng)
                want = _loop_sample_segments(frames, segments, clips,
                                             interval, want_rng)
                assert got == want, seed
                assert all(type(f) is int for seg in got for f in seg)
                assert (got_rng.bit_generator.state
                        == want_rng.bit_generator.state), seed
                assert got_rng.random() == want_rng.random(), seed


def _loop_sample_segments(frame_count, segments, clips_per_segment,
                          clip_interval, rng):
    """``sample_segments`` as a loop: one scalar offset draw per segment."""
    base, extra = divmod(frame_count, segments)
    bounds, pos = [], 0
    for t in range(segments):
        length = base + (1 if t < extra else 0)
        bounds.append((pos, pos + length))
        pos += length
    span = (clips_per_segment - 1) * clip_interval + 1
    all_starts = []
    for lo, hi in bounds:
        length = hi - lo
        last = min(max(hi - 1, lo), frame_count - 1)
        start = lo + int(rng.integers(0, max(length - span, 0) + 1))
        all_starts.append([min(start + j * clip_interval, last)
                           for j in range(clips_per_segment)])
    return all_starts


class TestSyntheticBackbone:
    DIMS = (4, 4, 32)

    def test_deterministic(self):
        video = _video(3, classes=[1], spans=[AnomalySpan(1, 0, 59)], frame_count=60)
        starts = [[0, 5, 10, 15, 20, 25], [30, 35, 40, 45, 50, 55]]
        a = synthetic_backbone(starts, video, self.DIMS, seed=7)
        b = synthetic_backbone(starts, video, self.DIMS, seed=7)
        assert np.array_equal(a.data.data, b.data.data)

    def test_seed_and_video_change_features(self):
        video = _video(3)
        starts = [[0, 5, 10, 15, 20, 25]]
        base = synthetic_backbone(starts, video, self.DIMS, seed=7).data.data
        other_seed = synthetic_backbone(starts, video, self.DIMS, seed=8).data.data
        other_video = synthetic_backbone(starts, _video(4), self.DIMS, seed=7).data.data
        assert not np.array_equal(base, other_seed)
        assert not np.array_equal(base, other_video)

    def test_output_extents(self):
        video = _video(0, frame_count=200)
        starts = [[i] * 6 for i in range(8)]
        feats = synthetic_backbone(starts, video, (2, 3, 5), seed=1)
        assert isinstance(feats, FeatureMaps)
        assert feats.data.shape == (8, 2, 3, 5)

    def test_normal_video_signature_channels_centered(self):
        # T=20 segments: d*w*h*T = 32*4*4*20 >= 1e4 samples
        video = _video(9, frame_count=800)
        starts = [[i * 30 + j * 5 for j in range(6)] for i in range(20)]
        feats = synthetic_backbone(starts, video, self.DIMS, seed=7).data.data
        assert feats.size >= 10_000
        lo, hi = signature_channels(1, 3, 32)
        assert abs(feats[..., lo:hi].mean()) < 0.2

    def test_active_class_offsets_patch(self):
        video = _video(5, frame_count=60, classes=[2],
                       spans=[AnomalySpan(2, 0, 59)])
        starts = [[0, 5, 10, 15, 20, 25]]
        feats = synthetic_backbone(starts, video, self.DIMS, seed=7).data.data
        lo, hi = signature_channels(2, 3, 32)
        cells = signature_cells(2, 4, 4)
        on_patch = np.array([feats[0, r, c, lo:hi].mean() for r, c in cells])
        assert (on_patch > SIGNATURE_OFFSET - 1.5).all()
        off_rows = [rc for rc in ((2, 2), (3, 3)) if rc not in cells]
        for r, c in off_rows:
            assert abs(feats[0, r, c, lo:hi].mean()) < 1.5

    def test_inactive_span_leaves_noise(self):
        video = _video(5, frame_count=120, classes=[1],
                       spans=[AnomalySpan(1, 100, 119)])
        starts = [[0, 5, 10, 15, 20, 25]]  # clips never reach the span
        feats = synthetic_backbone(starts, video, self.DIMS, seed=7).data.data
        lo, hi = signature_channels(1, 3, 32)
        assert abs(feats[0, ..., lo:hi].mean()) < 0.5

    def test_disjoint_signature_blocks(self):
        spans = [signature_channels(c, 3, 32) for c in (1, 2, 3)]
        for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
            assert a_hi <= b_lo


def _oracle_backbone(clip_starts, video, dims, seed):
    """The backbone as a per-segment loop: a fresh SeedSequence and
    generator for every segment, and each active class's offsets added to
    that segment alone."""
    rows, cols, channels = dims
    block = np.empty((len(clip_starts), rows, cols, channels))
    for t, starts in enumerate(clip_starts):
        rng = np.random.default_rng(np.random.SeedSequence(
            (_FEATURE_TAG, seed, video.video_id, *map(int, starts))))
        seg = rng.standard_normal((rows, cols, channels))
        active = {span.cls for span in video.spans
                  if any(span.start <= f <= span.end for f in starts)}
        for cls in sorted(active):
            lo, hi = signature_channels(cls, video.labels.n_classes, channels)
            for r, c in signature_cells(cls, rows, cols):
                seg[r, c, lo:hi] += SIGNATURE_OFFSET
        block[t] = seg
    return block


class TestBackboneOracle:
    # class 1 covers frames 10-40, class 2 frames 35-70: clips at 35-40
    # see both classes in one segment
    VIDEO = _video(6, frame_count=120, classes=[1, 2],
                   spans=[AnomalySpan(1, 10, 40), AnomalySpan(2, 35, 70),
                          AnomalySpan(1, 90, 95)])

    def _check(self, clip_starts, dims, seed=7, video=VIDEO):
        got = synthetic_backbone(clip_starts, video, dims, seed).data.data
        assert np.array_equal(got, _oracle_backbone(clip_starts, video, dims,
                                                    seed))
        return got

    @pytest.mark.parametrize("segments", [1, 8, 16])
    def test_segment_counts(self, segments):
        starts = sample_segments(120, segments, 6, 5,
                                 np.random.default_rng(segments))
        got = self._check(starts, (4, 4, 32))
        assert got.shape == (segments, 4, 4, 32)

    @pytest.mark.parametrize("dims", [(1, 1, 3), (2, 3, 5)])
    def test_wrapped_signature_cells(self, dims):
        starts = [[s + 5 * j for j in range(6)] for s in range(0, 90, 6)]
        self._check(starts, dims)

    def test_two_classes_in_one_segment(self):
        starts = [[30, 33, 36, 39], [0, 1, 2, 3], [36, 60, 92, 110]]
        got = self._check(starts, (4, 4, 32))
        for cls in (1, 2):
            lo, hi = signature_channels(cls, 3, 32)
            r, c = signature_cells(cls, 4, 4)[0]
            assert got[0, r, c, lo:hi].mean() > SIGNATURE_OFFSET - 1.5

    def test_largest_entropy_values(self):
        # seed, video id and a clip start at MAX_ENTROPY, and zeros
        starts = [[0, 0, 0], [MAX_ENTROPY, 36, 0], [5, 9, 40]]
        self._check(starts, (2, 3, 5), seed=MAX_ENTROPY,
                    video=_video(MAX_ENTROPY, spans=[AnomalySpan(1, 0, 9)]))
        self._check(starts, (4, 4, 32), seed=0, video=_video(0))

    def test_rejects_ragged_empty_and_wide_entropy(self):
        video, wide = _video(1), MAX_ENTROPY + 1
        for starts in ([[1, 2], [3]], [[1], []], []):
            with pytest.raises(DimensionError):
                synthetic_backbone(starts, video, (2, 3, 5), 7)
        for starts, seed, vid in (([[wide]], 7, 1), ([[0]], wide, 1),
                                  ([[0]], 7, wide)):
            with pytest.raises(ValueError, match="2\\*\\*32"):
                synthetic_backbone(starts, _video(vid), (2, 3, 5), seed)
        with pytest.raises(ValueError):
            _pcg64_keys([[0, wide]])

    def test_threads_scoring_two_videos_get_serial_bits(self):
        rng = np.random.default_rng(3)
        params = HeadParams.initialize(32, 3, rng)
        videos = [_video(1, frame_count=900, classes=[1],
                         spans=[AnomalySpan(1, 100, 400)]),
                  _video(2, frame_count=700, classes=[3],
                         spans=[AnomalySpan(3, 50, 650)])]
        serial = [score_video(v, params, (4, 4, 32), 7, 4).channel_scores
                  for v in videos]
        start = threading.Barrier(2)
        got = [[], []]

        def work(i):
            start.wait()
            for _ in range(4):
                got[i].append(score_video(videos[i], params, (4, 4, 32), 7,
                                          4).channel_scores)

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for want, runs in zip(serial, got):
            assert len(runs) == 4
            assert all(np.array_equal(run, want) for run in runs)

    def test_no_module_level_generator(self):
        for module in (backbone, training):
            assert not [name for name, value in vars(module).items()
                        if isinstance(value, (np.random.Generator,
                                              np.random.BitGenerator))]


# entropy values: any uint32 word, and the two ends of the range
_ENTROPY = st.one_of(st.integers(0, MAX_ENTROPY),
                     st.sampled_from([0, MAX_ENTROPY]))


@st.composite
def _entropy_matrices(draw):
    """An (n, w) matrix of entropy words, n in [0, 6] and w in [1, 12]."""
    n, w = draw(st.integers(0, 6)), draw(st.integers(1, 12))
    row = st.lists(_ENTROPY, min_size=w, max_size=w)
    return np.array(draw(st.lists(row, min_size=n, max_size=n)),
                    dtype=np.int64).reshape(n, w)


@settings(max_examples=300, deadline=None)
@given(_entropy_matrices())
def test_pcg64_keys_match_numpy(rows):
    """Rows of up to 12 words: within the pool, and past it."""
    keys = _pcg64_keys(rows)
    assert keys.shape == (len(rows), 4)
    generator = np.random.Generator(np.random.PCG64())
    for row, key in zip(rows, keys):
        seq = np.random.SeedSequence(row.tolist())
        assert np.array_equal(key, seq.generate_state(4, np.uint64))
        _set_state(generator, key)
        assert generator.bit_generator.state == np.random.PCG64(seq).state


def test_pcg64_keys_reject_negative_entropy():
    with pytest.raises(ValueError):
        _pcg64_keys([(1, 2), (3, -1)])


class TestDropout:
    def test_expectation_preserved(self):
        rng = np.random.default_rng(77)
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.5, True, rng).data
        assert out.mean() == pytest.approx(1.0, abs=0.01)


class TestHflip:
    def test_prob_zero_identity(self, rng):
        feats = FeatureMaps(Tensor(rng.normal(size=(2, 3, 2, 4))))
        assert hflip_augment(feats, 0.0, rng) is feats

    def test_index_mapping(self, rng):
        x = rng.normal(size=(2, 4, 3, 5))
        flipped = hflip_augment(FeatureMaps(Tensor(x)), 1.0, rng).data.data
        w = 4
        for t in (0, 1):
            for i in range(w):
                assert np.array_equal(flipped[t, i], x[t, w - 1 - i])

    def test_involution(self, rng):
        x = rng.normal(size=(1, 4, 2, 3))
        once = hflip_augment(FeatureMaps(Tensor(x)), 1.0, rng)
        twice = hflip_augment(once, 1.0, rng)
        assert np.array_equal(twice.data.data, x)


class TestAdagradStep:
    def _params(self, rng):
        return HeadParams.initialize(4, 2, rng)

    def _grads_like(self, params, value):
        return [np.full(t.data.shape, value) for t in params.tensors()]

    def test_zero_gradient_is_a_no_op(self, rng):
        params = self._params(rng)
        before = [t.data.copy() for t in params.tensors()]
        adagrad_step(params, self._grads_like(params, 0.0), lr=0.001)
        for b, t in zip(before, params.tensors()):
            assert np.array_equal(b, t.data)
        for acc in params.accum.values():
            assert np.array_equal(acc, np.zeros_like(acc))

    def test_first_step_magnitude(self, rng):
        params = self._params(rng)
        before = params.video_w.data.copy()
        adagrad_step(params, self._grads_like(params, 3.0), lr=0.001)
        delta = params.video_w.data - before
        assert np.allclose(delta, -0.001, rtol=1e-9)

    def test_second_step_uses_accumulated_squares(self, rng):
        params = self._params(rng)
        adagrad_step(params, self._grads_like(params, 3.0), lr=0.001)
        before = params.video_w.data.copy()
        adagrad_step(params, self._grads_like(params, 4.0), lr=0.001)
        delta = params.video_w.data - before
        assert np.allclose(delta, -0.001 * 4.0 / 5.0, rtol=1e-9)

    def test_constant_gradient_step_is_lr_over_sqrt_n(self, rng):
        params = self._params(rng)
        lr = 0.01
        for n in range(1, 21):
            before = params.video_b.data.copy()
            adagrad_step(params, self._grads_like(params, 2.0), lr=lr)
            step = np.abs(params.video_b.data - before)
            assert np.allclose(step, lr / np.sqrt(n), rtol=1e-8)

    def test_accumulators_never_decrease(self, rng):
        params = self._params(rng)
        prev = {k: v.copy() for k, v in params.accum.items()}
        for _ in range(10):
            grads = [rng.normal(size=t.data.shape) for t in params.tensors()]
            adagrad_step(params, grads, lr=0.001)
            for name, acc in params.accum.items():
                assert (acc >= prev[name]).all()
                prev[name] = acc.copy()

    def test_non_finite_gradient_aborts_whole_step(self, rng):
        params = self._params(rng)
        before = [t.data.copy() for t in params.tensors()]
        grads = self._grads_like(params, 1.0)
        grads[2][0, 0] = np.nan
        with pytest.raises(NumericError):
            adagrad_step(params, grads, lr=0.001)
        for b, t in zip(before, params.tensors()):
            assert np.array_equal(b, t.data)

    def test_shape_mismatch(self, rng):
        params = self._params(rng)
        grads = self._grads_like(params, 1.0)
        grads[0] = np.zeros(3)
        with pytest.raises(ConfigError):
            adagrad_step(params, grads, lr=0.001)


def _tiny_dataset(seed=3):
    return generate_dataset(10, 6, 2, seed, frames=(40, 80),
                            cover=(0.6, 0.9))


class TestTrain:
    CFG = dict(segments=4, channels=12, epochs=3, seed=11)

    def test_same_seed_bit_identical(self):
        res1 = train(_tiny_dataset(), Config(**self.CFG))
        res2 = train(_tiny_dataset(), Config(**self.CFG))
        for a, b in zip(res1.params.tensors(), res2.params.tensors()):
            assert np.array_equal(a.data, b.data)
        assert res1.history == res2.history

    def test_zero_epochs_keeps_initialization(self):
        cfg = Config(**{**self.CFG, "epochs": 0})
        res = train(_tiny_dataset(), cfg)
        init_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))
        init = HeadParams.initialize(cfg.channels, 2, init_rng)
        for a, b in zip(res.params.tensors(), init.tensors()):
            assert np.array_equal(a.data, b.data)
        assert res.history == []

    def test_loss_decreases_on_learnable_data(self):
        cfg = Config(segments=4, channels=12, epochs=25, seed=11)
        res = train(_tiny_dataset(), cfg)
        assert res.history[-1].total < res.history[0].total

    def test_logged_totals_compose(self):
        res = train(_tiny_dataset(), Config(**self.CFG))
        for bd in res.history:
            want = (bd.multiclass + 1.0 * bd.segment_overall
                    + 0.5 * bd.video_overall + 0.1 * bd.sparsity)
            assert bd.total == pytest.approx(want, abs=1e-12)

    def test_needs_both_label_kinds(self):
        all_normal = generate_dataset(6, 0, 2, 1, frames=(30, 40), cover=(0.5, 0.6))
        with pytest.raises(DatasetError):
            train(all_normal, Config(**self.CFG))
        all_anom = generate_dataset(6, 6, 2, 1, frames=(30, 40), cover=(0.5, 0.6))
        with pytest.raises(DatasetError):
            train(all_anom, Config(**self.CFG))


def _oracle_train(dataset, cfg):
    """``train()`` one video at a time: the video's stream,
    ``sample_segments``, ``synthetic_backbone``, ``hflip_augment``, the
    head step and ``adagrad_step``. Streams come from ``SeedSequence``."""
    def stream(*entropy):
        return np.random.default_rng(np.random.SeedSequence(entropy))

    params = HeadParams.initialize(cfg.channels, dataset.n_classes,
                                   stream(cfg.seed, training._INIT_TAG))
    history = []
    for epoch in range(1, cfg.epochs + 1):
        order = stream(cfg.seed, training._SHUFFLE_TAG, epoch).permutation(
            len(dataset.videos))
        term_sums = np.zeros(4)
        for pos in order:
            video = dataset.videos[int(pos)]
            rng = stream(cfg.seed, training._VIDEO_TAG, epoch,
                         video.video_id)
            starts = sample_segments(video.frame_count, cfg.segments,
                                     cfg.clips_per_segment,
                                     cfg.clip_interval, rng)
            feats = synthetic_backbone(starts, video, cfg.dims, dataset.seed)
            feats = hflip_augment(feats, cfg.flip_prob, rng)
            pattern, patterns = head_inputs(feats.data.data, cfg.resolved_k,
                                            cfg.dropout, rng)
            bd, grads = head_step(pattern, patterns,
                                  [t.data for t in params.tensors()],
                                  video.labels.extended(), cfg.resolved_p,
                                  cfg.weights)
            adagrad_step(params, grads, cfg.learning_rate)
            term_sums += (bd.multiclass, bd.segment_overall,
                          bd.video_overall, bd.sparsity)
        history.append(training._epoch_breakdown(
            term_sums / len(dataset.videos), cfg.weights))
    return params, history


class TestChunkedTrain:
    """``train()`` walks each epoch in chunks of videos; it must equal the
    per-video oracle, and no chunk may hold more than ``CHUNK_BYTES`` of
    features unless one video's block alone does."""

    CFG = dict(segments=4, channels=12, epochs=3, seed=11)
    BLOCK = 8 * 4 * 4 * 4 * 12  # bytes of one video's (4, 4, 4, 12) block

    # None: all 10 videos in one chunk; 3: chunks of 3, 3, 3 and 1; 1: one
    # video per chunk
    @pytest.mark.parametrize("chunk_videos", [None, 3, 1])
    @pytest.mark.parametrize("rate", [0.0, 0.5])
    @pytest.mark.parametrize("flip_prob", [0.0, 1.0])
    def test_equals_per_video_oracle(self, monkeypatch, chunk_videos, rate,
                                     flip_prob):
        if chunk_videos is not None:
            monkeypatch.setattr(training, "CHUNK_BYTES",
                                chunk_videos * self.BLOCK + self.BLOCK // 2)
        cfg = Config(**self.CFG, dropout=rate, flip_prob=flip_prob)
        self._assert_equals_oracle(_tiny_dataset(), cfg)

    def test_equals_per_video_oracle_at_protocol_shape(self):
        """Default config (T = 8, 4x4 grid, d = 32, dropout and flips at
        0.5): 16 videos fit a chunk, so 20 videos take a full chunk and a
        remainder of 4."""
        dataset = generate_dataset(20, 10, 4, 5, frames=(60, 180),
                                   cover=(0.5, 0.8))
        self._assert_equals_oracle(dataset, Config(epochs=2, seed=7))

    @staticmethod
    def _assert_equals_oracle(dataset, cfg):
        got = train(dataset, cfg)
        params, history = _oracle_train(dataset, cfg)
        k, p = cfg.resolved_k, cfg.resolved_p
        assert (checkpoint_bytes(got.params, k, p)
                == checkpoint_bytes(params, k, p))
        assert got.history == history
        for name in HeadParams.NAMES:
            assert np.array_equal(got.params.accum[name], params.accum[name])

    @pytest.mark.parametrize("chunk_bytes, dims", [
        (512 * 1024, (4, 4, 12)), (2 * BLOCK + 1, (4, 4, 12)),
        (1, (4, 4, 12)), (512 * 1024, (8, 8, 128))])
    def test_chunk_blocks_stay_within_bound(self, monkeypatch, chunk_bytes,
                                            dims):
        shapes = []

        def recording(*args):
            block = video_blocks(*args)
            shapes.append(block.shape)
            return block

        video_blocks = training._video_blocks
        monkeypatch.setattr(training, "_video_blocks", recording)
        monkeypatch.setattr(training, "CHUNK_BYTES", chunk_bytes)
        rows, cols, channels = dims
        cfg = Config(**{**self.CFG, "epochs": 2, "rows": rows, "cols": cols,
                        "channels": channels})
        train(_tiny_dataset(), cfg)
        one = 8 * cfg.segments * rows * cols * channels
        per_chunk = max(1, chunk_bytes // one)
        assert all(shape[1:] == (cfg.segments, *dims) for shape in shapes)
        assert all(8 * np.prod(shape) <= max(chunk_bytes, one)
                   for shape in shapes)
        # full chunks, then the epoch's remainder, twice
        sizes = [shape[0] for shape in shapes]
        epoch = [per_chunk] * (10 // per_chunk) + [10 % per_chunk] * bool(
            10 % per_chunk)
        assert sizes == epoch * 2


class TestTrainConfig:
    def test_defaults_match_protocol(self):
        cfg = Config()
        assert (cfg.segments, cfg.clips_per_segment, cfg.clip_interval) == (8, 6, 5)
        assert (cfg.learning_rate, cfg.epochs) == (0.001, 100)
        assert (cfg.dropout, cfg.flip_prob) == (0.5, 0.5)
        assert cfg.weights == (1.0, 0.5, 0.1)
        assert cfg.resolved_k == 4 and cfg.resolved_p == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            Config(dropout=1.0)
        with pytest.raises(ConfigError):
            Config(segments=0)
        with pytest.raises(ConfigError):
            Config(lambda2=-0.5)
        with pytest.raises(ConfigError):
            Config(learning_rate=0.0)
        for bad in ({"learning_rate": float("nan")},
                    {"learning_rate": float("inf")},
                    {"lambda1": float("nan")}, {"lambda3": float("inf")},
                    {"seed": -1}, {"top_k": 0}, {"top_k": 17},
                    {"top_p": 0}, {"top_p": 9}):
            with pytest.raises(ConfigError):
                Config(**bad)
        assert Config(top_k=16, top_p=8).resolved_k == 16

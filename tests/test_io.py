"""Config files, checkpoints, dataset files, and the command line."""

import contextlib
import io
import re
import struct
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gigvad
from gigvad.checkpoint import (checkpoint_bytes, expected_size, load_checkpoint,
                               parse_checkpoint, payload_floats,
                               save_checkpoint)
from gigvad.cli import main
from gigvad.config import (_FIELD_PARSERS, MAX_CHANNELS, MAX_CLIPS,
                           MAX_FEATURE_ELEMENTS, MAX_GRID, MAX_SEGMENTS,
                           Config, format_config, load_config, parse_config)
from gigvad.data import (MAX_CLASSES, MAX_ENTROPY, MAX_FRAMES, format_dataset,
                         generate_dataset, parse_dataset, read_dataset,
                         write_dataset)
from gigvad.errors import CheckpointError, ConfigError, DatasetError
from gigvad.gig import HeadParams
from gigvad.inference import MAX_SIGMA, score_video, smooth_series
from gigvad.tensor import Tensor

# a header declaring one video, followed by two video lines and a stray line
SURPLUS_LINES = ("gigvad-dataset v1\nN = 1\nC = 1\nseed = 0\n"
                 "0 10 0 -\n1 10 0 -\ngarbage line here\n")
# byte offsets in a checkpoint: the stored k, then the first payload float
K_AT, PAYLOAD_AT = 16, 24


def _resealed(blob: bytes, at: int, raw: bytes) -> bytes:
    """``blob`` with ``raw`` written at byte ``at`` and a fresh checksum."""
    body = bytearray(blob[:-8])
    body[at:at + len(raw)] = raw
    return _sealed(bytes(body))


def _sealed(body: bytes) -> bytes:
    return body + struct.pack("<Q", sum(body) % 2 ** 64)


class TestConfig:
    def test_defaults_match_protocol(self):
        cfg = Config()
        assert cfg.learning_rate == 0.001
        assert (cfg.lambda1, cfg.lambda2, cfg.lambda3) == (1.0, 0.5, 0.1)
        assert cfg.epochs == 100 and cfg.batch_size == 8
        assert (cfg.window, cfg.stride, cfg.sigma, cfg.tau) == (6, 3, 2.0, 0.5)
        assert cfg.top_k is None and cfg.top_p is None

    def test_parse_with_comments_and_blanks(self):
        cfg = parse_config("""
# training
epochs = 5
learning_rate = 0.01   # overridden lr
top_k = 2

seed = 9
        """)
        assert cfg.epochs == 5 and cfg.learning_rate == 0.01
        assert cfg.top_k == 2 and cfg.seed == 9
        assert cfg.batch_size == 8  # untouched default

    def test_auto_selection_counts(self):
        cfg = parse_config("top_k = auto\ntop_p = auto\n")
        assert cfg.top_k is None and cfg.top_p is None
        assert cfg.train_config().resolved_k == 4

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key 'lr'"):
            parse_config("epochs = 5\nlr = 0.1\n")

    def test_bad_value_names_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("epochs = five\n")

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("epochs = 5\nseed = 1\nnonsense\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_range_validation(self):
        for text in ("dropout = 1.5", "sigma = 0", "seed = -1",
                     "learning_rate = nan", "lambda1 = nan", "sigma = inf",
                     "tau = nan", "top_k = 99", "top_p = 9", "window = 0",
                     "seed = 4294967296", "epochs = 4294967296"):
            with pytest.raises(ConfigError, match="invalid configuration"):
                parse_config(text + "\n")
        at_cap = parse_config(
            f"seed = {MAX_ENTROPY}\nepochs = {MAX_ENTROPY}\n")
        assert at_cap.seed == at_cap.epochs == MAX_ENTROPY

    def test_one_config_class(self):
        assert gigvad.TrainConfig is Config
        assert Config.__mro__ == (Config, object)
        assert list(_FIELD_PARSERS) == [f.name for f in fields(Config)]
        cfg = Config()
        assert cfg.train_config() is cfg
        assert cfg.dims == (4, 4, 32) and cfg.weights == (1.0, 0.5, 0.1)

    @pytest.mark.parametrize("name, cap, extra", [
        ("segments", MAX_SEGMENTS, {"channels": 1}),
        ("clips_per_segment", MAX_CLIPS, {}),
        ("rows", MAX_GRID, {"channels": 1}),
        ("cols", MAX_GRID, {"channels": 1}),
        ("channels", MAX_CHANNELS, {}),
        ("window", MAX_FRAMES, {}),
        ("sigma", MAX_SIGMA, {}),
    ])
    def test_count_caps(self, name, cap, extra):
        assert getattr(Config(**{name: cap}, **extra), name) == cap
        with pytest.raises(ConfigError, match=f"{name} must be at most"):
            Config(**{name: cap + 1}, **extra)

    def test_feature_block_cap(self):
        at_cap = dict(segments=MAX_FEATURE_ELEMENTS // (16 * MAX_CHANNELS),
                      rows=4, cols=4, channels=MAX_CHANNELS)
        assert Config(**at_cap).segments == 256
        with pytest.raises(ConfigError, match="feature block"):
            Config(**{**at_cap, "segments": 257})

    def test_format_parse_roundtrip(self):
        cfg = Config(epochs=3, top_k=5, train_data="a.txt", sigma=1.5)
        again = parse_config(format_config(cfg))
        assert again == cfg


_KEYS = [f.name for f in fields(Config)]
_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["auto", "nan", "inf", "-inf", ""]),
    st.text(max_size=8))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES), max_size=8))
def test_config_text_yields_valid_config_or_config_error(pairs):
    text = "".join(f"{key} = {value}\n" for key, value in pairs)
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    for f in fields(Config):
        if f.type == "float":
            assert np.isfinite(getattr(cfg, f.name)), f.name
    assert cfg.seed >= 0
    assert 1 <= cfg.resolved_k <= cfg.rows * cfg.cols
    assert 1 <= cfg.resolved_p <= cfg.segments


class TestCheckpoint:
    def _params(self, rng, channels=32, n_classes=3):
        return HeadParams.initialize(channels, n_classes, rng)

    def test_roundtrip_bit_identical(self, rng, tmp_path):
        params = self._params(rng)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, top_k=4, top_p=2)
        loaded, meta = load_checkpoint(path)
        assert meta == {"n_classes": 3, "channels": 32, "top_k": 4, "top_p": 2}
        for a, b in zip(params.tensors(), loaded.tensors()):
            assert np.array_equal(a.data, b.data)
        for acc in loaded.accum.values():
            assert not acc.any()

    def test_payload_float_count(self):
        assert payload_floats(3, 32) == 2 * 4 * 32 + 2 * 4 == 264

    def test_file_size_matches_formula(self, rng, tmp_path):
        params = self._params(rng)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, top_k=4, top_p=2)
        assert path.stat().st_size == expected_size(3, 32) == 24 + 8 * 264 + 8

    def test_truncated_file_is_size_mismatch(self, rng):
        blob = checkpoint_bytes(self._params(rng), 4, 2)
        with pytest.raises(CheckpointError, match="size mismatch"):
            parse_checkpoint(blob[:-20])

    def test_bad_magic(self, rng):
        blob = bytearray(checkpoint_bytes(self._params(rng), 4, 2))
        blob[:8] = b"NOTMAGIC"
        with pytest.raises(CheckpointError, match="bad magic"):
            parse_checkpoint(bytes(blob))

    def test_flipped_byte_fails_checksum(self, rng):
        blob = bytearray(checkpoint_bytes(self._params(rng), 4, 2))
        blob[40] ^= 0xFF
        with pytest.raises(CheckpointError, match="checksum"):
            parse_checkpoint(bytes(blob))

    @pytest.mark.parametrize("at, raw", [
        (K_AT, struct.pack("<I", 0)),
        (K_AT + 4, struct.pack("<I", 0)),  # p
        (PAYLOAD_AT, struct.pack("<d", float("nan"))),
        (PAYLOAD_AT + 8, struct.pack("<d", float("-inf"))),
    ], ids=["k0", "p0", "nan-weight", "inf-weight"])
    def test_values_the_writer_refuses_are_rejected(self, rng, at, raw):
        blob = _resealed(checkpoint_bytes(self._params(rng), 4, 2), at, raw)
        with pytest.raises(CheckpointError, match="bad header|bad payload"):
            parse_checkpoint(blob)


@st.composite
def _checkpoint_blobs(draw):
    """Checkpoint-shaped bytes: any header counts, any floats, maybe sealed."""
    counts = draw(st.tuples(*[st.integers(0, 3)] * 4))
    n = payload_floats(counts[0], counts[1])
    floats = draw(st.lists(st.floats(), min_size=n, max_size=n))
    body = (b"GIGVAD01" + struct.pack("<4I", *counts)
            + struct.pack(f"<{n}d", *floats))
    blob = _sealed(body) if draw(st.booleans()) else body + bytes(8)
    if draw(st.booleans()):
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    return blob


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=80), _checkpoint_blobs()))
def test_checkpoint_bytes_yield_valid_params_or_checkpoint_error(blob):
    try:
        params, meta = parse_checkpoint(blob)
    except CheckpointError:
        return
    assert meta["top_k"] >= 1 and meta["top_p"] >= 1
    assert all(np.isfinite(t.data).all() for t in params.tensors())


class TestDatasetFile:
    def test_roundtrip(self):
        spec = generate_dataset(12, 7, 3, seed=4, frames=(30, 90),
                                cover=(0.2, 0.8), second_span_every=3)
        again = parse_dataset(format_dataset(spec))
        assert again.n_classes == spec.n_classes and again.seed == spec.seed
        assert len(again.videos) == len(spec.videos)
        for a, b in zip(spec.videos, again.videos):
            assert (a.video_id, a.frame_count) == (b.video_id, b.frame_count)
            assert np.array_equal(a.labels.present, b.labels.present)
            assert a.spans == b.spans

    def test_write_read_files(self, tmp_path):
        spec = generate_dataset(5, 2, 2, seed=1, frames=(20, 30), cover=(0.3, 0.5))
        path = tmp_path / "data.txt"
        write_dataset(path, spec)
        assert read_dataset(path).videos[4].video_id == 4

    def test_frame_count_cap(self):
        line = "gigvad-dataset v1\nN = 1\nC = 1\nseed = 0\n0 {} 0 -\n"
        assert parse_dataset(line.format(MAX_FRAMES)).videos[0].frame_count \
            == MAX_FRAMES
        with pytest.raises(DatasetError, match="cap"):
            parse_dataset(line.format(MAX_FRAMES + 1))

    def test_seed_and_id_cap(self):
        text = "gigvad-dataset v1\nN = 1\nC = 1\nseed = {}\n{} 10 0 -\n"
        spec = parse_dataset(text.format(MAX_ENTROPY, MAX_ENTROPY))
        assert spec.seed == spec.videos[0].video_id == MAX_ENTROPY
        for seed, video_id in ((4294967296, 0), (0, 4294967296)):
            with pytest.raises(DatasetError, match="4294967295"):
                parse_dataset(text.format(seed, video_id))

    def test_class_cap(self):
        text = "gigvad-dataset v1\nN = 1\nC = {}\nseed = 0\n0 10 {} -\n"
        assert parse_dataset(text.format(MAX_CLASSES, "0" * MAX_CLASSES)) \
            .n_classes == MAX_CLASSES
        with pytest.raises(DatasetError, match="line 3:.*cap"):
            parse_dataset(text.format(MAX_CLASSES + 1,
                                      "0" * (MAX_CLASSES + 1)))

    def test_bad_magic_line(self):
        with pytest.raises(DatasetError, match="line 1"):
            parse_dataset("nonsense\nN = 1\nC = 1\nseed = 0\n0 10 0 -\n")

    def test_bad_video_line_number(self):
        text = "gigvad-dataset v1\nN = 2\nC = 2\nseed = 0\n0 10 00 -\n1 10 0 -\n"
        with pytest.raises(DatasetError, match="line 6"):
            parse_dataset(text)

    def test_span_label_consistency_enforced(self):
        text = ("gigvad-dataset v1\nN = 1\nC = 2\nseed = 0\n"
                "0 10 10 -\n")  # label says class 1 but no span
        with pytest.raises(DatasetError, match="disagree"):
            parse_dataset(text)

    def test_span_outside_video_rejected(self):
        text = ("gigvad-dataset v1\nN = 1\nC = 1\nseed = 0\n"
                "0 10 1 1:5-12\n")
        with pytest.raises(DatasetError, match="outside"):
            parse_dataset(text)

    def test_surplus_lines_rejected_at_first_one(self):
        with pytest.raises(DatasetError, match="line 6:.*N = 1"):
            parse_dataset(SURPLUS_LINES)

    def test_missing_video_line_named(self):
        text = ("gigvad-dataset v1\nN = 3\nC = 1\nseed = 0\n"
                "0 10 0 -\n1 10 0 -\n")
        with pytest.raises(DatasetError, match="line 7:.*N = 3"):
            parse_dataset(text)

    def test_trailing_blank_lines_accepted(self):
        spec = generate_dataset(5, 2, 2, seed=1, frames=(20, 30),
                                cover=(0.3, 0.5))
        again = parse_dataset(format_dataset(spec) + "\n  \n\t\n\n")
        assert format_dataset(again) == format_dataset(spec)


@st.composite
def _dataset_specs(draw):
    n_videos = draw(st.integers(1, 6))
    return generate_dataset(n_videos, draw(st.integers(0, n_videos)),
                            draw(st.integers(1, 3)), draw(st.integers(0, 99)),
                            frames=(20, 60), cover=(0.2, 0.8),
                            second_span_every=draw(st.integers(0, 3)))


_BLANKS = " \t\r\n\x0b\x0c\x1c\x85\u2028\u3000"


@settings(max_examples=200, deadline=None)
@given(_dataset_specs(), st.one_of(st.text(max_size=20),
                                   st.text(alphabet=_BLANKS, max_size=12)))
def test_text_after_video_lines_rejected_unless_blank(spec, extra):
    text = format_dataset(spec) + extra
    if any(line.strip() for line in extra.splitlines()):
        with pytest.raises(DatasetError):
            parse_dataset(text)
    else:
        assert format_dataset(parse_dataset(text)) == format_dataset(spec)


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """Small datasets plus a config that trains in a couple of seconds."""
    root = tmp_path_factory.mktemp("cli")
    train_file, test_file = root / "train.txt", root / "test.txt"
    cfg_file = root / "run.cfg"
    assert main(["generate-data", "--out", str(train_file), "--videos", "14",
                 "--anomalous", "8", "--classes", "2", "--seed", "5",
                 "--frames", "40", "80", "--cover", "0.6", "0.9"]) == 0
    assert main(["generate-data", "--out", str(test_file), "--videos", "6",
                 "--anomalous", "4", "--classes", "2", "--seed", "5",
                 "--frames", "60", "90", "--cover", "0.2", "0.4",
                 "--start-id", "100"]) == 0
    cfg_file.write_text("epochs = 4\nchannels = 16\nsegments = 4\n"
                        "batch_size = 4\nseed = 5\n")
    return {"root": root, "train": train_file, "test": test_file,
            "cfg": cfg_file}


class TestCli:
    def test_train_twice_byte_identical(self, cli_env):
        outs = []
        for name in ("a", "b"):
            out = cli_env["root"] / name
            rc = main(["train", "--config", str(cli_env["cfg"]),
                       "--data", str(cli_env["train"]),
                       "--out-dir", str(out), "--seed", "5"])
            assert rc == 0
            outs.append(out)
        ck_a = (outs[0] / "checkpoint.bin").read_bytes()
        ck_b = (outs[1] / "checkpoint.bin").read_bytes()
        assert ck_a == ck_b
        assert ((outs[0] / "loss_log.tsv").read_bytes()
                == (outs[1] / "loss_log.tsv").read_bytes())

    def test_loss_log_parses_losslessly(self, cli_env):
        out = cli_env["root"] / "a"
        lines = (out / "loss_log.tsv").read_text().splitlines()
        assert len(lines) == 4
        prev_epoch = 0
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 6
            epoch = int(fields[0])
            assert epoch == prev_epoch + 1
            prev_epoch = epoch
            vals = [float(f) for f in fields[1:]]
            assert [repr(v) for v in vals] == fields[1:]
            total = vals[0] + 1.0 * vals[1] + 0.5 * vals[2] + 0.1 * vals[3]
            assert total == pytest.approx(vals[4], abs=1e-12)

    def test_eval_writes_report(self, cli_env, capsys):
        out = cli_env["root"] / "a"
        report = cli_env["root"] / "metrics.txt"
        rc = main(["eval", "--config", str(cli_env["cfg"]),
                   "--checkpoint", str(out / "checkpoint.bin"),
                   "--data", str(cli_env["test"]), "--out", str(report)])
        assert rc == 0
        text = report.read_text()
        assert text.startswith("videos = 6\n")
        values = dict(line.split(" = ") for line in text.splitlines())
        assert 0.0 <= float(values["auc"]) <= 1.0
        assert "mf1" in values and "f1_class_2" in values
        echoed = capsys.readouterr().out
        assert "learning_rate = 0.001" in echoed  # resolved config echoed

    def test_score_line_count_equals_frame_count(self, cli_env):
        out = cli_env["root"] / "a"
        score_file = cli_env["root"] / "scores.tsv"
        rc = main(["score", "--config", str(cli_env["cfg"]),
                   "--checkpoint", str(out / "checkpoint.bin"),
                   "--data", str(cli_env["test"]), "--video", "100",
                   "--out", str(score_file)])
        assert rc == 0
        dataset = read_dataset(cli_env["test"])
        video = dataset.video_by_id(100)
        params, meta = load_checkpoint(out / "checkpoint.bin")
        cfg = load_config(cli_env["cfg"])
        want = smooth_series(
            score_video(video, params, cfg.dims, dataset.seed, meta["top_k"],
                        cfg.window, cfg.stride), cfg.sigma)
        lines = score_file.read_text().splitlines()
        assert len(lines) == video.frame_count
        for f, line in enumerate(lines):
            fields = line.split("\t")
            assert fields[0] == str(f) and len(fields) == 2 + 3  # overall, 1+C
            # plain float text, equal to the series bit for bit
            assert [float(v) for v in fields[1:]] == [
                want.overall[f], *want.channel_scores[f]]

    @pytest.mark.parametrize("verb", ["eval", "score"])
    def test_class_count_mismatch_exits_one(self, cli_env, tmp_path, capsys,
                                            verb):
        params = HeadParams.initialize(16, 3, np.random.default_rng(0))
        ckpt = tmp_path / "three.bin"  # 3 classes; the test data has 2
        ckpt.write_bytes(checkpoint_bytes(params, 4, 2))
        argv = [verb, "--config", str(cli_env["cfg"]), "--checkpoint",
                str(ckpt), "--data", str(cli_env["test"]),
                "--out-dir", str(tmp_path / "out")]
        if verb == "score":
            argv += ["--video", "100"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == ("configuration error: checkpoint and dataset disagree"
                       " on class count\n")
        assert not (tmp_path / "out").exists()

    def test_usage_errors_exit_one(self, cli_env, capsys):
        assert main(["no-such-verb"]) == 1
        assert main(["train"]) == 1  # no dataset anywhere
        assert main(["train", "--config", str(cli_env["root"] / "nope.cfg"),
                     "--data", str(cli_env["train"])]) == 2  # unreadable file
        capsys.readouterr()

    def test_bad_config_exits_one(self, cli_env, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("álpha = 3\n")
        assert main(["train", "--config", str(bad),
                     "--data", str(cli_env["train"])]) == 1
        capsys.readouterr()

    def test_missing_files_exit_two(self, cli_env, capsys):
        assert main(["train", "--data", str(cli_env["root"] / "nope.txt"),
                     "--out-dir", str(cli_env["root"] / "x")]) == 2
        assert main(["eval", "--checkpoint", str(cli_env["root"] / "nope.bin"),
                     "--data", str(cli_env["test"])]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("kind, arg, want", [
        ("config", "seed = -1", 1),
        ("config", "learning_rate = nan", 1),
        ("config", "lambda1 = nan", 1),
        ("config", "sigma = inf", 1),
        ("config", "top_k = 99", 1),
        ("config", "top_p = 9", 1),
        ("flag", "--seed -1", 1),
        ("generate", "--seed -3", 2),
        ("data", ("seed = 5\n", "seed = -5\n"), 2),
        ("data", ("\n0 ", "\n-1 "), 2),  # first video's id
        ("config", "seed = 4294967296", 1),  # one uint32 word at most
        ("config", "epochs = 4294967296", 1),
        ("flag", "--seed 4294967296", 1),
        ("generate", "--seed 4294967296", 2),
        ("generate", "--videos 2 --start-id 4294967295", 2),
        pytest.param("data", ("seed = 5\n", "seed = 4294967296\n"), 2,
                     id="data-seed-2to32-2"),
        pytest.param("data", ("\n0 ", "\n4294967296 "), 2,
                     id="data-id-2to32-2"),  # first video's id
        pytest.param("dataset", SURPLUS_LINES, 2, id="dataset-surplus-2"),
        pytest.param("data", ("N = 14\n", "N = 13\n"), 2,
                     id="data-surplus-2"),  # trains on 13 if lines are dropped
        pytest.param("checkpoint", (K_AT, struct.pack("<I", 0)), 2,
                     id="checkpoint-k0-2"),
        pytest.param("checkpoint",
                     (PAYLOAD_AT, struct.pack("<d", float("nan"))), 2,
                     id="checkpoint-nan-2"),
        pytest.param("test-data", (r"\n100 \d+ ", "\n100 10000000000000 "), 2,
                     id="test-data-frames-1e13-2"),
        ("config", "stride = 7", 1),  # window 6: frames would go unscored
        ("config", "channels = 10000000000000", 1),
        ("config", "sigma = 10000000000000.0", 1),  # kernel of 8e13 taps
        ("generate", "--videos 10000000000000", 2),
        ("generate", "--classes 10000000000000", 2),
        ("generate", "--frames 1 100000000000000000000", 2),  # above int64
        pytest.param("config", b"\xff\xfe", 1, id="config-not-utf8-1"),
        pytest.param("data", (b"\n1 ", b"\xff\n1 "), 2,
                     id="data-not-utf8-2"),  # video line 0 ends in 0xff
    ])
    def test_bad_input_named_error_exit_code(self, cli_env, tmp_path, capsys,
                                             kind, arg, want):
        train = ["train", "--data", str(cli_env["train"]),
                 "--out-dir", str(tmp_path / "out")]
        if kind == "config":
            (tmp_path / "bad.cfg").write_bytes(
                arg if isinstance(arg, bytes) else (arg + "\n").encode())
            argv = [*train, "--config", str(tmp_path / "bad.cfg")]
        elif kind == "flag":
            argv = [*train, *arg.split()]
        elif kind == "generate":
            argv = ["generate-data", "--out", str(tmp_path / "d.txt"),
                    *arg.split()]
        elif kind == "dataset":
            (tmp_path / "bad.txt").write_text(arg)
            argv = [*train, "--data", str(tmp_path / "bad.txt")]
        elif kind in ("checkpoint", "test-data"):
            params = HeadParams.initialize(16, 2, np.random.default_rng(0))
            blob = checkpoint_bytes(params, 4, 2)
            test = cli_env["test"]
            if kind == "checkpoint":
                blob = _resealed(blob, *arg)
            else:
                test = tmp_path / "bad.txt"
                test.write_text(re.sub(*arg, cli_env["test"].read_text(),
                                       count=1))
            (tmp_path / "bad.bin").write_bytes(blob)
            argv = ["eval", "--config", str(cli_env["cfg"]),
                    "--checkpoint", str(tmp_path / "bad.bin"),
                    "--data", str(test), "--out-dir", str(tmp_path / "out")]
        else:
            bad = tmp_path / "bad.txt"
            if isinstance(arg[0], bytes):
                bad.write_bytes(cli_env["train"].read_bytes().replace(*arg, 1))
            else:
                bad.write_text(cli_env["train"].read_text().replace(*arg, 1))
            argv = [*train, "--data", str(bad)]  # the last --data wins
        assert main(argv) == want
        echoed, err = capsys.readouterr()
        prefix = "configuration error:" if want == 1 else "i/o error:"
        assert err.startswith(prefix) and "Traceback" not in err
        if want == 1:
            assert echoed == ""  # rejected before the config is echoed
        assert not (tmp_path / "out").exists()

    def test_overflowing_head_exits_three(self, cli_env, tmp_path, capsys):
        params = HeadParams.initialize(16, 2, np.random.default_rng(0))
        params.segment_w = Tensor(np.full(params.segment_w.shape, 1e308))
        ckpt = tmp_path / "big.bin"
        ckpt.write_bytes(checkpoint_bytes(params, 4, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval", "--config", str(cli_env["cfg"]),
                         "--checkpoint", str(ckpt),
                         "--data", str(cli_env["test"]),
                         "--out-dir", str(tmp_path / "out")]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: affine")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_corrupt_checkpoint_exits_two(self, cli_env, capsys):
        out = cli_env["root"] / "a"
        broken = cli_env["root"] / "broken.bin"
        blob = bytearray((out / "checkpoint.bin").read_bytes())
        blob[30] ^= 0x01
        broken.write_bytes(bytes(blob))
        assert main(["eval", "--config", str(cli_env["cfg"]),
                     "--checkpoint", str(broken),
                     "--data", str(cli_env["test"])]) == 2
        capsys.readouterr()


# sizes a run can ask for: tiny, or past every cap (so nothing is allocated)
_HUGE = 10 ** 13
_TINY_OR_HUGE = st.one_of(st.integers(1, 4), st.just(_HUGE),
                          st.sampled_from([-1, 0])).map(str)
_COUNT_KEYS = ["segments", "clips_per_segment", "clip_interval", "batch_size",
               "top_k", "top_p", "seed", "rows", "cols", "channels", "window",
               "stride"]
_FLOAT_KEYS = [f.name for f in fields(Config) if f.type == "float"]
_PREFIXES = {1: ("usage error:", "configuration error:"), 2: ("i/o error:",),
             3: ("numeric failure:",)}


@st.composite
def _config_texts(draw):
    """Config text with a tiny epoch count; no path keys, so every file the
    run writes lands under the flags' directories."""
    lines = [("epochs", draw(st.integers(0, 2).map(str)))]
    lines += draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(_COUNT_KEYS), _TINY_OR_HUGE),
        st.tuples(st.sampled_from(_FLOAT_KEYS),
                  st.one_of(st.floats(0.05, 0.95).map(repr),
                            st.just(repr(float(_HUGE))), _VALUES))),
        max_size=4, unique_by=lambda line: line[0]))
    return "".join(f"{key} = {value}\n" for key, value in lines)


@st.composite
def _dataset_texts(draw):
    """A small generated dataset file, maybe with one field replaced, or
    any short text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=40))
    n_videos = draw(st.integers(2, 4))
    spec = generate_dataset(n_videos, draw(st.integers(0, n_videos)),
                            draw(st.integers(1, 2)), draw(st.integers(0, 9)),
                            frames=(8, 30), cover=(0.2, 0.8))
    lines = format_dataset(spec).splitlines()
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(lines) - 1))
        words = lines[at].split(" ")
        words[draw(st.integers(0, len(words) - 1))] = draw(
            st.one_of(_TINY_OR_HUGE, st.text(max_size=6)))
        lines[at] = " ".join(words)
    return "\n".join(lines) + "\n"


@st.composite
def _checkpoint_files(draw):
    """Checkpoint bytes for small heads, maybe patched and re-sealed, maybe
    cut short; None (two draws in three) stands for the checkpoint the train
    run wrote."""
    if draw(st.integers(0, 2)):
        return None
    params = HeadParams.initialize(draw(st.sampled_from([1, 2, 4, 32])),
                                   draw(st.integers(1, 2)),
                                   np.random.default_rng(0))
    blob = checkpoint_bytes(params, draw(st.integers(1, 40)),
                            draw(st.integers(1, 10)))
    if draw(st.booleans()):
        at = draw(st.integers(8, len(blob) - 16))
        blob = _resealed(blob, at, draw(st.binary(min_size=1, max_size=8)))
    if draw(st.booleans()):
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    return blob


@st.composite
def _file_bytes(draw, texts):
    """A file's bytes: the drawn text in UTF-8, maybe with raw bytes put
    in at one place, or any short bytes."""
    data = draw(texts).encode("utf-8")
    choice = draw(st.integers(0, 5))
    if choice == 0:
        return draw(st.binary(max_size=40))
    if choice == 1:
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


def _run(argv: list[str]) -> None:
    """``main(argv)`` must return a code whose diagnostic names the error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)  # any exception escaping main fails the property
    assert rc in (0, 1, 2, 3), rc
    if rc:
        assert err.getvalue().startswith(_PREFIXES[rc]), err.getvalue()
    assert "Traceback" not in err.getvalue()


@settings(max_examples=200, deadline=None)
@given(_file_bytes(_config_texts()), _file_bytes(_dataset_texts()),
       _checkpoint_files())
def test_cli_ends_in_exit_code_or_named_error(config, dataset, checkpoint):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "run.cfg").write_bytes(config)
        (root / "data.txt").write_bytes(dataset)
        common = ["--config", str(root / "run.cfg"),
                  "--data", str(root / "data.txt")]
        _run(["train", *common, "--out-dir", str(root / "train")])
        ckpt = root / "train" / "checkpoint.bin"
        if checkpoint is not None:
            ckpt = root / "given.bin"
            ckpt.write_bytes(checkpoint)
        _run(["eval", *common, "--checkpoint", str(ckpt),
              "--out-dir", str(root / "eval")])

"""Command-line interface: generate-data, train, eval, and score.

Exit codes: 0 success, 1 usage or configuration error, 2 I/O or file-format
error, 3 numeric failure. Every run echoes the fully resolved configuration
before doing work.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import Config, format_config, load_config
from .data import (DatasetSpec, generate_dataset, read_dataset, write_dataset)
from .errors import (CheckpointError, ConfigError, DatasetError, GigVadError,
                     MetricError, NumericError)
from .fileio import atomic_write_text
from .inference import (evaluate_dataset, report_text, score_video,
                        smooth_series)
from .losses import LossBreakdown
from .training import train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, not argparse's default 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gigvad", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("generate-data", help="write a synthetic dataset file")
    gen.add_argument("--out", required=True, help="dataset file to write")
    gen.add_argument("--videos", type=int, default=200)
    gen.add_argument("--anomalous", type=int, default=120)
    gen.add_argument("--classes", type=int, default=3)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--frames", type=int, nargs=2, default=(180, 360),
                     metavar=("MIN", "MAX"))
    gen.add_argument("--cover", type=float, nargs=2, default=(0.85, 1.0),
                     metavar=("MIN", "MAX"),
                     help="per-span fraction of the video")
    gen.add_argument("--start-id", type=int, default=0)
    gen.add_argument("--multi-span-every", type=int, default=4,
                     help="every n-th anomalous video gets a second class"
                          " (0 disables)")

    tr = sub.add_parser("train", help="train the heads on a dataset file")
    _common_flags(tr)
    tr.add_argument("--seed", type=int, help="override the config seed")
    tr.add_argument("--data", help="training dataset (overrides train_data)")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _common_flags(ev)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", help="test dataset (overrides test_data)")
    ev.add_argument("--out", help="metrics report path")

    sc = sub.add_parser("score", help="write per-frame scores for one video")
    _common_flags(sc)
    sc.add_argument("--checkpoint", required=True)
    sc.add_argument("--data", help="dataset holding the video")
    sc.add_argument("--video", type=int, required=True, help="video id")
    sc.add_argument("--out", help="score file path")
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--out-dir", help="override the output directory")


def _resolve_config(args) -> Config:
    cfg = load_config(args.config) if args.config else Config()
    overrides = {key: getattr(args, key) for key in ("seed", "out_dir")
                 if getattr(args, key, None) is not None}
    cfg = dataclasses.replace(cfg, **overrides)  # re-runs the checks
    print(format_config(cfg), end="")
    return cfg


def _dataset(path_flag: str | None, cfg_path: str, role: str) -> DatasetSpec:
    path = path_flag or cfg_path
    if not path:
        raise _UsageError(f"no {role} dataset given (flag --data or config)")
    return read_dataset(path)


def _loss_log_text(history: list[LossBreakdown]) -> str:
    lines = []
    for epoch, bd in enumerate(history, start=1):
        lines.append("\t".join([str(epoch), repr(bd.multiclass),
                                repr(bd.segment_overall),
                                repr(bd.video_overall), repr(bd.sparsity),
                                repr(bd.total)]))
    return "\n".join(lines) + ("\n" if lines else "")


def _cmd_generate(args) -> int:
    spec = generate_dataset(args.videos, args.anomalous, args.classes,
                            args.seed, frames=tuple(args.frames),
                            cover=tuple(args.cover), start_id=args.start_id,
                            second_span_every=args.multi_span_every)
    write_dataset(args.out, spec)
    print(f"wrote {len(spec.videos)} videos to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    dataset = _dataset(args.data, cfg.train_data, "training")
    result = train(dataset, cfg)
    out_dir = Path(cfg.out_dir)
    ckpt = out_dir / "checkpoint.bin"
    log = out_dir / "loss_log.tsv"
    save_checkpoint(ckpt, result.params, cfg.resolved_k, cfg.resolved_p)
    atomic_write_text(log, _loss_log_text(result.history))
    if result.history:
        print(f"final epoch total loss: {result.history[-1].total!r}")
    print(f"wrote {ckpt} and {log}")
    return EXIT_OK


def _scoring_inputs(args, cfg: Config, role: str):
    """The checkpoint's heads and the dataset to score, checked to agree
    with the config on channels and top_k and with each other on classes."""
    params, meta = load_checkpoint(args.checkpoint)
    for name, ours in (("channels", cfg.channels), ("top_k", cfg.resolved_k)):
        if meta[name] != ours:
            raise ConfigError(
                f"checkpoint has {name} = {meta[name]}, config says {ours}")
    dataset = _dataset(args.data, cfg.test_data, role)
    if dataset.n_classes != meta["n_classes"]:
        raise ConfigError("checkpoint and dataset disagree on class count")
    return params, dataset


def _cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    params, dataset = _scoring_inputs(args, cfg, "test")
    report = evaluate_dataset(dataset, params, cfg.dims, cfg.resolved_k,
                              cfg.window, cfg.stride, cfg.sigma, cfg.tau)
    out = Path(args.out) if args.out else Path(cfg.out_dir) / "metrics.txt"
    text = report_text(report)
    atomic_write_text(out, text)
    print(text, end="")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_score(args) -> int:
    cfg = _resolve_config(args)
    params, dataset = _scoring_inputs(args, cfg, "score")
    video = dataset.video_by_id(args.video)
    series = smooth_series(
        score_video(video, params, cfg.dims, dataset.seed, cfg.resolved_k,
                    cfg.window, cfg.stride), cfg.sigma)
    # plain floats: repr of a numpy scalar would read np.float64(...)
    rows = zip(series.overall.tolist(), series.channel_scores.tolist())
    lines = ["\t".join([str(f), repr(overall), *map(repr, channels)])
             for f, (overall, channels) in enumerate(rows)]
    out = (Path(args.out) if args.out
           else Path(cfg.out_dir) / f"scores_{video.video_id}.tsv")
    atomic_write_text(out, "\n".join(lines) + "\n")
    print(f"wrote {series.frames} frame scores to {out}")
    return EXIT_OK


_COMMANDS = {
    "generate-data": _cmd_generate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "score": _cmd_score,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.verb](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, DatasetError, CheckpointError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, MetricError, GigVadError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())

"""Workloads, set-up, correctness gates and metrics of the gigvad benchmark.

End-to-end runs go through ``gigvad.cli.main`` in this process: one caller
in a closed loop runs ``train`` then ``eval`` (``eval`` alone for an
eval-only workload) until the time budget is spent. Traced runs time the
same pair once as the reference, then re-drive both loops through the
replicas in ``replica.py``.
"""

from __future__ import annotations

import io
import resource
import shutil
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from gigvad import (generate_dataset, load_checkpoint, load_config,
                    read_dataset, report_text, save_checkpoint, write_dataset)
from gigvad import cli
from gigvad.checkpoint import checkpoint_bytes
from gigvad.cli import _loss_log_text
from gigvad.data import format_dataset

from replica import CHECK, Tracer, traced_eval, traced_train

AUC_BAR = 0.90          # criterion-5 bars
MF1_BAR = 0.60
COMPOSE_TOL = 1e-12     # loss-log total against its weighted terms
SETUP_REPEATS = 3       # setup_s is the median of at least this many
SETUP_SECONDS = 0.5     # set-ups, repeated until they took this long
MIN_ITERATIONS = 2      # the determinism gate compares iterations


@dataclass(frozen=True)
class Videos:
    """Arguments of ``generate_dataset`` for one dataset, less the seed."""

    count: int
    anomalous: int
    frames: tuple[int, int]
    cover: tuple[float, float]
    start_id: int

    def generate(self, seed: int):
        return generate_dataset(self.count, self.anomalous, 3, seed,
                                frames=self.frames, cover=self.cover,
                                start_id=self.start_id, second_span_every=4)


TRIMMED = Videos(200, 120, (180, 360), (0.85, 1.0), 0)    # default_train_spec
UNTRIMMED = Videos(40, 24, (240, 480), (0.1, 0.3), 200)   # default_test_spec


@dataclass(frozen=True)
class Workload:
    train: Videos
    test: Videos
    config: dict             # lines of the gigvad config file
    eval_only: bool = False  # train in set-up; the timed loop runs eval alone


WORKLOADS = {
    # The paper protocol, with 15 epochs instead of 100 so that two
    # train+eval iterations fit one run; per-step cost does not depend on
    # the epoch count.
    "protocol": Workload(TRIMMED, UNTRIMMED, {"epochs": 15}),
    # Forward-only T=1 head calls over long untrimmed videos. Each set-up
    # trains the checkpoint, so it is kept to 10 epochs for three set-ups
    # and two evals to fit one run.
    "eval_untrimmed": Workload(
        TRIMMED, Videos(20, 12, (1000, 2000), (0.1, 0.3), 200),
        {"epochs": 10}, eval_only=True),
    # 1 MB feature blocks per video, against 2 MB of L2 per core; 4 epochs
    # so that two train+eval iterations fit one run.
    "train_wide": Workload(
        TRIMMED, UNTRIMMED,
        {"epochs": 4, "segments": 16, "rows": 8, "cols": 8,
         "channels": 128, "top_k": 4}),
}


def tiny(wl: Workload) -> Workload:
    """The same workload at a few videos and one epoch (for the self-test)."""
    return replace(wl, train=replace(wl.train, count=6, anomalous=3),
                   test=replace(wl.test, count=4, anomalous=3,
                                frames=(240, 480)),
                   config={**wl.config, "epochs": 1})


class Ledger:
    """Operations attempted and failed: CLI calls and correctness gates."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}")
        return ok


class Run:
    """Files of one set-up: config, datasets and the CLI's output directory."""

    def __init__(self, directory: Path) -> None:
        self.dir = directory
        self.config = directory / "config.txt"
        self.train_data = directory / "train.txt"
        self.test_data = directory / "test.txt"
        self.out = directory / "out"
        self.checkpoint = self.out / "checkpoint.bin"
        self.loss_log = self.out / "loss_log.tsv"
        self.report = self.out / "metrics.txt"

    def cli(self, ledger: Ledger, verb: str) -> float | None:
        """Run ``gigvad <verb>`` in-process; its wall time, None on failure."""
        argv = [verb, "--config", str(self.config)]
        if verb == "eval":
            argv += ["--checkpoint", str(self.checkpoint)]
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, reported
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        ok = ledger.check(f"gigvad {verb}", code == 0,
                          f"exit {code}: {err.getvalue().strip()}")
        return elapsed if ok else None

    def artifacts(self, names) -> tuple[bytes, ...]:
        return tuple(getattr(self, n).read_bytes() for n in names)


@dataclass
class Setup:
    run: Run
    train: object           # DatasetSpec, as read back from its file
    test: object
    seconds: float
    generate_s: float
    roundtrip_s: float
    train_s: float | None   # eval-only workloads train in set-up


def set_up(wl: Workload, seed: int, run: Run, ledger: Ledger) -> Setup:
    """Write the config and both datasets; train too if ``eval_only``."""
    start = time.perf_counter()
    run.dir.mkdir(parents=True)
    values = {**wl.config, "seed": seed, "train_data": run.train_data,
              "test_data": run.test_data, "out_dir": run.out}
    run.config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                          encoding="utf-8")
    t0 = time.perf_counter()
    specs = (wl.train.generate(seed), wl.test.generate(seed))
    t1 = time.perf_counter()
    paths = (run.train_data, run.test_data)
    for spec, path in zip(specs, paths):
        write_dataset(path, spec)
    back = [read_dataset(path) for path in paths]
    t2 = time.perf_counter()
    ledger.check("dataset round trip",
                 all(format_dataset(a) == format_dataset(b)
                     for a, b in zip(specs, back)))
    train_s = run.cli(ledger, "train") if wl.eval_only else None
    return Setup(run, back[0], back[1], time.perf_counter() - start,
                 t1 - t0, t2 - t1, train_s)


def check_report(ledger: Ledger, text: str) -> dict[str, float]:
    """Parse a metrics report and gate it on the criterion-5 bars."""
    report = {k.strip(): float(v) for k, _, v in
              (line.partition("=") for line in text.splitlines())}
    ledger.check("quality bars",
                 report["auc"] >= AUC_BAR and report["mf1"] >= MF1_BAR,
                 f"auc {report['auc']!r}, mf1 {report['mf1']!r}")
    return report


def check_loss_log(ledger: Ledger, text: str, weights) -> float:
    """Gate every line's composition and the overall descent; last total."""
    w1, w2, w3 = weights
    rows = [[float(x) for x in line.split("\t")[1:]]
            for line in text.splitlines()]
    bad = [i + 1 for i, (mc, so, vo, sp, tot) in enumerate(rows)
           if abs(mc + w1 * so + w2 * vo + w3 * sp - tot) > COMPOSE_TOL]
    ledger.check("loss log composes", bool(rows) and not bad,
                 f"epochs {bad} of {len(rows)}")
    ledger.check("loss decreases", rows[-1][4] < rows[0][4],
                 f"first {rows[0][4]!r}, last {rows[-1][4]!r}")
    return rows[-1][4]


def _weights(run: Run):
    return load_config(run.config).train_config().weights


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl: Workload, seed: int, seconds: float, work: Path,
               ledger: Ledger) -> tuple[dict, dict]:
    """Untraced closed loop; end-to-end metrics and notes on the samples.

    The set-ups and the loop together take about ``seconds``: the loop stops
    when one more iteration would overrun it, but never before
    ``MIN_ITERATIONS``.
    """
    start = time.perf_counter()
    setup_files = ["train_data", "test_data"]
    if wl.eval_only:
        setup_files += ["checkpoint", "loss_log"]
    setups, setup_artifacts = [], []
    while (len(setups) < SETUP_REPEATS
           or sum(s.seconds for s in setups) < SETUP_SECONDS):
        if setups:
            shutil.rmtree(setups[-1].run.dir)
        setups.append(set_up(wl, seed, Run(work / f"setup{len(setups)}"),
                             ledger))
        if wl.eval_only and setups[-1].train_s is None:
            return {}, {}
        setup_artifacts.append(setups[-1].run.artifacts(setup_files))
    ledger.check("set-ups byte-identical",
                 all(a == setup_artifacts[0] for a in setup_artifacts))
    run = setups[-1].run

    iterations: list[tuple[float, float, tuple[bytes, ...]]] = []
    while True:
        train_s = 0.0 if wl.eval_only else run.cli(ledger, "train")
        eval_s = run.cli(ledger, "eval") if train_s is not None else None
        if eval_s is None:
            break
        iterations.append((train_s, eval_s, run.artifacts(
            ["checkpoint", "loss_log", "report"])))
        elapsed = time.perf_counter() - start
        if (len(iterations) >= MIN_ITERATIONS
                and elapsed + train_s + eval_s > seconds):
            break
    if not iterations:
        return {}, {}
    artifacts = iterations[0][2]
    ledger.check("iterations byte-identical",
                 all(it[2] == artifacts for it in iterations))
    report = check_report(ledger, artifacts[2].decode())
    final_loss = check_loss_log(ledger, artifacts[1].decode(),
                                _weights(run))

    steps = int(wl.config["epochs"]) * wl.train.count
    train_times = ([s.train_s for s in setups] if wl.eval_only
                   else [t for t, _, _ in iterations])
    median = statistics.median
    metrics = {
        "setup_s": (median(s.seconds for s in setups), "s"),
        "wall_s": (median(t + e for t, e, _ in iterations), "s"),
        "train_video_steps_per_s": (median(steps / t for t in train_times),
                                    "1/s"),
        "eval_frames_per_s": (
            median(report["frames"] / e for _, e, _ in iterations), "1/s"),
        "auc": (report["auc"], "ratio"),
        "mf1": (report["mf1"], "ratio"),
        "final_loss": (final_loss, "loss"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    notes = {"samples": f"{len(setups)} set-ups, {len(iterations)} "
                        f"iterations, {len(train_times)} trainings of {steps}"
                        f" video steps, {int(report['frames'])} frames per"
                        f" eval, {time.perf_counter() - start:.1f} s"}
    return metrics, notes


def traced(wl: Workload, seed: int, work: Path,
           ledger: Ledger) -> tuple[dict, dict]:
    """One untraced reference pass, then the traced replicas."""
    setup = set_up(wl, seed, Run(work / "traced"), ledger)
    run = setup.run
    ref_train_s = setup.train_s if wl.eval_only else run.cli(ledger, "train")
    ref_eval_s = run.cli(ledger, "eval") if ref_train_s is not None else None
    if ref_eval_s is None:
        return {}, {}
    ckpt, log, report = run.artifacts(["checkpoint", "loss_log", "report"])
    check_report(ledger, report.decode())
    check_loss_log(ledger, log.decode(), _weights(run))

    t0 = time.perf_counter()
    cfg = load_config(run.config)
    t1 = time.perf_counter()
    params, meta = load_checkpoint(run.checkpoint)
    copy = run.dir / "roundtrip.bin"
    save_checkpoint(copy, params, meta["top_k"], meta["top_p"])
    params, meta = load_checkpoint(copy)
    t2 = time.perf_counter()

    tracer = Tracer()
    tc = cfg.train_config()
    replica = traced_train(setup.train, tc, tracer)
    mine, eval_mismatches = traced_eval(
        setup.test, params, cfg.dims, meta["top_k"], cfg.window, cfg.stride,
        cfg.sigma, cfg.tau, tracer)
    stale = replica.head_mismatches + eval_mismatches
    if checkpoint_bytes(replica.params, tc.resolved_k, tc.resolved_p) != ckpt:
        stale.append("checkpoint bytes")
    if _loss_log_text(replica.history).encode() != log:
        stale.append("loss history")
    if report_text(mine).encode() != report:
        stale.append("metrics report")
    # a stale replica times other code than the program's: its per-layer
    # numbers are wrong, so the run fails
    ledger.check("replica exact", not stale, ", ".join(stale))

    metrics = layer_metrics(tracer, wl, tc)
    traced_s = (tracer.work_seconds("training.train")
                + tracer.work_seconds("inference.evaluate"))
    check_s = tracer.durations()[CHECK].sum()
    metrics.update({
        "data.generate_dataset_ms": (setup.generate_s * 1e3, "ms"),
        "data.dataset_roundtrip_ms": (setup.roundtrip_s * 1e3, "ms"),
        "checkpoint.roundtrip_ms": ((t2 - t1) * 1e3, "ms"),
        "config.load_config_us": ((t1 - t0) * 1e6, "us"),
        "spatial.topk_signature_hit_ratio": (
            replica.signature_hits / max(replica.anomalous_segments, 1),
            "ratio"),
        "trace.overhead_ratio": (traced_s / (ref_train_s + ref_eval_s),
                                 "ratio"),
        "trace.replica_exact": (0 if stale else 1, "bool"),
    })
    info = {"untraced_s": f"train {ref_train_s:.3f}, eval {ref_eval_s:.3f}",
            "traced_s": f"{traced_s:.3f} (replica checks excluded:"
                        f" {check_s:.3f})",
            "heads_checked": replica.heads_checked,
            "anomalous_segments": replica.anomalous_segments,
            "breakdown": breakdown(tracer)}
    return metrics, info


# span names below each loop's root, for the self-time breakdown
TRAIN_STEP_SPANS = (
    "training.video_step", "training.sample_segments", "backbone.synthesize",
    "training.hflip_augment", "model.run_head", "gig.global_pattern",
    "gig.enhance", "gig.video_overall_score", "spatial.relation_scores",
    "spatial.segment_patterns", "spatial.segment_scores", "spatial.consensus",
    "losses.assembly", "tensor.gradients", "training.adagrad_step")
EVAL_SPANS = (
    "inference.evaluate", "inference.score_video", "inference.window",
    "backbone.synthesize_window", "model.run_head_window",
    "inference.smooth_series", "inference.classify_frames",
    "metrics.roc_auc", "metrics.f1_metrics")


# (metric, span, percentile): one sample per call of the span; the metric's
# name ends in its unit
SPAN_PERCENTILES = [
    ("model.run_head_us_p50", "model.run_head", 50),
    ("model.run_head_us_p99", "model.run_head", 99),
    ("gig.global_pattern_us", "gig.global_pattern", 50),
    ("gig.enhance_us", "gig.enhance", 50),
    ("gig.video_overall_score_us", "gig.video_overall_score", 50),
    ("spatial.relation_scores_us", "spatial.relation_scores", 50),
    ("spatial.segment_patterns_us", "spatial.segment_patterns", 50),
    ("spatial.segment_scores_us", "spatial.segment_scores", 50),
    ("spatial.consensus_us", "spatial.consensus", 50),
    ("model.run_head_window_us_p50", "model.run_head_window", 50),
    ("model.run_head_window_us_p99", "model.run_head_window", 99),
    ("losses.assembly_us_p50", "losses.assembly", 50),
    ("tensor.gradients_us_p50", "tensor.gradients", 50),
    ("tensor.gradients_us_p99", "tensor.gradients", 99),
    ("training.sample_segments_us_p50", "training.sample_segments", 50),
    ("training.hflip_augment_us_p50", "training.hflip_augment", 50),
    ("training.adagrad_step_us_p50", "training.adagrad_step", 50),
    ("training.video_step_ms_p50", "training.video_step", 50),
    ("training.video_step_ms_p99", "training.video_step", 99),
    ("inference.window_us_p50", "inference.window", 50),
    ("inference.window_us_p99", "inference.window", 99),
    ("inference.score_video_ms_p50", "inference.score_video", 50),
    ("inference.score_video_ms_p75", "inference.score_video", 75),
    ("inference.smooth_series_us_p50", "inference.smooth_series", 50),
    ("inference.classify_frames_us_p50", "inference.classify_frames", 50),
    ("metrics.roc_auc_ms", "metrics.roc_auc", 50),
    ("metrics.f1_metrics_ms", "metrics.f1_metrics", 50),
]


def layer_metrics(tracer: Tracer, wl: Workload, tc) -> dict:
    d = tracer.durations()
    names = np.array(tracer.names)
    self_s = tracer.self_times()
    out = {}
    for metric, span, q in SPAN_PERCENTILES:
        unit = "us" if "_us" in metric else "ms"
        scale = 1e6 if unit == "us" else 1e3
        out[metric] = (np.percentile(d[span], q) * scale, unit)

    per_segment = np.concatenate([d["backbone.synthesize"] / tc.segments,
                                  d["backbone.synthesize_window"]])
    backbone_s = d["backbone.synthesize_window"].sum()
    measured_s = tracer.work_seconds("inference.evaluate")
    if not wl.eval_only:
        backbone_s += d["backbone.synthesize"].sum()
        measured_s += tracer.work_seconds("training.train")
    for root, metric in (("training.video_step", "training.uncovered_share"),
                         ("inference.evaluate", "inference.uncovered_share")):
        out[metric] = (self_s[names == root].sum()
                       / tracer.work_seconds(root), "ratio")
    out.update({
        "backbone.segment_us_p50": (np.percentile(per_segment, 50) * 1e6,
                                    "us"),
        "backbone.segment_us_p99": (np.percentile(per_segment, 99) * 1e6,
                                    "us"),
        "backbone.segments": (tc.segments * d["backbone.synthesize"].size
                              + d["backbone.synthesize_window"].size,
                              "count"),
        "backbone.share": (backbone_s / measured_s, "ratio"),
        "training.adagrad_steps": (d["training.adagrad_step"].size, "count"),
        "inference.windows": (d["inference.window"].size, "count"),
    })
    return out


def breakdown(tracer: Tracer) -> list[str]:
    """Table of self time per span, as a share of its loop's wall time
    (replica checks excluded)."""
    d = tracer.durations()
    names = np.array(tracer.names)
    self_s = tracer.self_times()
    lines = []
    for root, group in (("training.video_step", TRAIN_STEP_SPANS),
                        ("inference.evaluate", EVAL_SPANS)):
        total = tracer.work_seconds(root)
        lines.append(f"{root}: {total:.3f} s over {d[root].size} calls")
        for name in group:
            own = self_s[names == name].sum()
            lines.append(f"  {name:28s} calls {d[name].size:7d}  "
                         f"self {own * 1e3:10.1f} ms  {own / total:6.1%}")
    return lines

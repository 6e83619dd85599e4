"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line per
criterion. The end-to-end criteria share one pair of full-scale pipeline runs
(seed 7, the protocol defaults) driven through the real CLI.
"""

import time
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

from gigvad import ops
from gigvad.cli import main
from gigvad.data import default_test_spec, default_train_spec, write_dataset
from gigvad.gig import (FeatureMaps, HeadParams, VideoLabels, enhance,
                        global_pattern, video_level_loss, video_overall_score)
from gigvad.inference import gaussian_smooth
from gigvad.losses import (multiclass_loss, segment_overall_loss,
                           sparsity_loss, total_loss)
from gigvad.metrics import f1_metrics, roc_auc
from gigvad.model import video_loss
from gigvad.spatial import consensus, relation_scores, select_topk
from gigvad.tensor import GradTape, Tensor

from conftest import spaced_scores


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} [FAIL]: {summary}")
        raise
    print(f"\ncriterion {num} [PASS]: {summary}")


def _seeded(name: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(name.encode()))


def _away_from_origin(rng, shape, min_norm=0.5):
    flat = rng.normal(size=(int(np.prod(shape[:-1])), shape[-1]))
    norms = np.linalg.norm(flat, axis=-1, keepdims=True)
    flat *= np.maximum(1.0, min_norm / norms)
    return flat.reshape(shape)


def _weighted(t, weights):
    # normalized so |f| stays O(1): keeps finite-difference rounding noise
    # far below the gradient-check tolerance
    return ops.sum_all(ops.apply_mask(t, weights / weights.size))


# ---------------------------------------------------------------- criterion 1

def _gradient_cases():
    """(name, case factory) per operation group named by the criterion."""
    w_map = _seeded("wmap").normal(size=(2, 2, 2))
    w_vec = _seeded("wvec").normal(size=4)
    w_block = _seeded("wblock").normal(size=(2, 2, 2, 4))
    w_chan = _seeded("wchan").normal(size=3)
    w_rows = _seeded("wrows").normal(size=(5, 3))

    def enhance_case(rng):
        x = Tensor(rng.normal(size=(2, 2, 2, 4)))
        g = Tensor(rng.normal(size=4))
        return (lambda x, g: _weighted(
            enhance(FeatureMaps(x), g).data, w_block), [x, g])

    def video_score_case(rng):
        params = HeadParams.initialize(5, 2, rng)

        def f(g, w, b):
            return video_overall_score(g, HeadParams(w, b, w, b, accum={}))
        return (f, [Tensor(rng.normal(size=5)), params.video_w,
                    params.video_b])

    def relation_case(rng):
        g = Tensor(_away_from_origin(rng, (4,)))
        x = Tensor(_away_from_origin(rng, (2, 2, 2, 4)))
        return (lambda g, x: _weighted(
            relation_scores(g, FeatureMaps(x)), w_map), [g, x])

    def topk_case(rng):
        scores = spaced_scores(rng, (3, 2))
        x = Tensor(rng.normal(size=(3, 2, 4)))
        return (lambda x: _weighted(select_topk(x, scores, 3), w_vec), [x])

    def consensus_case(rng):
        s = Tensor(spaced_scores(rng, (5, 3)))

        def f(s):
            cs = consensus(s, 2)
            return ops.add(_weighted(cs.channel_scores, w_chan),
                           ops.scale(cs.overall, 0.7))
        return (f, [s])

    def video_loss_term_case(rng):
        s = Tensor(rng.uniform(0.05, 0.95))
        y = int(rng.integers(0, 2))
        return (lambda s: video_level_loss(s, y), [s])

    def segment_overall_case(rng):
        s = Tensor(spaced_scores(rng, (5, 3)) % 0.9 + 0.05)
        y = int(rng.integers(0, 2))
        return (lambda s: segment_overall_loss(consensus(s, 2), y), [s])

    def multiclass_case(rng):
        labels = VideoLabels(rng.integers(0, 2, size=3))
        s = Tensor(rng.uniform(0.05, 0.95, size=(5, 4)))
        return (lambda s: multiclass_loss(consensus(s, 2), labels), [s])

    def sparsity_case(rng):
        return (sparsity_loss, [Tensor(spaced_scores(rng, (4, 3)))])

    def total_case(rng):
        parts = [Tensor(v) for v in rng.uniform(0.1, 2.0, size=4)]
        return (lambda a, b, c, d: total_loss(a, b, c, d)[0], parts)

    def composite_case(rng):
        params = HeadParams.initialize(5, 2, rng)
        labels = VideoLabels(np.array([1, 0]))
        x = Tensor(rng.normal(size=(3, 2, 2, 5)))

        def f(x, vw, vb, sw, sb):
            total, _ = video_loss(
                FeatureMaps(x), HeadParams(vw, vb, sw, sb, accum={}), labels,
                top_k=2, top_p=2, weights=(1.0, 0.5, 0.1))
            return total
        return (f, [x, *params.tensors()])

    return [
        ("enhance", enhance_case),
        ("video_overall_score", video_score_case),
        ("relation_scores", relation_case),
        ("select_topk", topk_case),
        ("consensus", consensus_case),
        ("video_level_loss", video_loss_term_case),
        ("segment_overall_loss", segment_overall_case),
        ("multiclass_loss", multiclass_case),
        ("sparsity_loss", sparsity_case),
        ("total_loss", total_case),
        ("composite_supervision", composite_case),
    ]


def test_criterion_1_gradient_oracle():
    with criterion(1, "analytic gradients match central differences"
                      " (h=1e-4, rel tol 1e-5, >=50 points per op, <60s)"):
        started = time.monotonic()
        for name, make_case in _gradient_cases():
            rng = _seeded(name)
            passes, attempts = 0, 0
            while passes < 50:
                attempts += 1
                assert attempts <= 80, f"{name}: too many degenerate draws"
                f, inputs = make_case(rng)
                report = ops.grad_check(f, inputs, h=1e-4, tol=1e-5)
                if report.degenerate:
                    continue
                assert report.passed, (
                    f"{name}: max rel err {report.max_rel_err:.3e}")
                passes += 1
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"gradient oracle took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_selection_oracles():
    with criterion(2, "top-k and consensus match brute-force stable sorts"
                      " exactly on 1000 instances with ties"):
        rng = _seeded("selection")
        pool = np.array([0.0, 0.125, 0.25, 0.25, 0.5, 0.75, 0.75, 1.0])
        for _ in range(1000):
            m = int(rng.integers(1, 10))
            k = int(rng.integers(1, m + 1))
            scores = rng.choice(pool, size=(m, 1))
            x = Tensor(rng.normal(size=(m, 1, 3)))
            with GradTape() as tape:
                out = ops.sum_all(select_topk(x, scores, k))
            grad = tape.gradients(out, [x])[0]
            selected = set(np.nonzero(grad[:, 0, 0])[0].tolist())
            order = sorted(range(m), key=lambda i: (-scores[i, 0], i))
            assert selected == set(order[:k])

        for _ in range(1000):
            t = int(rng.integers(1, 9))
            channels = int(rng.integers(2, 5))
            p = int(rng.integers(1, t + 1))
            s = rng.choice(pool, size=(t, channels))
            got = consensus(Tensor(s), p).channel_scores.data
            for c in range(channels):
                ranked = np.array(sorted(s[:, c], reverse=True)[:p])
                assert got[c] == ranked.sum() / p  # exact


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_metric_oracles():
    with criterion(3, "AUC matches pair counting to 1e-12, F1 matches the"
                      " confusion matrix, AUC invariant to monotone maps"):
        rng = _seeded("metrics")
        for _ in range(1000):
            n = int(rng.integers(4, 200))
            scores = np.round(rng.uniform(size=n), 2)  # plenty of ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos, neg = scores[labels == 1], scores[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            want = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert abs(roc_auc(scores, labels) - want) <= 1e-12

        for _ in range(300):
            truth = rng.integers(0, 4, size=80)
            pred = rng.integers(0, 4, size=80)
            f1, mf1 = f1_metrics(pred, truth, 3)
            want = []
            for cls in (1, 2, 3):
                tp = int(np.sum((pred == cls) & (truth == cls)))
                fp = int(np.sum((pred == cls) & (truth != cls)))
                fn = int(np.sum((pred != cls) & (truth == cls)))
                if tp == 0:  # includes every vanishing denominator
                    want.append(0.0)
                else:
                    precision, recall = tp / (tp + fp), tp / (tp + fn)
                    want.append(2 * precision * recall / (precision + recall))
            assert f1.tolist() == want and mf1 == np.mean(want)

        scores = rng.uniform(size=2000)
        labels = rng.integers(0, 2, size=2000)
        assert roc_auc(scores, labels) == roc_auc(scores ** 3, labels)


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_analytic_spot_values():
    with criterion(4, "sigmoid/BCE/enhance/consensus analytic spot values"):
        assert ops.sigmoid(Tensor(0.0)).item() == 0.5
        x0 = Tensor(0.0)
        with GradTape() as tape:
            s = ops.sigmoid(x0)
        assert tape.gradients(s, [x0])[0] == 0.25

        ln2 = float(np.log(2.0))
        for y in (0.0, 1.0):
            assert ops.bce(Tensor(0.5), y).item() == pytest.approx(
                ln2, abs=1e-12)

        rng = _seeded("spot")
        block = rng.normal(size=(2, 3, 2, 4))
        enhanced = enhance(FeatureMaps(Tensor(block)), Tensor(np.zeros(4)))
        assert np.array_equal(enhanced.data.data, 1.5 * block)

        s = rng.uniform(size=(6, 4))
        cs = consensus(Tensor(s), 6)
        assert np.allclose(cs.channel_scores.data, s.mean(axis=0),
                           rtol=0, atol=1e-12)


# ----------------------------------------------------- criteria 5, 6, 8 setup

@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """Two identical full-scale train+eval runs through the CLI."""
    root = tmp_path_factory.mktemp("endtoend")
    train_file, test_file = root / "train.txt", root / "test.txt"
    write_dataset(train_file, default_train_spec(7))
    write_dataset(test_file, default_test_spec(7))

    # the CLI's generate-data defaults must reproduce the default generator
    cli_train = root / "cli_train.txt"
    assert main(["generate-data", "--out", str(cli_train)]) == 0
    assert cli_train.read_bytes() == train_file.read_bytes()

    config = root / "run.cfg"
    config.write_text("# protocol defaults; seed pinned below\nseed = 7\n")

    runs = []
    for name in ("run_a", "run_b"):
        out = root / name
        started = time.monotonic()
        rc = main(["train", "--config", str(config), "--seed", "7",
                   "--data", str(train_file), "--out-dir", str(out)])
        train_seconds = time.monotonic() - started
        assert rc == 0
        rc = main(["eval", "--config", str(config),
                   "--checkpoint", str(out / "checkpoint.bin"),
                   "--data", str(test_file),
                   "--out", str(out / "metrics.txt")])
        assert rc == 0
        runs.append({"dir": out, "train_seconds": train_seconds})
    return runs


def _metrics(run) -> dict:
    text = (run["dir"] / "metrics.txt").read_text()
    return dict(line.split(" = ") for line in text.splitlines())


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_synthetic_end_to_end(pipeline_runs):
    run = pipeline_runs[0]
    values = _metrics(run)
    auc, mf1 = float(values["auc"]), float(values["mf1"])
    with criterion(5, f"held-out AUC {auc:.4f} >= 0.90 and MF1 {mf1:.4f}"
                      f" >= 0.60 in {run['train_seconds']:.0f}s"):
        assert values["videos"] == "40"
        assert auc >= 0.90
        assert mf1 >= 0.60
        assert run["train_seconds"] < 600.0

        log_lines = (run["dir"] / "loss_log.tsv").read_text().splitlines()
        assert len(log_lines) == 100
        first_total = float(log_lines[0].split("\t")[5])
        last_total = float(log_lines[-1].split("\t")[5])
        assert last_total < first_total


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_determinism(pipeline_runs):
    with criterion(6, "same seed: byte-identical checkpoint, loss log,"
                      " and metrics report"):
        run_a, run_b = pipeline_runs
        for artifact in ("checkpoint.bin", "loss_log.tsv", "metrics.txt"):
            a = (run_a["dir"] / artifact).read_bytes()
            b = (run_b["dir"] / artifact).read_bytes()
            assert a == b, f"{artifact} differs between identical runs"


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_smoothing_contract():
    with criterion(7, "gaussian smoothing: constants fixed, impulses match"
                      " the truncated-kernel oracle, both to 1e-12"):
        constant = np.full(64, 0.42)
        assert np.abs(gaussian_smooth(constant, 2.0) - constant).max() <= 1e-12

        sigma = 2.0
        radius = int(np.ceil(4 * sigma))
        kernel = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
        kernel /= kernel.sum()
        n = 129
        for center in (radius, n // 2, n - radius - 1):
            impulse = np.zeros(n)
            impulse[center] = 1.0
            want = np.zeros(n)
            want[center - radius:center + radius + 1] = kernel
            got = gaussian_smooth(impulse, sigma)
            assert np.abs(got - want).max() <= 1e-12


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_loss_composition(pipeline_runs):
    with criterion(8, "every logged epoch: total = multiclass + 1*segment"
                      " + 0.5*video + 0.1*sparsity to 1e-12"):
        lines = (pipeline_runs[0]["dir"] / "loss_log.tsv").read_text().splitlines()
        assert len(lines) == 100
        for line in lines:
            fields = line.split("\t")
            multiclass, segment, video, sparsity, total = map(float, fields[1:])
            composed = multiclass + 1.0 * segment + 0.5 * video + 0.1 * sparsity
            assert abs(total - composed) <= 1e-12

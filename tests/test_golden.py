"""Golden bits of a small generate-data / train / eval / score run.

The run goes through ``cli.main`` at seed 7 and takes a few seconds. Its four
artifacts must hash to the sha256 digests below, which were recorded before
the unread fields and parameters of the head were deleted. The score file's
digest was recorded again when its values came to be written as plain float
text (``0.49…`` where numpy 2 scalars printed ``np.float64(0.49…)``); every
value it holds kept its bits, and the other three digests did not move. All
four were recorded with numpy 2.4.6 built against scipy-openblas
0.3.31.188.0 (OpenBLAS DYNAMIC_ARCH, x86_64) under CPython 3.11. A change that moves any
output bit fails here; one that means to must re-record the digests and say
so. On another numpy or BLAS build, or another CPU family, the float bits may
differ with no change to the code.
"""

import hashlib

from gigvad.cli import main

GOLDEN = {
    "checkpoint.bin":
        "cdf41f208e2b6ec6c0e023c816b7542acda95da67b98a9c6c875c8e23a195878",
    "loss_log.tsv":
        "3048223fc3661a4a41c5b73db4ad14c7bf99d4b9b47624345b133063743aef28",
    "metrics.txt":
        "422ad74e5d0595ab93b3cae8a86477cd1a0d7b941e930ab1fde594049baed9cd",
    "scores_100.tsv":
        "ce2c6bc00f794a1489a58a3f00f034abb578f507782c813b9fd248738222c96b",
}


def test_cli_artifacts_match_golden_digests(tmp_path, capsys):
    train, test, out = tmp_path / "train.txt", tmp_path / "test.txt", tmp_path
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 10\nseed = 7\n")
    common = ["--config", str(cfg), "--out-dir", str(out)]
    ckpt = ["--checkpoint", str(out / "checkpoint.bin")]
    assert main(["generate-data", "--out", str(train), "--videos", "24",
                 "--anomalous", "14", "--seed", "7",
                 "--frames", "40", "80", "--cover", "0.6", "0.9"]) == 0
    assert main(["generate-data", "--out", str(test), "--videos", "6",
                 "--anomalous", "4", "--seed", "7", "--frames", "60", "120",
                 "--cover", "0.2", "0.4", "--start-id", "100"]) == 0
    assert main(["train", *common, "--data", str(train)]) == 0
    assert main(["eval", *common, *ckpt, "--data", str(test)]) == 0
    assert main(["score", *common, *ckpt, "--data", str(test),
                 "--video", "100"]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN}
    assert digests == GOLDEN

"""Golden bits of a small generate-data / train / eval / score run.

The run goes through ``cli.main`` at seed 7 and takes a few seconds. Its four
artifacts must hash to the sha256 digests below, which were recorded before
the unread fields and parameters of the head were deleted. They were
recorded with numpy 2.4.6 built against scipy-openblas 0.3.31.188.0
(OpenBLAS DYNAMIC_ARCH, x86_64) under CPython 3.11. A change that moves any
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
        "2f16a293496faae27b8487db172bf445991dec9486e3928b1f2fc5f45fea59d9",
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

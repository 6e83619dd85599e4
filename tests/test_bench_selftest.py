"""The benchmark's self-test runs against the current sources.

``bench/`` imports package names (and private training and CLI helpers) and
replays the training and window-scoring loops; a deleted name or a replica
that no longer reproduces the program's bits makes the self-test fail.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest ok"

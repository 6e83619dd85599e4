"""Run one workload of the gigvad benchmark and print its metrics.

    python3 bench/run.py --workload protocol --seed 7 --seconds 35 --trace 0

Run it from the repository root. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run. Lines starting
with ``#`` describe the run (environment, sample counts, failures, the
self-time breakdown); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXIT_NO_PROGRAM = 2


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {k: os.environ.get(k, "unset") for k in threads},
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "workload_seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gigvad" / "__init__.py").is_file():
        print(f"no gigvad sources under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.WORKLOADS)}")
    result, notes = run_workload(harness.WORKLOADS[args.workload], args.seed,
                                 args.seconds, bool(args.trace))
    print(f"# env {json.dumps(environment(args.seed))}")
    for note in notes:
        print(f"# {note}")
    print(json.dumps(result))
    return 0


def run_workload(wl, seed: int, seconds: float, trace: bool):
    """Run ``wl``; the result object and the ``#`` notes to print."""
    import harness
    from gigvad import GigVadError

    ledger = harness.Ledger()
    work = ROOT / ".bench_work" / f"{os.getpid()}-{seed}"
    try:
        if trace:
            metrics, info = harness.traced(wl, seed, work, ledger)
        else:
            metrics, info = harness.end_to_end(wl, seed, seconds, work, ledger)
    except GigVadError as exc:
        ledger.check("workload", False, f"{type(exc).__name__}: {exc}")
        metrics, info = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if not trace and metrics:
        metrics["ok_ratio"] = (
            (ledger.attempted - len(ledger.failures)) / ledger.attempted,
            "ratio")
    notes = [f"{k}: {v}" for k, v in info.items() if k != "breakdown"]
    notes += info.get("breakdown", [])
    notes += [f"FAILED {f}" for f in ledger.failures]
    result = {
        "correct": not ledger.failures and bool(metrics),
        "attempted": max(ledger.attempted, 1),
        "failed": len(ledger.failures),
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    return result, notes


if __name__ == "__main__":
    raise SystemExit(main())

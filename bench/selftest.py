"""Self-test of the benchmark at a few videos and one epoch per workload.

    python3 bench/selftest.py

For every workload in BENCHMARK.json it runs the untraced and the traced
mode at tiny scale and checks that each named metric is emitted with its
unit, and that the traced replicas reproduce the program's output exactly
(``trace.replica_exact`` is 1). The quality gates are not expected to pass
at this scale, so ``correct`` is not checked.
"""

from __future__ import annotations

import json
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def main() -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.SRC))
    import harness

    problems = []
    for workload in spec["workloads"]:
        wl = harness.tiny(harness.WORKLOADS[workload["name"]])
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, notes = run.run_workload(wl, seed=7, seconds=0.0,
                                             trace=trace)
            where = f"{workload['name']} trace={int(trace)}"
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json:"
                                f" missing {sorted(set(want) - set(got))},"
                                f" extra {sorted(set(got) - set(want))},"
                                f" units {[n for n in want if n in got and got[n] != want[n]]}")
            if trace and result["metrics"].get(
                    "trace.replica_exact", {}).get("value") != 1:
                problems.append(f"{where}: replica not exact: {notes}")
            print(f"{where}: {len(got)} metrics, attempted "
                  f"{result['attempted']}, failed {result['failed']}")
    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

For every workload:

* two traced runs with the default seed report identical work counts (every
  per-layer metric that is not a time), and both pass every check;
* a run with the next seed passes every check.

It also checks that BENCHMARK.json matches the tables in run.py.  Exits 1
on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    seed, other_seed = run.DEFAULT_SEED, run.DEFAULT_SEED + 1
    failures = []

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        committed = json.load(fh)
    if committed != run.spec():
        failures.append("BENCHMARK.json differs from run.py's tables (run.py --write-spec)")

    for workload in workloads.WORKLOADS:
        first, second = (bench(workload, seed, 1) for _ in range(2))
        other = bench(workload, other_seed, 0)
        for label, result in (("traced run 1", first), ("traced run 2", second), (f"seed {other_seed}", other)):
            if not result["correct"]:
                failures.append(f"{workload} {label}: correct=false, {result['failed']} of {result['attempted']} failed")
        counts = [name for name, _, _ in run.PER_LAYER if not run.is_timing(name)]
        differ = [n for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        if differ:
            failures.append(f"{workload}: counts differ between traced runs: {', '.join(differ)}")
        print(f"{workload}: {'ok' if not differ else 'COUNTS DIFFER'} ({len(counts)} counts compared)")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

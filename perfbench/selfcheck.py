#!/usr/bin/env python3
"""Check that the benchmark repeats itself exactly.

    python3 perfbench/selfcheck.py [--seed 7] [--seconds 4] [workload ...]

Runs the traced benchmark twice per workload with the same seed, one run
after the other, and compares every count metric (calls, iterations,
backups, inner iterations; all per round) and the set of failing jobs.
Exits 0 when both runs agree on every workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("p-above", "sparse-d-zero", "small-many")


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, set]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
    record = json.loads((ROOT / ".perfbench_out" /
                         f"record-{workload}-seed{seed}-trace1.json").read_text())
    failing = {(f["case"], f["job"]) for f in record["failures"]}
    return counts, failing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args(argv)
    ok = True
    for workload in args.workloads:
        first, fail1 = traced_run(workload, args.seed, args.seconds)
        second, fail2 = traced_run(workload, args.seed, args.seconds)
        diff = sorted(k for k in first.keys() | second.keys()
                      if first.get(k) != second.get(k))
        for k in diff:
            print(f"{workload}: {k} differs: {first.get(k)} vs {second.get(k)}")
        if fail1 != fail2:
            print(f"{workload}: failing jobs differ: {sorted(fail1 ^ fail2)}")
        same = not diff and fail1 == fail2
        ok = ok and same
        print(f"{workload}: {len(first)} counts, {len(fail1)} failing jobs, "
              f"{'identical' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

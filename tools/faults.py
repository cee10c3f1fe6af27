#!/usr/bin/env python3
"""Minor page faults per benchmark job, counted inside perfbench's own rounds.

    python3 tools/faults.py --workload sparse-d-zero             # seed 1, 30 rounds
    python3 tools/faults.py --workload p-above --seed 2 --rounds 20
    python3 tools/faults.py --workload sparse-d-zero --against HEAD~1

Run from the root of a source checkout: the library is imported from
`src/` of that checkout, and the benchmark from `perfbench/`.  A job's
time includes what the allocator costs it.  glibc returns the top of the
heap to the system once enough of it is free and takes a minor page
fault for every page when the heap grows again, so how often a job
faults depends on what the jobs before it left alive: a change that
allocates differently elsewhere can move one job's time without
touching its code.  This tool runs whole rounds through perfbench's own
`Calibration` and `Runner`, with only `jobs.run_job` wrapped to read
`ru_minflt` just before and just after each job, so the jobs run and
allocate in the benchmark's order.  Per job kind it prints the number
of jobs, the share of the jobs after the first round (which warms the
heap) that took no fault, and the faults in all and per job.  Counts do
not repeat exactly: the calibration's SIGALRM sampler allocates at
wall-clock times, so a share can move by several points between two runs
of one tree.  Repeat a run before reading a gap.

`--against REF` extracts commit REF as `tools/digest.py --against`
does and runs this script there, then replaces that tree with a copy of
the working tree's files and runs it again, each in its own process with
the same options, and prints both tables.  Both runs use the same
directory: the length of the checkout's path alone moves the counts,
through the paths the jobs build and the modules' file names.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run as bench  # noqa: E402  (perfbench/run.py)

bench.pin_blas()  # before numpy loads, as the benchmark does

import numpy as np  # noqa: E402

import jobs  # noqa: E402


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(workload: str, seed: int, rounds: int) -> dict[str, list[tuple[int, int]]]:
    """(round, faults) of every job, by job kind, over ``rounds`` rounds."""
    cases = jobs.workload_cases(workload, seed)
    faults: dict[str, list[tuple[int, int]]] = defaultdict(list)
    run_job = jobs.run_job

    def counted(kind, *args, **kwargs):
        before = minflt()
        try:
            return run_job(kind, *args, **kwargs)
        finally:
            taken = minflt() - before
            faults[kind].append((runner.rounds, taken))

    bench.OUT.mkdir(exist_ok=True)
    workdir = bench.OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    jobs.run_job = counted
    try:
        for case in cases:
            if "cli" in case.jobs:
                jobs.write_model_file(case, str(workdir))
        runner = bench.Runner(jobs, jobs.totaldp, cases, str(workdir), bench.Calibration(np))
        for _ in range(rounds):
            runner.round()
    finally:
        jobs.run_job = run_job
        shutil.rmtree(workdir, ignore_errors=True)
    return faults


def table(faults: dict[str, list[tuple[int, int]]]) -> list[str]:
    lines = [f"{'job':<12} {'jobs':>5} {'fault-free':>10} {'faults':>8} {'per job':>8}"]
    for kind, counts in faults.items():
        later = [n for r, n in counts if r > 1]
        free = f"{100 * later.count(0) / len(later):.0f}%" if later else "-"
        total = sum(n for _, n in counts)
        lines.append(f"{kind:<12} {len(counts):>5} {free:>10} {total:>8} "
                     f"{total / len(counts):>8.1f}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--against", metavar="REF",
                    help="also count at commit REF, each tree in its own process")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if args.against is None:
        print(f"{args.workload} seed={args.seed} rounds={args.rounds}")
        print("\n".join(table(measure(args.workload, args.seed, args.rounds))))
        return 0
    # Imported here only: a measuring process loads what the benchmark loads.
    from digest import checkout

    options = [f"--workload={args.workload}", f"--seed={args.seed}",
               f"--rounds={args.rounds}"]
    with checkout(args.against) as tree:
        for label in (args.against, "working tree"):
            if label == "working tree":
                copy_working_tree(tree)
            script = Path(tree, "tools", "faults.py")
            shutil.copyfile(__file__, script)
            print(f"== {label}", flush=True)
            subprocess.run([sys.executable, str(script), *options], cwd=tree, check=True)
    return 0


def copy_working_tree(tree: str) -> None:
    """Replace the contents of ``tree`` with the working tree's files:
    those git tracks and those it does not ignore."""
    for entry in os.scandir(tree):
        if entry.is_dir(follow_symlinks=False):
            shutil.rmtree(entry.path)
        else:
            os.remove(entry.path)
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, check=True,
                           stdout=subprocess.PIPE, text=True).stdout.split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():
            Path(tree, name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, Path(tree, name))


if __name__ == "__main__":
    sys.exit(main())

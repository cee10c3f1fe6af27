#!/usr/bin/env python3
"""totaldp benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload p-above --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/` of that checkout and nothing else.  The run generates its models
from the seed, computes an independent reference for each, then runs
rounds closed-loop until the next round would overrun `--seconds`: each
round sets every model up (timed as set-up) and runs every job of every
model once, one job at a time.  Every answer is checked against its
reference.  Times are scaled to the host's unloaded speed (Calibration)
and summarised per model, then over models (Runner.score).

`--trace 0` prints the end-to-end metrics.  `--trace 1` spends half the
time untraced and half with every layer's public functions wrapped, and
prints the per-layer metrics, normalised per round.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A run record (versions, sample counts, tail percentiles, failing jobs)
and, for traced runs, the spans go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_SOLVES = ("vi", "pi", "mpi", "mixed10")
# Functions that some workloads never call: their self time would read 0
# there, so only their counts are metrics (the record keeps the times).
COUNT_ONLY = ("stopping.lp_upper_bound", "solvers.lp_variant_vpi",
              "chains.occupation_measure")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("p-above", "sparse-d-zero", "small-many"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_blas() -> None:
    """One BLAS thread, whatever the caller exports, before numpy loads."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    import numpy as np
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(samples, p))
    return None


class Calibration:
    """Host speed, read from a fixed kernel timed around and during every job.

    The 2-core host this benchmark was written on runs the same code up
    to 2x slower when its neighbours are busy, in stretches from well
    under a second to 30 s; process CPU time slows the same way, so no
    clock avoids it.  The kernel below is in the library's own style (a
    Python loop over small numpy calls) and slows by the same factor,
    within about 10%.  It is timed just before and just after each job
    and, from a SIGALRM handler in the main thread, every PERIOD_S during
    it, so a job longer than that is scaled by the load it actually ran
    under.  Every job time is scaled by REFERENCE_S / (mean kernel time),
    so a metric reads as seconds on this host when it is unloaded.  The
    samples taken during a job (about 1.3% of its time) stay in its time.
    """

    # Best time of one kernel pass on that host (x86_64, 2 cores,
    # Python 3.11.7, numpy 2.4.6), measured unloaded.
    REFERENCE_S = 3.26e-4
    PERIOD_S = 0.025

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.rows = rng.random((30, 30))
        self.v = rng.random(30)
        self.np = np
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def kernel(self) -> float:
        acc, isinf = 0.0, self.np.isinf
        for _ in range(4):
            for row in self.rows:
                if not isinf(row).any():
                    acc = min(acc, float(row @ self.v))
        return acc

    def measure(self) -> float:
        """Best of two kernel passes."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t0)
        return best

    def begin(self) -> None:
        self.samples = [self.measure()]
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def end(self) -> float:
        """Stop sampling; the factor that scales the time since begin()."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(self.measure())
        return self.REFERENCE_S / statistics.fmean(self.samples)


class Runner:
    """Closed-loop rounds over one workload's cases.

    A round sets every model up afresh (build, validate, one warm-up
    backup) and then runs every job of every case once, one at a time.
    Times are kept per (case, job), raw and scaled to the host's unloaded
    speed (see Calibration).
    """

    def __init__(self, jobs_mod, totaldp, cases, workdir, calibration):
        self.jobs = jobs_mod
        self.totaldp = totaldp
        self.cases = cases
        self.workdir = workdir
        self.cal = calibration
        self.times: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.raw: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.iters: dict[str, int] = defaultdict(int)
        self.backups: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.rounds = 0
        self.failures: list[dict] = []
        self.fixed: set[tuple[str, str]] = set()
        self.tracer = None

    def setup(self) -> list:
        """Library-side set-up of every model, timed per model."""
        models, secs = [], []
        self.cal.begin()
        for case in self.cases:
            t0 = time.perf_counter()
            model = self.jobs.build_model(case)
            problems = self.totaldp.validate_model(model)
            self.totaldp.h_backup(model, case.J0)
            secs.append(time.perf_counter() - t0)
            if problems:
                raise RuntimeError(f"{case.name}: library rejects the model: {problems}")
            models.append(model)
        scale = self.cal.end()
        for case, t in zip(self.cases, secs):
            self.raw[(case.name, "setup")].append(t)
            self.times[(case.name, "setup")].append(t * scale)
        return models

    def round(self) -> float:
        """Set-up plus every job of every case once; returns the scaled job seconds."""
        spent = 0.0
        self.rounds += 1
        for case, model in zip(self.cases, self.setup()):
            mixed10 = None
            for kind in case.jobs:
                if self.tracer is not None:
                    self.tracer.job = self.attempted
                self.cal.begin()
                try:
                    out = self.jobs.run_job(kind, case, model, self.workdir, mixed10)
                finally:
                    scale = self.cal.end()
                self.attempted += 1
                if kind == "mixed10":
                    mixed10 = out
                if out.seconds is not None:
                    self.raw[(case.name, kind)].append(out.seconds)
                    self.times[(case.name, kind)].append(out.seconds * scale)
                    spent += out.seconds * scale
                if out.iters is not None:
                    self.iters[kind] += out.iters
                    self.backups[kind] += out.backups
                key = (case.name, kind)
                if out.error is None:
                    if key in self.jobs.KNOWN_DEFECTS:
                        self.fixed.add(key)
                    continue
                self.failures.append({
                    "case": case.name, "job": kind, "reason": out.error,
                    "known": self.jobs.known_defect(case.name, kind, out.error)})
        return spent

    def run_for(self, seconds: float) -> list[float]:
        """Whole rounds while the next one is expected to fit; at least one."""
        times = []
        t0 = time.perf_counter()
        while True:
            times.append(self.round())
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(times) > seconds:
                return times

    def per_case(self, kind: str, raw: bool = False) -> list[float]:
        """Each case's median over its repeats of one job."""
        times = self.raw if raw else self.times
        return [statistics.median(v) for (_, k), v in times.items() if k == kind and v]

    def score(self, kind: str) -> float | None:
        """Geometric mean over the cases of their median scaled times.

        The cases of a workload differ in size by up to 100x, so a plain
        median over them jumps from one case to another as the seed
        changes; the geometric mean weighs every case alike and moves
        smoothly.  None unless every case that runs the job has a time
        from every round: a score over the cases that happened not to
        raise would read as a speed-up.
        """
        names = [c.name for c in self.cases if kind == "setup" or kind in c.jobs]
        if not names or any(len(self.times[(n, kind)]) < self.rounds for n in names):
            return None
        vals = [statistics.median(self.times[(n, kind)]) for n in names]
        return math.exp(statistics.fmean(math.log(v) for v in vals))

    def samples(self, kind: str) -> list[float]:
        return [t for (_, k), v in self.times.items() if k == kind for t in v]


def end_to_end(runner) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and the names of scores that have no value."""
    metrics, missing = {}, []
    for name, kind in [("setup_s", "setup")] + \
            [(f"solve_s.{k}", k) for k in END_TO_END_SOLVES] + \
            [("certify_s", "certify"), ("cli_solve_s", "cli")]:
        value = runner.score(kind)
        if value is None:
            missing.append(name)
        else:
            metrics[name] = (value, "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, missing


def per_layer(jobs_mod, layers_mod, runner, tracer, rounds, overhead,
              rates) -> tuple[dict, dict]:
    """Per-round layer metrics, and the self times kept out of them."""
    metrics, record_only = {}, {}
    module_self = defaultdict(float)
    for name in layers_mod.qualified_names():
        metrics[f"{name}.calls"] = (tracer.calls[name] / rounds, "count")
        self_s = tracer.self_s[name] / rounds
        module_self[name.split(".")[0]] += self_s
        if name in COUNT_ONLY:
            record_only[f"{name}.self_s"] = self_s
        else:
            metrics[f"{name}.self_s"] = (self_s, "s")
    for module in layers_mod.LAYERS:
        metrics[f"{module}.self_s"] = (module_self[module], "s")
    for kind in jobs_mod.ALGORITHMS:
        metrics[f"solvers.{kind}.iters"] = (runner.iters[kind] / rounds, "count")
        metrics[f"solvers.{kind}.backups"] = (runner.backups[kind] / rounds, "count")
    for counter, _ in layers_mod.RESULT_COUNTS.values():
        metrics[counter] = (tracer.counts[counter] / rounds, "count")
    for kind, rate in rates.items():
        if kind in END_TO_END_SOLVES:
            metrics[f"solvers.{kind}.backups_per_s"] = (rate, "1/s")
        else:
            record_only[f"solvers.{kind}.backups_per_s"] = rate
    if runner.backups["vi"]:
        metrics["solvers.mixed10.backups_per_vi_backup"] = (
            runner.backups["mixed10"] / runner.backups["vi"], "ratio")
    metrics["operators.finite_input_frac"] = (
        tracer.finite_inputs / max(tracer.operator_calls, 1), "ratio")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, record_only


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas()
    if not (SRC / "totaldp" / "__init__.py").is_file():
        print(f"perfbench: no totaldp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import totaldp
    if Path(totaldp.__file__).resolve().parent != SRC / "totaldp":
        print(f"perfbench: imported totaldp from {totaldp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import jobs as jobs_mod
    import layers as layers_mod

    t0 = time.perf_counter()
    cases = jobs_mod.workload_cases(args.workload, args.seed)
    reference_s = time.perf_counter() - t0

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        for case in cases:
            if "cli" in case.jobs:
                jobs_mod.write_model_file(case, str(workdir))
        runner = Runner(jobs_mod, totaldp, cases, str(workdir), Calibration(np))
        record_only: dict = {}
        tracer = None
        missing: list[str] = []
        if args.trace == 0:
            round_times = runner.run_for(args.seconds)
            metrics, missing = end_to_end(runner)
        else:
            plain_times = runner.run_for(args.seconds / 2)
            plain_backups = dict(runner.backups)
            rates = {k: plain_backups[k] / sum(runner.per_case(k)) / len(plain_times)
                     for k in jobs_mod.ALGORITHMS
                     if plain_backups.get(k) and sum(runner.per_case(k)) > 0}
            runner.iters.clear()
            runner.backups.clear()
            tracer = layers_mod.Tracer()
            tracer.install()
            runner.tracer = tracer
            try:
                traced_times = runner.run_for(args.seconds / 2)
            finally:
                tracer.uninstall()
            round_times = plain_times + traced_times
            overhead = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
            metrics, record_only = per_layer(jobs_mod, layers_mod, runner, tracer,
                                             len(traced_times), overhead, rates)
            tracer.write_spans(OUT / f"spans-{tag}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = [f for f in runner.failures if f["known"] is None]
    tails = {}
    for kind in sorted({k for (_, k), v in runner.times.items() if v}):
        samples = runner.samples(kind)
        t = tail(samples)
        tails[kind] = {"n": len(samples), "median_s": statistics.median(samples),
                       **({f"p{t[0]}_s": t[1]} if t else {}),
                       "score_s": runner.score(kind),
                       "raw_case_median_s": statistics.median(runner.per_case(kind, raw=True))}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas_threads": 1, "rounds": len(round_times), "round_s": round_times,
        "cases": len(cases), "reference_s": reference_s,
        "samples": tails, "attempted": runner.attempted,
        "fail_frac": len(runner.failures) / runner.attempted,
        "failures": runner.failures, "known_defects_fixed": sorted(map(list, runner.fixed)),
        "missing_layers": tracer.missing if tracer else [],
        "missing_scores": missing,
        "record_only": record_only,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1))

    for kind, t in tails.items():
        extra = "".join(f" {k[:-2]}={v:.6g}s" for k, v in t.items() if k.startswith("p"))
        score = "none" if t["score_s"] is None else f"{t['score_s']:.6g}s"
        print(f"{kind}: median={t['median_s']:.6g}s{extra} samples={t['n']} "
              f"score={score} unscaled={t['raw_case_median_s']:.6g}s")
    seen = set()
    for f in runner.failures:
        key = (f["case"], f["job"])
        if key not in seen:
            seen.add(key)
            label = "known defect" if f["known"] else "FAILED"
            print(f"{label}: {f['case']} {f['job']}: {f['reason']}")
    for case, kind in sorted(runner.fixed):
        print(f"known defect now passes: {case} {kind}")
    print(f"fail_frac: {record['fail_frac']:.6g} ({len(runner.failures)}/{runner.attempted})")
    if missing:
        print(f"no score (a job raised in some round): {', '.join(missing)}")
    if tracer and tracer.missing:
        print(f"missing layers (reported as 0): {', '.join(tracer.missing)}")
    for k, (v, u) in metrics.items():
        print(f"{k}: {v:.6g} {u}")
    print(json.dumps({
        "correct": not unexpected and not missing, "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

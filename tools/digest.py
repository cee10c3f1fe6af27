#!/usr/bin/env python3
"""Digest of every answer the benchmark's jobs produce, for byte-identity checks.

    python3 tools/digest.py                                   # every workload, seeds 1 and 2026
    python3 tools/digest.py --workload sparse-d-zero --seed 1

Run from the root of a source checkout: the library is imported from
`src/` of that checkout, and the models from `perfbench/jobs.py`.  For
every job of every model of each workload and seed, one line gives the
sha256 of what the job returns, taken over J, Q, the policy, the
termination, op_count, the trace text (CSV and JSON, wall_time zeroed),
the certificate report and `model_hash`.  Policy iteration gets one line
per start, `certify` one for its report and both stopping routes, and
`cli` one for its output (the wall time and the temporary directory
dropped) and its trace file.
A last block gives one line per fixture: the sha256 of its model file
text and its `model_hash`.

Run it on two checkouts and diff the outputs: equal output means every
answer and every trace is the same, bit for bit.  Nothing is timed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import jobs  # noqa: E402

totaldp = jobs.totaldp
from totaldp.modelio import (  # noqa: E402
    model_hash,
    read_trace,
    render_model,
    trace_to_csv,
    trace_to_json,
)

SEEDS = (1, 2026)
WALL = re.compile(r"wall: [0-9.]+s")


class Digest:
    """sha256 over a sequence of labelled parts."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, label: str, value) -> None:
        if isinstance(value, np.ndarray):
            data = f"{value.dtype}{value.shape}".encode() + value.tobytes()
        else:
            data = repr(value).encode()
        self._h.update(label.encode() + b"\0" + data + b"\0")

    def hex(self) -> str:
        return self._h.hexdigest()[:16]


def timeless(trace):
    """The trace with every row's wall_time set to zero."""
    rows = [dataclasses.replace(row, wall_time=0.0) for row in trace.rows]
    return dataclasses.replace(trace, rows=rows)


def add_trace(d: Digest, trace) -> None:
    trace = timeless(trace)
    d.add("csv", trace_to_csv(trace))
    d.add("json", trace_to_json(trace))


def add_result(d: Digest, model, case, res) -> None:
    """J, Q, policy, termination, op_count, trace text and certificate
    report of one SolveResult."""
    for name in ("J", "Q"):
        v = getattr(res, name)
        d.add(name, None if v is None else np.asarray(v, dtype=float))
    d.add("policy", None if res.policy is None else res.policy.descriptor())
    d.add("termination", res.termination)
    d.add("divergent", sorted(res.divergent))
    d.add("op_count", res.trace.op_count)
    add_trace(d, res.trace)
    report = totaldp.verify_certificates(model, res.trace, (case.Jstar, case.Qstar))
    d.add("report", report.summary())


def solve_config(kind: str, case):
    """The algorithm and configuration of a solve job, as `jobs._solve` runs it."""
    extra = {"vi": {}, "mpi": dict(nk=10),
             "mixed10": dict(nk=10, bstrategy=totaldp.FullB()),
             "mixed_exact": dict(nk="exact", bstrategy=totaldp.FullB()),
             "mixed_occ": dict(nk=10, bstrategy=totaldp.OccupationSupportB()),
             "lp": dict(bstrategy=totaldp.FullB())}[kind]
    algorithm = kind if kind in ("vi", "mpi", "lp") else "mixed"
    if algorithm in ("mixed", "lp"):
        extra.update(J0=case.J0, Q0=case.Q0)
    return jobs._config(case, algorithm, **extra)


def run_solve(kind: str, case, model):
    cfg = solve_config(kind, case)
    if kind == "vi":
        return totaldp.value_iteration(model, case.J0, cfg)
    if kind == "mpi":
        mu0 = totaldp.Policy.deterministic(model, case.mu0)
        return totaldp.modified_policy_iteration(model, mu0, case.J0, cfg)
    solver = totaldp.lp_variant_vpi if kind == "lp" else totaldp.mixed_vpi
    return solver(model, cfg)


def certify(d: Digest, case, model, mixed10) -> None:
    """The certificate report and both stopping routes of `jobs._certify`."""
    theta = totaldp.Theta(mixed10.policy, frozenset(range(case.n)))
    report = totaldp.verify_certificates(model, mixed10.trace, (case.Jstar, case.Qstar))
    d.add("report", report.summary())
    prob = totaldp.build_stopping(model, theta, mixed10.J)
    sol = totaldp.solve_stopping(prob)
    d.add("V", sol.V)
    d.add("stopping_certificate", repr(sol.certificate))
    d.add("q_route", totaldp.reconstruct_q(prob, sol.V))
    Q, cert = totaldp.q_fixed_point(model, theta, mixed10.J)
    d.add("q_fixed", Q)
    d.add("fixed_certificate", repr(cert))


def cli(d: Digest, case, workdir: str) -> None:
    """`jobs._cli`'s command: its output without the wall time, and its
    trace file without wall_time."""
    jobs.write_model_file(case, workdir)
    trace_path = os.path.join(workdir, f"{case.name}.trace.csv")
    j0 = "cJstar:1.5" if case.start == "above" else "zero"
    args = ["solve", os.path.join(workdir, f"{case.name}.json"), "--algorithm", "vi",
            "--j0", j0, "--tol", repr(jobs.SOLVE_TOL), "--max-iter", str(case.max_iter),
            "--trace-out", trace_path]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            totaldp.cli.main.main(args=args, prog_name="totaldp", standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code
    d.add("exit", code)
    d.add("output", WALL.sub("wall: -", buf.getvalue().replace(workdir, "<dir>")))
    add_trace(d, read_trace(trace_path))


def case_lines(workload: str, seed: int, case, workdir: str):
    model = jobs.build_model(case)
    mh = model_hash(model)
    results = {}
    for kind in case.jobs:
        d = Digest()
        d.add("model_hash", mh)
        note = ""
        try:
            if kind == "pi":
                for k, choices in enumerate(case.pi_starts):
                    mu0 = totaldp.Policy.deterministic(model, choices)
                    res = totaldp.policy_iteration(model, mu0, jobs._config(case, "pi"))
                    add_result(d, model, case, res)
                    d.add("values", [v.tobytes() for v in res.values])
                note = f"starts={len(case.pi_starts)}"
            elif kind == "certify":
                if results.get("mixed10") is None:
                    note = "no mixed10 result"
                else:
                    certify(d, case, model, results["mixed10"])
            elif kind == "cli":
                cli(d, case, workdir)
            else:
                res = results[kind] = run_solve(kind, case, model)
                add_result(d, model, case, res)
                note = f"{res.termination} ops={res.trace.op_count} rows={len(res.trace.rows)}"
        except Exception as e:  # noqa: BLE001 - a raise is part of the answer
            if isinstance(e, totaldp.SolverCapError):
                d.add("cap_last", repr(e.last))
                add_trace(d, e.trace)
            d.add("raised", f"{type(e).__name__}: {e}")
            note = f"raised {type(e).__name__}"
        yield f"{workload} seed={seed} {case.name} {kind} {d.hex()} {note}".rstrip()


def fixture_lines():
    for name in totaldp.fixture_names():
        fx = totaldp.fixture(name)
        text = render_model(fx.model, (fx.Jstar, fx.Qstar))
        yield (f"fixture {name} {hashlib.sha256(text.encode()).hexdigest()[:16]} "
               f"model_hash={model_hash(fx.model)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=jobs.WORKLOADS, action="append",
                    help="repeatable; default every workload")
    ap.add_argument("--seed", type=int, action="append",
                    help=f"repeatable; default {', '.join(map(str, SEEDS))}")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="totaldp-digest-") as workdir:
        for workload in args.workload or jobs.WORKLOADS:
            for seed in args.seed or SEEDS:
                for case in jobs.workload_cases(workload, seed):
                    for line in case_lines(workload, seed, case, workdir):
                        print(line, flush=True)
    for line in fixture_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

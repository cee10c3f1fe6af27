#!/usr/bin/env python3
"""Digest of every answer the benchmark's jobs produce, for byte-identity checks.

    python3 tools/digest.py                                   # every workload, seeds 1 and 2026
    python3 tools/digest.py --workload sparse-d-zero --seed 1
    python3 tools/digest.py --seed 1 --against HEAD~1         # diff against a commit

Run from the root of a source checkout: the library is imported from
`src/` of that checkout, and the models from `perfbench/jobs.py`.  For
every job of every model of each workload and seed, two lines give
sha256 digests of what the job returns.  The `values` line is taken over
J, Q, the policy, the termination, op_count, the trace text (CSV and
JSON, wall_time zeroed), the certificate report and `model_hash`.
Policy iteration adds every start to its lines, `certify` its report
and what the public entries of the one stop-rule solve return there
(`solve_stopping`'s V and certificate, `reconstruct_q`'s Q, and
`q_fixed_point`'s Q and certificate), and `cli` its output (the wall
time and the temporary directory dropped) and its trace file.  The `shape` line is
taken over the same parts without the bits of their finite floats: row
count, termination, op count, each row's policy and B, the rules a
certificate priced and its divergent pairs, the names and outcomes of
the certificate checks, the exit code, and where each array holds +inf
or -inf.  So a change that only moves round-off changes `values` lines
and no `shape` line.  A last block gives one line per fixture: the
sha256 of its model file text and its `model_hash`.

Every solve job other than policy iteration runs through
`jobs._solve`, so the digest solves what the benchmark solves; its
timing is not read.  Equal output on two checkouts means every answer
and every trace is the same, bit for bit.  `--against REF` makes the
comparison: it extracts commit REF with `git archive` into a temporary
directory, runs this script there with the same `--workload` and
`--seed` options (so both sides print one format), and prints the lines
in which REF and the working tree differ.  It exits 1 on any difference
and 0 when every line is the same.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import difflib
import os
import re
import shutil
import subprocess
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


def _update(h, label: str, value) -> None:
    if isinstance(value, np.ndarray):
        data = f"{value.dtype}{value.shape}".encode() + value.tobytes()
    else:
        data = repr(value).encode()
    h.update(label.encode() + b"\0" + data + b"\0")


def infinities(value: np.ndarray) -> np.ndarray:
    """+1 where the array holds +inf, -1 where it holds -inf, else 0."""
    return np.isposinf(value).astype(np.int8) - np.isneginf(value)


class Digest:
    """Two sha256 digests over a sequence of labelled parts: `values`
    over every part, bit for bit, and `shape` over what a part shows
    without the bits of its finite floats."""

    def __init__(self):
        self._values = hashlib.sha256()
        self._shape = hashlib.sha256()

    def add(self, label: str, value, shape=None) -> None:
        """Add ``value`` to the values digest and ``shape`` to the shape
        digest; an array given without a shape adds its dtype, its shape
        and its infinities there."""
        _update(self._values, label, value)
        if shape is None and isinstance(value, np.ndarray):
            shape = (str(value.dtype), value.shape, infinities(value).tobytes())
        _update(self._shape, label, shape)

    def add_exact(self, label: str, value) -> None:
        """Add a part that holds no float to both digests."""
        self.add(label, value, value)

    def hex(self) -> tuple[str, str]:
        """The shape and the values digest."""
        return self._shape.hexdigest()[:16], self._values.hexdigest()[:16]


def timeless(trace):
    """The trace with every row's wall_time set to zero."""
    rows = [dataclasses.replace(row, wall_time=0.0) for row in trace.rows]
    return dataclasses.replace(trace, rows=rows)


def add_trace(d: Digest, trace) -> None:
    trace = timeless(trace)
    d.add("csv", trace_to_csv(trace), [(row.policy, row.b_set) for row in trace.rows])
    d.add("json", trace_to_json(trace))


def add_report(d: Digest, report) -> None:
    d.add("report", report.summary(), [(c.name, c.passed) for c in report.checks])


def add_certificate(d: Digest, label: str, cert) -> None:
    d.add(label, repr(cert), (cert.iterations, sorted(cert.divergent)))


def add_result(d: Digest, model, case, res) -> None:
    """J, Q, policy, termination, op_count, trace text and certificate
    report of one SolveResult."""
    for name in ("J", "Q"):
        v = getattr(res, name)
        d.add(name, None if v is None else np.asarray(v, dtype=float))
    d.add_exact("policy", None if res.policy is None else res.policy.descriptor())
    d.add_exact("termination", res.termination)
    d.add_exact("divergent", sorted(res.divergent))
    d.add_exact("op_count", res.trace.op_count)
    add_trace(d, res.trace)
    add_report(d, totaldp.verify_certificates(model, res.trace, (case.Jstar, case.Qstar)))


def certify(d: Digest, case, model, mixed10) -> None:
    """The certificate report, the stopping entries and `q_fixed_point`
    of `jobs._certify`."""
    theta = totaldp.Theta(mixed10.policy, frozenset(range(case.n)))
    add_report(d, totaldp.verify_certificates(model, mixed10.trace, (case.Jstar, case.Qstar)))
    prob = totaldp.build_stopping(model, theta, mixed10.J)
    sol = totaldp.solve_stopping(prob)
    d.add("V", sol.V)
    add_certificate(d, "stopping_certificate", sol.certificate)
    d.add("q_route", totaldp.reconstruct_q(prob, sol.V))
    Q, cert = totaldp.q_fixed_point(model, theta, mixed10.J)
    d.add("q_fixed", Q)
    add_certificate(d, "fixed_certificate", cert)


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
    d.add_exact("exit", code)
    d.add("output", WALL.sub("wall: -", buf.getvalue().replace(workdir, "<dir>")))
    add_trace(d, read_trace(trace_path))


def case_lines(workload: str, seed: int, case, workdir: str):
    model = jobs.build_model(case)
    mh = model_hash(model)
    results = {}
    for kind in case.jobs:
        d = Digest()
        d.add_exact("model_hash", mh)
        note = ""
        try:
            if kind == "pi":
                for k, choices in enumerate(case.pi_starts):
                    mu0 = totaldp.Policy.deterministic(model, choices)
                    res = totaldp.policy_iteration(model, mu0, jobs._config(case, "pi"))
                    add_result(d, model, case, res)
                    d.add("values", [v.tobytes() for v in res.values],
                          [infinities(v).tobytes() for v in res.values])
                note = f"starts={len(case.pi_starts)}"
            elif kind == "certify":
                if results.get("mixed10") is None:
                    note = "no mixed10 result"
                else:
                    certify(d, case, model, results["mixed10"])
            elif kind == "cli":
                cli(d, case, workdir)
            else:
                out = jobs._solve(kind, case, model)
                if out.result is None:  # a mixed run that did not converge
                    raise RuntimeError(out.error)
                res = results[kind] = out.result
                add_result(d, model, case, res)
                note = f"{res.termination} ops={res.trace.op_count} rows={len(res.trace.rows)}"
        except Exception as e:  # noqa: BLE001 - a raise is part of the answer
            if isinstance(e, totaldp.SolverCapError):
                d.add("cap_last", repr(e.last))
                add_trace(d, e.trace)
            d.add("raised", f"{type(e).__name__}: {e}", type(e).__name__)
            note = f"raised {type(e).__name__}"
        shape, values = d.hex()
        job = f"{workload} seed={seed} {case.name} {kind}"
        yield f"{job} shape {shape} {note}".rstrip()
        yield f"{job} values {values}"


def fixture_lines():
    for name in totaldp.fixture_names():
        fx = totaldp.fixture(name)
        text = render_model(fx.model, (fx.Jstar, fx.Qstar))
        yield (f"fixture {name} {hashlib.sha256(text.encode()).hexdigest()[:16]} "
               f"model_hash={model_hash(fx.model)}")


def digest_lines(workloads, seeds):
    with tempfile.TemporaryDirectory(prefix="totaldp-digest-") as workdir:
        for workload in workloads:
            for seed in seeds:
                for case in jobs.workload_cases(workload, seed):
                    yield from case_lines(workload, seed, case, workdir)
    yield from fixture_lines()


@contextlib.contextmanager
def checkout(ref: str):
    """The tree of commit ``ref``, extracted by `git archive` into a
    temporary directory that is removed on exit."""
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    with tempfile.TemporaryDirectory(prefix="totaldp-ref-") as tree:
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        yield tree


def ref_lines(ref: str, options: list[str]) -> list[str]:
    """The digest of commit ``ref``: this script run in its tree."""
    with checkout(ref) as tree:
        script = Path(tree, "tools", "digest.py")
        script.parent.mkdir(exist_ok=True)
        shutil.copyfile(__file__, script)
        out = subprocess.run([sys.executable, str(script), *options],
                             cwd=tree, check=True, stdout=subprocess.PIPE, text=True)
    return out.stdout.splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=jobs.WORKLOADS, action="append",
                    help="repeatable; default every workload")
    ap.add_argument("--seed", type=int, action="append",
                    help=f"repeatable; default {', '.join(map(str, SEEDS))}")
    ap.add_argument("--against", metavar="REF",
                    help="print only the lines that differ from commit REF's digest")
    args = ap.parse_args(argv)
    lines = digest_lines(args.workload or jobs.WORKLOADS, args.seed or SEEDS)
    if args.against is None:
        for line in lines:
            print(line, flush=True)
        return 0
    lines = list(lines)
    options = [f"--workload={w}" for w in args.workload or ()]
    options += [f"--seed={seed}" for seed in args.seed or ()]
    before = ref_lines(args.against, options)
    diff = list(difflib.unified_diff(before, lines, args.against, "working tree",
                                     n=0, lineterm=""))
    for line in diff:
        print(line)
    if diff:
        gone, new = (sum(line[0] == sign for line in diff[2:]) for sign in "-+")
        print(f"digest: {gone} of {len(before)} lines at {args.against} and "
              f"{new} of {len(lines)} in the working tree differ")
        return 1
    print(f"digest: the same {len(lines)} lines at {args.against} and in the working tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())

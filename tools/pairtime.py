#!/usr/bin/env python3
"""Paired timing of one benchmark job against another commit, in one process.

    python3 tools/pairtime.py --against HEAD~1 --workload p-above --job vi
    python3 tools/pairtime.py --against HEAD~1 --workload small-many --job mixed10 --pairs 200
    python3 tools/pairtime.py --against HEAD~1 --workload p-above --job certify
    python3 tools/pairtime.py --against HEAD~1 --workload sparse-d-zero --job cli
    python3 tools/pairtime.py --against HEAD~1 --workload p-above --job io

Run from the root of a source checkout.  The script extracts commit REF
with `digest.checkout`, imports that tree's `src/totaldp` under the
package name `totaldp_ref` (every import inside the package is
relative, so the two copies share nothing), and builds every model of
the workload that runs the job with both packages, from the same
perfbench case arrays.  Each pair solves every such model once with
each package, in ABBA order (REF first in even pairs, the working tree
first in odd ones), and takes the geometric mean over the models of
the time ratio working tree / REF.  It prints the median of those
ratios with its quartiles, each side's median time for one pass over
the models, and whether every result and trace of the working tree
equals REF's bit for bit: J and Q, the divergent states (value
iteration), the trace's op count and row count, and each row's
residual, policy, ``b_set`` and ``upper_margin``, and the entries of
its ``extra`` that `ROW_EXTRA` names: the backup count, Q residual and
iterate snapshots of mixed rows (``powers``, ``residual_Q``,
``J_snapshot``, ``Q_snapshot``), the two inequality margins and the
cone margin of lp rows (``ineq_lower_margin``, ``ineq_upper_margin``,
``cone_margin``), the divergent states and direction of
value-iteration rows (``divergent``, ``direction``), the improvement
gap of policy-iteration rows (``improvement_gap``) and the evaluation
and greedy iterates of optimistic policy-iteration rows (``J_eval``,
``J_greedy``), lists compared entry by entry, floats bit for bit.  So a
paired value-iteration run checks the window rule's decisions as well
as its residuals, and a paired mixed, lp, pi or mpi run every iterate
and margin it records.
The ``pi`` job solves policy iteration from every start of the model, as
`jobs._pi` does, and compares each start's result so.  The ``cli`` job
runs `jobs._cli`'s command (``totaldp solve FILE --algorithm vi ...
--trace-out ...``) through each side's own CLI on one model file, and
compares the printed output (the final J included; the wall time and
the trace file's path left out) and the trace file (its ``wall_time``
column zeroed) bit for bit.  The ``certify`` job times the work of
`jobs._certify` on each side's own mixed10 result (models whose mixed10
solve does not converge are left out, as the benchmark leaves them):
the certificate report, the stopping route (`build_stopping`,
`solve_stopping`, `reconstruct_q`) and `q_fixed_point`.  It compares the report's checks, both Q-vectors
and both certificates bit for bit.  The ``io`` job times the file layer
of the ``cli`` job part by part, on each model file of the workload:
`parse_model` of the file's text, `model_hash` of the model read, and
`trace_to_csv` of that model's value-iteration trace (its ``wall_time``
column zeroed).  It prints one ratio per part, and compares what each
part returns bytewise: the model read (its pair arrays, names and
rendered text, with the declared optimum), the hash and the CSV text.
It exits 1 on any difference.

Back-to-back processes on a loaded host can differ by tens of percent
in one solve's time; pairs interleaved in one process see the same
load, so their ratio is what a small change is read from.  Times are
plain `perf_counter` seconds, not perfbench's calibrated scores, and
nothing here is a gate.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import digest  # noqa: E402  (puts src/ and perfbench/ on the path)
import jobs  # noqa: E402
import numpy as np  # noqa: E402
import totaldp  # noqa: E402

JOBS = ("vi", "pi", "mpi", "mixed10", "mixed_exact", "mixed_occ", "lp", "certify", "cli",
        "io")
# The parts of the io job, each timed and compared on its own.
IO_PARTS = ("parse_model", "model_hash", "trace_to_csv")


def import_tree(tree: str, name: str = "totaldp_ref"):
    """The package at ``tree``/src/totaldp, imported as ``name``."""
    pkg_dir = Path(tree, "src", "totaldp")
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def build_model(pkg, case):
    """`jobs.build_model` with the classes of ``pkg``."""
    controls = tuple(
        tuple(pkg.AtomicControl(f"u{i}", float(case.g[s + i]), case.P[s + i])
              for i in range(c))
        for s, c in zip(case.starts, case.counts))
    families = tuple((pkg.AffineFamily(**case.families[x]),) if x in case.families else ()
                     for x in range(case.n))
    return pkg.TotalCostModel(
        regime=case.regime, discount=case.alpha, controls=controls, families=families,
        cost_bound=float(np.abs(case.g).max()) if case.regime == "D" else None)


def solver(pkg, kind: str, case, model, workdir: str | None = None):
    """A zero-argument call that runs job ``kind`` as `jobs.run_job` does
    (`certifier` for ``certify``, `cli_call` for ``cli``, which runs in
    ``workdir``)."""
    if kind == "certify":
        return certifier(pkg, case, model)
    if kind == "cli":
        return cli_call(pkg, case, workdir)
    config = dict(tol=jobs.SOLVE_TOL, max_iter=case.max_iter)
    if kind == "vi":
        cfg = pkg.SolverConfig(algorithm="vi", **config)
        return lambda: pkg.value_iteration(model, case.J0, cfg)
    if kind == "pi":
        cfg = pkg.SolverConfig(algorithm="pi", **config)
        starts = [pkg.Policy.deterministic(model, choices) for choices in case.pi_starts]
        return lambda: [timed(lambda: pkg.policy_iteration(model, mu0, cfg),
                              pkg.SolverCapError)[1] for mu0 in starts]
    if kind == "mpi":
        mu0 = pkg.Policy.deterministic(model, case.mu0)
        cfg = pkg.SolverConfig(algorithm="mpi", nk=10, **config)
        return lambda: pkg.modified_policy_iteration(model, mu0, case.J0, cfg)
    extra = {"mixed10": dict(nk=10, bstrategy=pkg.FullB()),
             "mixed_exact": dict(nk="exact", bstrategy=pkg.FullB()),
             "mixed_occ": dict(nk=10, bstrategy=pkg.OccupationSupportB()),
             "lp": dict(bstrategy=pkg.FullB())}[kind]
    algorithm = "lp" if kind == "lp" else "mixed"
    cfg = pkg.SolverConfig(algorithm=algorithm, J0=case.J0, Q0=case.Q0, **config, **extra)
    run = pkg.lp_variant_vpi if kind == "lp" else pkg.mixed_vpi
    return lambda: run(model, cfg)


def certifier(pkg, case, model):
    """A zero-argument call that runs `jobs._certify`'s work on this
    side's mixed10 result, or None when that solve does not converge."""
    try:
        out = solver(pkg, "mixed10", case, model)()
    except pkg.SolverCapError:
        return None
    if not out.converged:
        return None
    theta = pkg.Theta(out.policy, frozenset(range(case.n)))

    def work():
        report = pkg.verify_certificates(model, out.trace, (case.Jstar, case.Qstar))
        prob = pkg.build_stopping(model, theta, out.J)
        sol = pkg.solve_stopping(prob)
        return (report, pkg.reconstruct_q(prob, sol.V), sol.certificate,
                *pkg.q_fixed_point(model, theta, out.J))

    return work


def cli_call(pkg, case, workdir: str):
    """A zero-argument call that runs `jobs._cli`'s command through the
    CLI of ``pkg`` on the model file in ``workdir``, and returns what it
    printed and the path of the trace file it wrote (one per side)."""
    main = importlib.import_module(f"{pkg.__name__}.cli").main
    trace_path = os.path.join(workdir, f"{case.name}.{pkg.__name__}.trace.csv")
    j0 = "cJstar:1.5" if case.start == "above" else "zero"
    args = ["solve", os.path.join(workdir, f"{case.name}.json"), "--algorithm", "vi",
            "--j0", j0, "--tol", repr(jobs.SOLVE_TOL), "--max-iter", str(case.max_iter),
            "--trace-out", trace_path]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                main.main(args=args, prog_name="totaldp", standalone_mode=False)
            except SystemExit:
                pass
        return buf.getvalue(), trace_path

    return run


def io_calls(pkg, case, workdir: str) -> tuple:
    """Zero-argument calls of the file layer of ``pkg``, one per part of
    `IO_PARTS`, on the case's model file in ``workdir``: `parse_model`
    of its text, `model_hash` of the model read from it, and
    `trace_to_csv` of that model's value-iteration trace from the case's
    start, its ``wall_time`` column zeroed."""
    modelio = importlib.import_module(f"{pkg.__name__}.modelio")
    with open(os.path.join(workdir, f"{case.name}.json")) as fh:
        text = fh.read()
    model, _ = modelio.parse_model(text)
    cfg = pkg.SolverConfig(algorithm="vi", tol=jobs.SOLVE_TOL, max_iter=case.max_iter)
    trace = timed(lambda: pkg.value_iteration(model, case.J0, cfg),
                  pkg.SolverCapError)[1].trace
    trace = dataclasses.replace(
        trace, rows=[dataclasses.replace(row, wall_time=0.0) for row in trace.rows])
    return (lambda: (modelio.parse_model(text), modelio.render_model),
            lambda: modelio.model_hash(model),
            lambda: modelio.trace_to_csv(trace))


def parsed_bytes(out) -> bytes:
    """What `parse_model` returned, as bytes: the model's pair arrays,
    names and rendered text with the declared optimum."""
    (model, gt), render = out
    parts = [model.pair_counts().tobytes(), model.pair_costs.tobytes(),
             model.pair_probs.tobytes(), repr((model.control_names, model.state_names))]
    try:
        parts.append(render(model, gt))
    except ValueError as err:  # a probability the writer refuses
        parts.append(repr(err))
    return b"\0".join(p if isinstance(p, bytes) else p.encode() for p in parts)


def io_differences(part: str):
    """What differs bytewise between two results of one io part."""
    def compare(a, b) -> list[str]:
        if part == "parse_model":
            a, b = parsed_bytes(a), parsed_bytes(b)
        return [] if a == b else [part]
    return compare


def timed(call, cap_error):
    """Seconds of one call and its result (a capped run's result too)."""
    t0 = time.perf_counter()
    try:
        out = call()
    except cap_error as e:
        out = e.result
    return time.perf_counter() - t0, out


def same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_value(a, b) -> bool:
    """Floats and arrays bit for bit (`same_bits`), lists entry by entry,
    anything else by equality."""
    if isinstance(a, (float, np.ndarray)) or isinstance(b, (float, np.ndarray)):
        return same_bits(a, b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same_value, a, b))
    return a == b


# The row fields compared: attributes of every row, and the entries of a
# row's ``extra`` (those of mixed rows: backup count, Q residual and
# iterate snapshots; of lp rows: Q residual, inequality and cone margins;
# of value-iteration rows: divergent states and direction; of
# policy-iteration rows: the improvement gap; of optimistic
# policy-iteration rows: the evaluation and greedy iterates), each
# missing on both sides where a solver records none.
ROW_ATTRS = ("residual", "policy", "b_set", "upper_margin")
ROW_EXTRA = ("powers", "residual_Q", "J_snapshot", "Q_snapshot", "ineq_lower_margin",
             "ineq_upper_margin", "cone_margin", "divergent", "direction",
             "improvement_gap", "J_eval", "J_greedy")


def differences(a, b) -> list[str]:
    """What differs bit for bit between two solve results (or two lists
    of them, one per start): J, Q, the divergent states (value
    iteration), the trace's op count and row count, and the first row
    of which one of `ROW_ATTRS` or `ROW_EXTRA` differs."""
    if isinstance(a, list):
        return [f"start {k} {diff}" for k, (x, y) in enumerate(zip(a, b))
                for diff in differences(x, y)]
    out = [name for name, x, y in (("J", a.J, b.J), ("Q", a.Q, b.Q)) if not same_bits(x, y)]
    if a.divergent != b.divergent:
        out.append(f"divergent {sorted(b.divergent)} vs {sorted(a.divergent)}")
    if a.trace.op_count != b.trace.op_count:
        out.append(f"op_count {b.trace.op_count} vs {a.trace.op_count}")
    if len(a.trace.rows) != len(b.trace.rows):
        out.append(f"{len(b.trace.rows)} rows vs {len(a.trace.rows)}")
    for ra, rb in zip(a.trace.rows, b.trace.rows):
        fields = [f for f in ROW_ATTRS if not same_value(getattr(ra, f), getattr(rb, f))]
        fields += [f for f in ROW_EXTRA if not same_value(ra.extra.get(f), rb.extra.get(f))]
        if fields:
            out.append(f"row {ra.k} {', '.join(fields)}")
            break
    return out


def certify_differences(a, b) -> list[str]:
    """What differs bit for bit between two certify results: the
    report (each check's name, outcome, margin and detail), either
    Q-vector, or either certificate, the last three by their reprs."""
    names = ("report", "stopping Q", "stopping certificate", "fixed Q", "fixed certificate")
    return [name for name, x, y in zip(names, a, b)
            if not (same_bits(x, y) if isinstance(x, np.ndarray) else repr(x) == repr(y))]


def cli_differences(a, b) -> list[str]:
    """What differs between two CLI runs: the printed output, without
    the wall time and the trace file's path, and the trace file, its
    ``wall_time`` column zeroed (`digest.timeless`)."""
    (text_a, path_a), (text_b, path_b) = a, b
    out = []
    if digest.WALL.sub("", text_a.replace(path_a, "")) != \
            digest.WALL.sub("", text_b.replace(path_b, "")):
        out.append("output")
    traces = [digest.trace_to_csv(digest.timeless(digest.read_trace(path)))
              for path in (path_a, path_b)]
    if traces[0] != traces[1]:
        out.append("trace file")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REF", required=True)
    ap.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    ap.add_argument("--job", choices=JOBS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=100)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    runs = "cli" if args.job == "io" else args.job  # io reads the cli job's model files
    cases = [c for c in jobs.workload_cases(args.workload, args.seed) if runs in c.jobs]
    if not cases:
        ap.error(f"no model of {args.workload} runs {runs}")
    with digest.checkout(args.against) as tree, tempfile.TemporaryDirectory() as workdir:
        ref = import_tree(tree)
        if args.job in ("cli", "io"):
            for case in cases:
                jobs.write_model_file(case, workdir)
        if args.job == "io":
            made = [[io_calls(pkg, case, workdir) for case in cases] for pkg in (ref, totaldp)]
            # (part, its calls per side, its comparison)
            groups = [(part, [[c[j] for c in side] for side in made], io_differences(part))
                      for j, part in enumerate(IO_PARTS)]
        else:
            calls = [[solver(pkg, args.job, case, build_model(pkg, case), workdir)
                      for case in cases] for pkg in (ref, totaldp)]
            kept = [i for i in range(len(cases)) if calls[0][i] and calls[1][i]]
            cases = [cases[i] for i in kept]
            if not cases:
                ap.error(f"no mixed10 solve of {args.workload} converges to certify")
            compare = {"certify": certify_differences, "cli": cli_differences}.get(
                args.job, differences)
            groups = [(args.job, [[c[i] for i in kept] for c in calls], compare)]
        caps = (ref.SolverCapError, totaldp.SolverCapError)
        differ = []
        for part, sides, compare in groups:
            first = [[timed(call, cap)[1] for call in side] for side, cap in zip(sides, caps)]
            differ += [f"{case.name} ({', '.join(diff)})"
                       for case, diff in zip(cases, map(compare, *first)) if diff]
        # per group: the pair ratios and each side's time per pass
        ratios = [[] for _ in groups]
        seconds = [([], []) for _ in groups]
        for k in range(args.pairs):
            for g, (_, sides, _) in enumerate(groups):
                t = [[0.0] * len(cases), [0.0] * len(cases)]
                for i in range(len(cases)):
                    for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                        t[side][i] = timed(sides[side][i], caps[side])[0]
                ratios[g].append(math.exp(statistics.fmean(
                    math.log(new / old) for old, new in zip(*t))))
                for side in (0, 1):
                    seconds[g][side].append(sum(t[side]))
    print(f"pairtime: {args.workload} seed {args.seed}, job {args.job}, {len(cases)} models, "
          f"{args.pairs} pairs in ABBA order")
    for (part, _, _), part_ratios, part_seconds in zip(groups, ratios, seconds):
        lo, mid, hi = statistics.quantiles(part_ratios, n=4, method="inclusive")
        if len(groups) > 1:
            print(f"  {part}:")
        for name, secs in ((args.against, part_seconds[0]), ("working tree", part_seconds[1])):
            print(f"  {name}: median {statistics.median(secs) * 1e3:.3f} ms per pass over "
                  "the models")
        print(f"  ratio working tree / {args.against} (geometric mean over models): "
              f"median {mid:.3f}, quartiles {lo:.3f}-{hi:.3f}")
    if differ:
        print(f"  result or trace differs bitwise on {len(differ)} of {len(cases)} models: "
              f"{'; '.join(differ)}")
        return 1
    same = {"certify": "report, Q and certificate",
            "cli": "printed output and trace file",
            "io": "model read, hash and trace CSV text"}.get(
        args.job, "J, Q, divergent states, op count, row count and row field "
                  f"({', '.join(ROW_ATTRS + ROW_EXTRA)})")
    print(f"  every {same} bitwise equal ({len(cases)} models)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

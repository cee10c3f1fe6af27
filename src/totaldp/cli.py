"""Command-line interface.

Commands: ``validate`` a model file, ``solve`` it with a configured
algorithm and write a convergence trace, ``reproduce`` a named scripted
scenario, ``compare`` algorithms side by side, and ``export-fixture`` a
named fixture as a model file.  Exit codes: 0 success, 2 usage or
parse errors, and 1 an invalid model (``validate``), a missed residual
tolerance (``solve``, whose certificate lines are only a report) or a
failed scenario (``reproduce``).  ``solve`` and
``compare`` stop on the residual tolerance ``--tol`` (default 1e-9); a
run that reaches ``--max-iter`` first reports termination "cap".  For
the same algorithm and settings, ``compare --trace-out`` writes the
trace file that ``solve --trace-out`` writes.
"""

from __future__ import annotations

import sys
import time

import click
import numpy as np

from .extreal import INF, sup_dist, xdiff, xmul
from .model import Policy, validate_model
from .operators import greedy_select, h_backup
from .solvers import (
    ALGORITHMS,
    CustomB,
    FullB,
    OccupationSupportB,
    SolverCapError,
    SolverConfig,
    check_admits,
    round_robin_masks,
    run,
    verify_certificates,
)
from .fixtures import fixture, fixture_names
from .scenarios import SCENARIOS, run_scenario
from .modelio import (
    ModelFileError,
    decode_xreal,
    model_hash,
    read_model,
    read_vector,
    write_model,
    write_trace,
)


@click.group()
def main():
    """Total-cost dynamic programming solvers."""


@main.command()
@click.argument("path", type=click.Path(exists=True))
@click.option("--lenient", is_flag=True, help="Warn on unknown fields instead of failing.")
def validate(path, lenient):
    """Parse and validate a model file."""
    try:
        model, gt = read_model(path, strict=not lenient)
    except ModelFileError as e:
        click.echo(f"parse error: {e}", err=True)
        sys.exit(2)
    problems = validate_model(model)
    if problems:
        for p in problems:
            click.echo(f"violation: {p}")
        sys.exit(1)
    click.echo(f"OK: {model.num_states} states, {model.num_pairs()} atomic pairs, "
               f"regime {model.regime}, hash {model_hash(model)}")
    if gt is not None:
        click.echo("ground truth block present")


def _vector_file(spec: str, length: int, what: str) -> np.ndarray:
    path = spec.split(":", 1)[1]
    try:
        vec = read_vector(path)
    except OSError as err:
        raise click.UsageError(f"cannot read {what} file {path!r}: {err.strerror}")
    except ModelFileError as err:
        raise click.UsageError(f"bad {what} file: {err}")
    if vec.shape != (length,):
        raise click.UsageError(f"{what} file {path!r} holds {vec.size} values, want {length}")
    return vec


def _parse_vector(spec: str, model, gt) -> np.ndarray:
    n = model.num_states
    if spec == "zero":
        return np.zeros(n)
    if spec == "inf":
        sign = -1.0 if model.regime == "N" else 1.0
        return np.full(n, sign * INF)
    if spec.startswith("cJstar:"):
        if gt is None:
            raise click.UsageError("cJstar start needs a ground_truth block in the model file")
        try:
            c = decode_xreal(spec.split(":", 1)[1], "cJstar multiplier")
        except ModelFileError as err:
            raise click.UsageError(str(err))
        return np.array([xmul(c, v) for v in gt[0]])
    if spec.startswith("file:"):
        return _vector_file(spec, n, "J0")
    raise click.UsageError(f"bad vector spec {spec!r} "
                           "(use zero | inf | cJstar:<c> | file:<path>)")


def _parse_q0(spec: str, model, J0: np.ndarray) -> np.ndarray:
    if spec == "hbackup":
        return h_backup(model, J0)
    if spec == "zero":
        return np.zeros(model.num_pairs())
    if spec == "inf":
        sign = -1.0 if model.regime == "N" else 1.0
        return np.full(model.num_pairs(), sign * INF)
    if spec.startswith("file:"):
        return _vector_file(spec, model.num_pairs(), "Q0")
    raise click.UsageError(f"bad Q spec {spec!r} (use hbackup | zero | inf | file:<path>)")


def _parse_bstrategy(spec: str):
    if spec == "full":
        return FullB()
    if spec == "empty":
        return CustomB((frozenset(),))
    name, *numbers = spec.split(":")
    if name == "occupation" and len(numbers) <= 2:
        try:
            return OccupationSupportB(*(decode_xreal(v, "B strategy parameter")
                                        for v in numbers))
        except (ModelFileError, ValueError) as err:
            raise click.UsageError(f"bad B strategy {spec!r}: {err}")
    raise click.UsageError(f"bad B strategy {spec!r} "
                           "(use full | empty | occupation[:beta[:threshold]])")


def _load_model(path, algorithms):
    """Read and validate a model file for the given algorithms; exit 2
    (parse error or invalid model) or raise a usage error otherwise."""
    try:
        model, gt = read_model(path)
    except ModelFileError as e:
        click.echo(f"parse error: {e}", err=True)
        sys.exit(2)
    problems = validate_model(model)
    if problems:
        for p in problems:
            click.echo(f"invalid model: {p}", err=True)
        sys.exit(2)
    for a in algorithms:
        if a not in ALGORITHMS:
            raise click.UsageError(f"unknown algorithm {a!r}")
        try:
            check_admits(a, model)
        except ValueError as err:
            raise click.UsageError(str(err))
    return model, gt


def _parse_nk(spec: str) -> int | str:
    if spec == "exact":
        return spec
    try:
        return int(spec)
    except ValueError:
        raise click.UsageError(f"bad --nk {spec!r} (use a positive integer or 'exact')")


def _parse_mu0(spec: str, model) -> Policy:
    if spec == "greedy":
        return greedy_select(model, model.pair_costs)
    try:
        choices = [int(v) for v in spec.split(",")]
    except ValueError:
        raise click.UsageError(f"bad policy spec {spec!r} "
                               "(use greedy | comma-separated control indices)")
    if len(choices) != model.num_states:
        raise click.UsageError(f"policy spec needs {model.num_states} indices")
    try:
        return Policy.deterministic(model, choices)
    except ValueError as err:
        raise click.UsageError(f"bad policy spec {spec!r}: {err}")


def _solver_config(algorithm: str, model, gt, J0: np.ndarray, q0: str, mu0: str,
                   **settings) -> SolverConfig:
    """The configuration of one run from the start J0: mixed and lp also
    start from the Q0 of spec ``q0``, pi and mpi from the policy of spec
    ``mu0``.  A setting the solver refuses is a usage error."""
    Q0 = _parse_q0(q0, model, J0) if algorithm in ("mixed", "lp") else None
    policy = _parse_mu0(mu0, model) if algorithm in ("pi", "mpi") else None
    try:
        return SolverConfig(algorithm=algorithm, J0=J0, Q0=Q0, initial_policy=policy,
                            ground_truth=gt, **settings)
    except ValueError as err:
        raise click.UsageError(str(err))


def _run(model, config: SolverConfig):
    """``run``, with a start that the solver refuses (one that breaks the
    regime, or an infeasible lp program) as a usage error, and a run that
    reaches the cap as its result, termination "cap"."""
    try:
        return run(model, config)
    except SolverCapError as err:
        return err.result
    except ValueError as err:
        raise click.UsageError(str(err))


def _write_traces(model, traces, fmt: str = "csv") -> None:
    """Write each (path, trace) with the model's hash in its header.  The
    model is rendered for its hash here only, once."""
    mh = model_hash(model)
    for path, trace in traces:
        trace.model_hash = mh
        write_trace(path, trace, fmt)


@main.command()
@click.argument("path", type=click.Path(exists=True))
@click.option("--algorithm", type=click.Choice(ALGORITHMS), default="mixed")
@click.option("--j0", default="zero", help="zero | inf | cJstar:<c> | file:<path>")
@click.option("--q0", default="hbackup", help="hbackup | zero | inf | file:<path>")
@click.option("--nk", default="10", help="operator powers per iteration, or 'exact'")
@click.option("--epsilon", type=float, default=0.0)
@click.option("--bstrategy", default="full",
              help="full | empty | occupation[:beta[:threshold]]")
@click.option("--mu0", default="greedy", help="initial policy for pi/mpi")
@click.option("--tol", type=float, default=1e-9)
@click.option("--max-iter", type=click.IntRange(min=1), default=10_000)
@click.option("--clamp-lo", type=float, default=None)
@click.option("--clamp-hi", type=float, default=None)
@click.option("--mask-schedule", type=click.Choice(["none", "roundrobin"]),
              default="none")
@click.option("--trace-out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def solve(path, algorithm, j0, q0, nk, epsilon, bstrategy, mu0, tol, max_iter,
          clamp_lo, clamp_hi, mask_schedule, trace_out, fmt):
    """Solve a model file and emit a convergence trace."""
    model, gt = _load_model(path, [algorithm])
    nk_val = _parse_nk(nk)
    J0 = _parse_vector(j0, model, gt)
    n = model.num_states
    config = _solver_config(
        algorithm, model, gt, J0, q0, mu0,
        nk=nk_val,
        epsilon=epsilon,
        bstrategy=_parse_bstrategy(bstrategy),
        clamp_lo=None if clamp_lo is None else np.full(n, clamp_lo),
        clamp_hi=None if clamp_hi is None else np.full(n, clamp_hi),
        masks=round_robin_masks(model) if mask_schedule == "roundrobin" else None,
        max_iter=max_iter,
        tol=tol,
    )
    t0 = time.perf_counter()
    res = _run(model, config)
    trace, J, Q = res.trace, res.J, res.Q
    click.echo(f"termination: {res.termination}")
    if trace_out:
        _write_traces(model, [(trace_out, trace)], fmt)
        click.echo(f"trace written to {trace_out} ({len(trace.rows)} rows)")
    click.echo(f"final J: {np.array2string(np.asarray(J), precision=10)}")
    if Q is not None:
        click.echo(f"final Q: {np.array2string(np.asarray(Q), precision=10)}")
    click.echo(f"iterations: {len(trace.rows)}, residual: {trace.final_residual:g}, "
               f"backups: {trace.op_count}, wall: {time.perf_counter() - t0:.3f}s")
    if gt is not None:
        gap = sup_dist(np.asarray(J), gt[0])
        click.echo(f"distance to declared optimum: {gap:g}")
        if gap > max(tol * 10, 1e-8):
            worst = int(np.argmax(np.abs(xdiff(np.asarray(J), gt[0]))))
            click.echo(f"note: final value differs from the declared optimum "
                       f"at state {model.state_names[worst]!r}")
    report = verify_certificates(model, trace, gt)
    if report.checks:
        click.echo(report.summary())
    if not res.converged:
        click.echo("did not reach the residual tolerance", err=True)
        sys.exit(1)
    sys.exit(0)


@main.command()
@click.argument("name")
def reproduce(name):
    """Run a scripted scenario (or 'all') and report pass/fail."""
    names = sorted(SCENARIOS) if name == "all" else [name]
    ok = True
    for n in names:
        try:
            rep = run_scenario(n)
        except KeyError as e:
            click.echo(str(e), err=True)
            sys.exit(2)
        click.echo(rep.render())
        ok = ok and rep.passed
    sys.exit(0 if ok else 1)


@main.command()
@click.argument("path", type=click.Path(exists=True))
@click.option("--algorithms", default="vi,mixed",
              help="comma-separated subset of vi,pi,mpi,mixed,lp")
@click.option("--j0", default="zero")
@click.option("--nk", default="10")
@click.option("--mu0", default="greedy", help="initial policy for pi/mpi")
@click.option("--tol", type=float, default=1e-9)
@click.option("--max-iter", type=click.IntRange(min=1), default=10_000)
@click.option("--trace-out", type=click.Path(), default=None,
              help="prefix; one trace file per algorithm")
def compare(path, algorithms, j0, nk, mu0, tol, max_iter, trace_out):
    """Run several algorithms from a shared start and tabulate."""
    algos = [a.strip() for a in algorithms.split(",") if a.strip()]
    if not algos:
        raise click.UsageError("--algorithms names no algorithm")
    for a in algos:
        if algos.count(a) > 1:
            raise click.UsageError(f"--algorithms lists {a!r} more than once")
    model, gt = _load_model(path, algos)
    J0 = _parse_vector(j0, model, gt)
    nk_val = _parse_nk(nk)
    configs = [_solver_config(a, model, gt, J0, "hbackup", mu0, nk=nk_val,
                              bstrategy=FullB(), max_iter=max_iter, tol=tol)
               for a in algos]
    rows, traces = [], []
    for a, config in zip(algos, configs):
        t0 = time.perf_counter()
        res = _run(model, config)
        wall = time.perf_counter() - t0
        trace = res.trace
        dist = "" if gt is None else f"{sup_dist(res.J, gt[0]):.2e}"
        rows.append((a, len(trace.rows), f"{trace.final_residual:.2e}",
                     trace.op_count, dist, res.termination, f"{wall:.3f}s"))
        traces.append(trace)
    # Only once every algorithm has run: a refused one writes no file at all.
    if trace_out:
        _write_traces(model, [(f"{trace_out}.{a}.csv", trace)
                              for a, trace in zip(algos, traces)])
    header = ("algorithm", "iters", "residual", "backups", "dist", "note", "wall")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for rec in [header] + rows:
        click.echo("  ".join(str(v).ljust(w) for v, w in zip(rec, widths)))
    sys.exit(0)


@main.command("export-fixture")
@click.argument("name")
@click.argument("out", type=click.Path())
def export_fixture(name, out):
    """Write a named fixture (with ground truth) as a model file."""
    try:
        fx = fixture(name)
    except KeyError as e:
        click.echo(str(e), err=True)
        click.echo(f"known fixtures: {', '.join(fixture_names())}")
        sys.exit(2)
    write_model(out, fx.model, (fx.Jstar, fx.Qstar))
    click.echo(f"wrote {out}")
    sys.exit(0)


if __name__ == "__main__":
    main()

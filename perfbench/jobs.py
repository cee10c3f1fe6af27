"""Workload generation, independent references and solver jobs.

Every model is generated here from the workload seed with numpy; the
library only receives the finished arrays.  Each model's expected answer
is computed without totaldp (exact policy iteration in numpy, checked by
a numpy Bellman residual; the paper's values for the fixtures; 1/p for
the slow-exit chain) before any timed work starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import totaldp
import totaldp.cli

INF = math.inf
ANSWER_TOL = 1e-6      # an answer further than this from the reference fails
DUAL_ROUTE_TOL = 1e-9  # stopping route vs fixed point, as in the README tour
SOLVE_TOL = 1e-9

WORKLOADS = ("p-above", "sparse-d-zero", "small-many")
ALGORITHMS = ("vi", "pi", "mpi", "mixed10", "mixed_exact", "mixed_occ", "lp")

# Jobs that return a wrong answer at the commit that introduced this
# benchmark, each with the exact failure reason it gives there and what
# causes it.  Such a job still runs, is checked, counts in `failed` and is
# listed in the output; it does not make the run incorrect as long as it
# fails with that reason.  Any other reason (a raise, the cap, another
# wrong value) is an unexpected failure.  A registered job that starts
# passing is reported as fixed.
KNOWN_DEFECTS = {
    ("slow-exit-p0.001", "vi"): (
        "J(1)=inf, reference 1000",
        "window divergence heuristic sends J(1)=1000 to +inf (ROADMAP item 1)"),
    ("slow-exit-p0.001", "mixed_exact"): (
        "J(1)=inf, reference 1000",
        "q_fixed_point promotes J(1) to +inf (ROADMAP item 1)"),
    ("slow-exit-p0.001", "certify"): (
        "J(1)=inf, reference 1000",
        "solve_stopping and q_fixed_point both push J(1) to +inf (ROADMAP item 1)"),
}


def known_defect(case: str, job: str, reason: str) -> str | None:
    """The cause of a known defect when the failure matches its signature."""
    signature, cause = KNOWN_DEFECTS.get((case, job), (None, None))
    return cause if reason == signature else None


# ---------------------------------------------------------------------------
# Model cases


@dataclass
class Case:
    """One model plus everything its jobs need, all built from arrays."""

    name: str
    regime: str
    alpha: float
    g: np.ndarray                  # pair costs, state-major
    P: np.ndarray                  # pair transition rows, (pairs, states)
    counts: np.ndarray             # controls per state
    Jstar: np.ndarray              # independent reference
    start: str                     # "above" (J0 = 1.5 J*) or "zero" (above J* in N)
    jobs: tuple[str, ...]
    max_iter: int = 1000
    random_starts: int = 0         # seeded random PI start policies, besides two fixed ones
    families: dict = field(default_factory=dict)  # state -> one AffineFamily's kwargs
    # filled in by prepare()
    J0: np.ndarray | None = None
    Q0: np.ndarray | None = None
    mu0: list[int] | None = None   # greedy for J0: the MPI start (T_mu0 J0 <= J0)
    pi_starts: list[list[int]] | None = None
    Qstar: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def starts(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.counts)[:-1]])

    def prepare(self, rng) -> None:
        self.J0 = 1.5 * self.Jstar if self.start == "above" else np.zeros(self.n)
        if self.families:
            return
        self.Q0 = pair_backup(self.g, self.P, self.alpha, self.J0)
        self.mu0 = [int(np.argmin(self.Q0[s:s + c]))
                    for s, c in zip(self.starts, self.counts)]
        self.Qstar = pair_backup(self.g, self.P, self.alpha, self.Jstar)
        # Policy iteration ends after 1-4 improvements on these models, so
        # one start per model makes its time jump with the seed.  It starts
        # from the cheapest control (the CLI default), then from the greedy
        # policy for J0 when that differs, then from seeded random policies.
        cheapest = [int(np.argmin(self.g[s:s + c]))
                    for s, c in zip(self.starts, self.counts)]
        self.pi_starts = [cheapest] + ([self.mu0] if self.mu0 != cheapest else [])
        self.pi_starts += [[int(rng.integers(c)) for c in self.counts]
                           for _ in range(self.random_starts)]


def pair_backup(g, P, alpha, J) -> np.ndarray:
    """g + alpha * P J for a finite J."""
    return g + alpha * (P @ J)


def build_model(case: Case) -> "totaldp.TotalCostModel":
    """Library model from the case arrays (timed as set-up)."""
    controls = []
    for x, (s, c) in enumerate(zip(case.starts, case.counts)):
        controls.append(tuple(
            totaldp.AtomicControl(f"u{i}", float(case.g[s + i]), case.P[s + i])
            for i in range(c)))
    families = [(totaldp.AffineFamily(**case.families[x]),)
                if x in case.families else () for x in range(case.n)]
    return totaldp.TotalCostModel(
        regime=case.regime, discount=case.alpha, controls=tuple(controls),
        families=tuple(families),
        cost_bound=float(np.abs(case.g).max()) if case.regime == "D" else None)


# ---------------------------------------------------------------------------
# Independent reference: exact policy iteration in numpy


def exact_pi(g, P, counts, alpha, absorbing=(0,)) -> np.ndarray:
    """Optimal costs of a model whose every policy is proper (or discounted).

    Policy evaluation is one dense linear solve; improvement keeps the
    current control unless another is better by more than 1e-12.
    """
    n = len(counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    mu = np.array([int(np.argmin(g[s:s + c])) for s, c in zip(starts, counts)])
    live = np.arange(n) if alpha < 1.0 else np.setdiff1d(np.arange(n), absorbing)
    for _ in range(1000):
        rows = starts + mu
        J = np.zeros(n)
        A = np.eye(len(live)) - alpha * P[np.ix_(rows[live], live)]
        J[live] = np.linalg.solve(A, g[rows[live]])
        Q = pair_backup(g, P, alpha, J)
        best = np.minimum.reduceat(Q, starts)
        new = mu.copy()
        for x, (s, c) in enumerate(zip(starts, counts)):
            if Q[s + mu[x]] > best[x] + 1e-12 * (1.0 + abs(best[x])):
                new[x] = int(np.argmin(Q[s:s + c]))
        if (new == mu).all():
            break
        mu = new
    else:
        raise RuntimeError("reference policy iteration did not terminate")
    residual = np.abs(np.minimum.reduceat(pair_backup(g, P, alpha, J), starts) - J).max()
    if residual > 1e-9 * (1.0 + np.abs(J).max()):
        raise RuntimeError(f"reference fails its Bellman check ({residual:g})")
    return J


# ---------------------------------------------------------------------------
# Generators


def dense_case(rng, name, regime, n, m, alpha=1.0, pull=0.3, **kw) -> Case:
    """Dense Dirichlet rows; undiscounted models pull a `pull` share of
    every row toward lower states and absorb at a free state 0."""
    lo, hi = (-2.0, 0.0) if regime == "N" else (0.0, 2.0)
    counts = [1] + [m] * (n - 1) if regime != "D" else [m] * n
    g, P = [], []
    for x in range(n):
        for _ in range(counts[x]):
            if regime != "D" and x == 0:
                row = np.zeros(n)
                row[0] = 1.0
                g.append(0.0)
                P.append(row)
                continue
            row = rng.dirichlet(np.ones(n))
            if regime != "D":
                toward = np.zeros(n)
                toward[:x] = 1.0 / x
                row = (1.0 - pull) * row + pull * toward
            P.append(row / row.sum())
            g.append(float(rng.uniform(lo, hi)))
    g, P, counts = np.array(g), np.array(P), np.array(counts)
    return Case(name, regime, alpha, g, P, counts,
                exact_pi(g, P, counts, alpha), **kw)


def sparse_d_case(rng, name, n, m, k, alpha, **kw) -> Case:
    """Discounted model whose rows each reach k random successors."""
    g = rng.uniform(0.0, 2.0, size=n * m)
    P = np.zeros((n * m, n))
    for r in range(n * m):
        P[r, rng.choice(n, size=k, replace=False)] = rng.dirichlet(np.ones(k))
    P /= P.sum(axis=1, keepdims=True)
    counts = np.full(n, m)
    return Case(name, "D", alpha, g, P, counts,
                exact_pi(g, P, counts, alpha), **kw)


def _chain(regime, alpha, g, rows, counts, Jstar, **kw) -> Case:
    return Case(kw.pop("name"), regime, alpha, np.array(g, dtype=float),
                np.array(rows, dtype=float), np.array(counts),
                np.array(Jstar, dtype=float), **kw)


def fixture_cases() -> list[Case]:
    """The paper's fixtures, with their verified optima written out, each
    started where the paper guarantees convergence (from above)."""
    atomic = ("vi", "pi", "mpi", "mixed10", "mixed_exact", "mixed_occ", "certify")
    out = [
        _chain("N", 1.0, [0, 0, -1], [[1, 0], [0, 1], [1, 0]], [1, 2], [0, -1],
               name="FX-N2", start="zero", jobs=atomic + ("cli",)),
        _chain("P", 1.0, [0, 0, 1], [[1, 0], [0, 1], [1, 0]], [1, 2], [0, 0],
               name="FX-P2", start="above", jobs=atomic + ("lp",)),
        _chain("P", 1.0, [0, 1, 1], [[1, 0, 0], [1, 0, 0], [0, 1, 0]], [1, 1, 1],
               [0, 1, 2], name="FX-P4", start="above", jobs=atomic + ("lp", "cli")),
    ]
    # FX-D: discounted three-state model; its optimum comes from the numpy
    # reference rather than from the library's value-iteration oracle.
    gD = [1.0, 2.0, 0.5, 1.5, 0.0, 1.0]
    PD = [[0.5, 0.5, 0.0], [0.0, 0.2, 0.8], [0.1, 0.6, 0.3], [1.0, 0.0, 0.0],
          [0.3, 0.3, 0.4], [0.0, 1.0, 0.0]]
    out.append(_chain("D", 0.9, gD, PD, [2, 2, 2],
                      exact_pi(np.array(gD), np.array(PD), np.array([2, 2, 2]), 0.9),
                      name="FX-D", start="above", jobs=atomic + ("cli",)))
    # Interval-control fixtures: value iteration is the only solver for
    # affine families; from above the optimum it converges (Cor. 5.1).
    p3a = dict(lo=0.0, hi=1.0, lo_closed=False, hi_closed=False, c0=0.0, c1=0.0,
               p0=np.array([1.0, 0.0, 0.0]), p1=np.array([-1.0, 1.0, 0.0]), name="mix")
    out.append(_chain("P", 1.0, [0, 1, 1], [[1, 0, 0], [0, 1, 0], [1, 0, 0]],
                      [1, 1, 1], [0, INF, 1], name="FX-P3a", start="above",
                      jobs=("vi", "cli"), families={2: p3a}))
    p3b = dict(lo=0.0, hi=1.0, lo_closed=False, hi_closed=False, c0=0.0, c1=1.0,
               p0=np.array([0.0, 1.0, 0.0]), p1=np.array([1.0, -1.0, 0.0]), name="leave")
    out.append(_chain("P", 1.0, [0, 1], [[1, 0, 0], [0, 1, 0]], [1, 0, 1],
                      [0, 0, 1], name="FX-P3b", start="above", jobs=("vi",),
                      families={1: p3b}))
    return out


def slow_exit_case(p: float) -> Case:
    """State 1 pays 1 per step and exits with probability p: J(1) = 1/p."""
    return _chain("P", 1.0, [0, 1], [[1, 0], [p, 1 - p]], [1, 1], [0, 1 / p],
                  name=f"slow-exit-p{p:g}", start="above",
                  jobs=ALGORITHMS + ("certify",), max_iter=50_000)


def workload_cases(workload: str, seed: int) -> list[Case]:
    """The workload's models; the seed draws the numbers, not the shapes,
    so that runs with different seeds do the same amount of work."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    every = ALGORITHMS + ("certify",)
    if workload == "p-above":
        cases = [dense_case(rng, f"dense-P-{i}", "P", 30, 3, start="above",
                            jobs=every + ("cli",), random_starts=14) for i in range(5)]
    elif workload == "sparse-d-zero":
        cases = [sparse_d_case(rng, f"sparse-D-{i}", 32, 3, 5, 0.95, start="zero",
                               jobs=("vi", "pi", "mpi", "mixed10", "certify", "cli"),
                               random_starts=30)
                 for i in range(3)]
    elif workload == "small-many":
        cases = []
        for regime in ("D", "N", "P"):
            for i, n in enumerate((4, 6, 8, 10, 12)):
                alpha = 0.5 + 0.1 * i if regime == "D" else 1.0
                jobs = tuple(a for a in every if a != "lp" or regime == "P")
                cases.append(dense_case(
                    rng, f"tiny-{regime}-{i}", regime, n, 2 + i % 2, alpha,
                    start="zero" if regime == "N" else "above",
                    jobs=jobs + (("cli",) if i % 2 else ()), random_starts=2))
        cases += fixture_cases()
        cases += [slow_exit_case(1e-2), slow_exit_case(1e-3)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for c in cases:
        c.prepare(rng)
    return cases


# ---------------------------------------------------------------------------
# Checking


def answer_error(J, Jstar, tol: float = ANSWER_TOL) -> str | None:
    """None when J matches the reference within tol, else a one-line reason.

    A NaN on either side always fails: it is the usual wrong result of
    extended-real arithmetic (inf - inf, 0 * inf)."""
    J, Jstar = np.asarray(J, dtype=float), np.asarray(Jstar, dtype=float)
    if J.shape != Jstar.shape:
        return f"shape {J.shape} != {Jstar.shape}"
    nan = np.isnan(J) | np.isnan(Jstar)
    if nan.any():
        x = int(np.flatnonzero(nan)[0])
        return f"J({x})={J[x]:g}, reference {Jstar[x]:g}"
    inf_ref, inf_got = np.isinf(Jstar), np.isinf(J)
    if (inf_ref != inf_got).any() or (J[inf_got] != Jstar[inf_got]).any():
        x = int(np.flatnonzero((inf_ref != inf_got) | (inf_got & (J != Jstar)))[0])
        return f"J({x})={J[x]:g}, reference {Jstar[x]:g}"
    if inf_ref.all():
        return None
    err = float(np.abs(J[~inf_ref] - Jstar[~inf_ref]).max())
    if not err <= tol:
        x = int(np.argmax(np.where(inf_ref, 0.0, np.abs(J - Jstar))))
        return f"J({x})={J[x]:.12g}, reference {Jstar[x]:.12g} (error {err:.3g})"
    return None


# ---------------------------------------------------------------------------
# Jobs


@dataclass
class Outcome:
    seconds: float | None      # None when the job raised before it finished
    error: str | None          # None when the answer was checked and right
    iters: float | None = None
    backups: float | None = None
    result: object = None


def _config(case: Case, algorithm: str, **kw):
    return totaldp.SolverConfig(algorithm=algorithm, tol=SOLVE_TOL,
                                max_iter=case.max_iter, **kw)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def run_job(kind: str, case: Case, model, workdir: str, mixed10=None) -> Outcome:
    """Run one job, time only the library call, then check the answer."""
    try:
        if kind == "certify":
            return _certify(case, model, mixed10)
        if kind == "cli":
            return _cli(case, workdir)
        return _solve(kind, case, model)
    except totaldp.SolverCapError as e:
        return Outcome(None, f"SolverCapError: {e}")
    except Exception as e:  # noqa: BLE001 - a raising job is a failed job
        return Outcome(None, f"{type(e).__name__}: {e}")


def _solve(kind: str, case: Case, model) -> Outcome:
    if kind == "vi":
        cfg = _config(case, "vi")
        secs, res = _timed(lambda: totaldp.value_iteration(model, case.J0, cfg))
        J = res.J
    elif kind == "pi":
        return _pi(case, model)
    elif kind == "mpi":
        mu0 = totaldp.Policy.deterministic(model, case.mu0)
        cfg = _config(case, "mpi", nk=10)
        secs, res = _timed(lambda: totaldp.modified_policy_iteration(
            model, mu0, case.J0, cfg))
        J = res.J
    else:
        extra = {"mixed10": dict(nk=10, bstrategy=totaldp.FullB()),
                 "mixed_exact": dict(nk="exact", bstrategy=totaldp.FullB()),
                 "mixed_occ": dict(nk=10, bstrategy=totaldp.OccupationSupportB()),
                 "lp": dict(bstrategy=totaldp.FullB())}[kind]
        cfg = _config(case, "lp" if kind == "lp" else "mixed",
                      J0=case.J0, Q0=case.Q0, **extra)
        solver = totaldp.lp_variant_vpi if kind == "lp" else totaldp.mixed_vpi
        secs, res = _timed(lambda: solver(model, cfg))
        J = res.J
        if not res.converged:
            return Outcome(secs, "not converged")
    return Outcome(secs, answer_error(J, case.Jstar), len(res.trace.rows),
                   res.trace.op_count, res)


def _pi(case: Case, model) -> Outcome:
    """Policy iteration from each start; seconds, iterations and backups
    are the mean per solve."""
    total, iters, backups = 0.0, 0, 0
    for k, choices in enumerate(case.pi_starts):
        mu0 = totaldp.Policy.deterministic(model, choices)
        cfg = _config(case, "pi")
        secs, res = _timed(lambda: totaldp.policy_iteration(model, mu0, cfg))
        total += secs
        iters += len(res.trace.rows)
        backups += res.trace.op_count
        if res.termination not in ("stuck", "optimal-certified"):
            return Outcome(secs, f"start {k}: policy iteration ended by {res.termination}")
        err = answer_error(res.values[-1], case.Jstar)
        if err is not None:
            return Outcome(secs, f"start {k}: {err}")
    solves = len(case.pi_starts)
    return Outcome(total / solves, None, iters / solves, backups / solves)


def _certify(case: Case, model, mixed10: Outcome | None) -> Outcome:
    """Certificate replay plus the README's dual stopping route, checked
    against each other and against the independent Q*."""
    if mixed10 is None or mixed10.result is None:
        return Outcome(None, "no mixed10 result to certify")
    out = mixed10.result
    theta = totaldp.Theta(out.policy, frozenset(range(case.n)))

    def work():
        report = totaldp.verify_certificates(model, out.trace, (case.Jstar, case.Qstar))
        prob = totaldp.build_stopping(model, theta, out.J)
        sol = totaldp.solve_stopping(prob)
        return report, totaldp.reconstruct_q(prob, sol.V), \
            totaldp.q_fixed_point(model, theta, out.J)[0]

    secs, (report, q_route, q_fixed) = _timed(work)
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        return Outcome(secs, f"certificate checks failed: {failed}")
    err = answer_error(q_route, np.asarray(q_fixed), DUAL_ROUTE_TOL)
    if err is not None:
        return Outcome(secs, f"dual route disagrees with the fixed point: {err}")
    return Outcome(secs, answer_error(q_fixed, case.Qstar))


def model_document(case: Case) -> dict:
    """The case as a model file (format_version 1, see the README)."""
    names = [str(x) for x in range(case.n)]
    controls = []
    for x, (s, c) in enumerate(zip(case.starts, case.counts)):
        entry = {"state": names[x], "atomic": [
            {"id": f"u{i}", "cost": float(case.g[s + i]),
             "transitions": [{"state": names[y], "prob": float(p)}
                             for y, p in enumerate(case.P[s + i]) if p != 0.0]}
            for i in range(c)]}
        if x in case.families:
            f = case.families[x]
            entry["affine_families"] = [{
                "id": f["name"], "lo": f["lo"], "hi": f["hi"],
                "lo_closed": f["lo_closed"], "hi_closed": f["hi_closed"],
                "cost": [f["c0"], f["c1"]],
                "transitions": [{"state": names[y], "p0": float(f["p0"][y]),
                                 "p1": float(f["p1"][y])}
                                for y in range(case.n)
                                if f["p0"][y] != 0.0 or f["p1"][y] != 0.0]}]
        controls.append(entry)
    return {"format_version": 1, "regime": case.regime, "discount": case.alpha,
            "states": names, "controls": controls,
            "ground_truth": {"Jstar": [v if math.isfinite(v) else
                                       ("inf" if v > 0 else "-inf")
                                       for v in case.Jstar.tolist()]}}


def write_model_file(case: Case, workdir: str) -> str:
    path = os.path.join(workdir, f"{case.name}.json")
    with open(path, "w") as fh:
        json.dump(model_document(case), fh)
    return path


def _cli(case: Case, workdir: str) -> Outcome:
    """`totaldp solve FILE --algorithm vi --trace-out ...`, in-process."""
    path = os.path.join(workdir, f"{case.name}.json")
    j0 = "cJstar:1.5" if case.start == "above" else "zero"
    args = ["solve", path, "--algorithm", "vi", "--j0", j0, "--tol", repr(SOLVE_TOL),
            "--max-iter", str(case.max_iter),
            "--trace-out", os.path.join(workdir, f"{case.name}.trace.csv")]
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            totaldp.cli.main.main(args=args, prog_name="totaldp", standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code
    secs = time.perf_counter() - t0
    if code not in (0, None):
        return Outcome(secs, f"cli exit code {code}: {buf.getvalue()[-200:]!r}")
    text = buf.getvalue()
    start = text.find("final J: [")
    if start < 0:
        return Outcome(secs, "cli printed no final J")
    # numpy wraps long vectors over several lines; the vector ends at "]".
    body = text[start + len("final J: ["):text.index("]", start)]
    J = np.array([float(v) for v in body.split()])
    return Outcome(secs, answer_error(J, case.Jstar))

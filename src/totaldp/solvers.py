"""End-to-end iterative solvers and their convergence traces.

Covers classical value iteration, exact and modified policy iteration,
near-optimal policy extraction, a certificate verifier that replays the
convergence guarantees recorded in a trace, and mixed value-and-policy
iteration: one loop with four Q-updates, namely nk powers of the
parametrized evaluation operator, their masked form, its exact fixed
point (the three of `mixed_vpi`) and, for nonnegative costs, the maximal
solution of the stop/continue constraint program (`lp_variant_vpi`).

``run(model, config)`` picks the solver named by ``config.algorithm``.
Every solver is deterministic given its configuration and returns a
SolveResult.  Its append-only IterationTrace, kept by one recorder that
all five solvers share, has rows that carry the sup-norm residual, the
distance to ground truth when one is supplied, policy and set
descriptors, ordering margins against ground truth and (mixed runs in N
and P) against the value-iteration envelope T^k(J0), the iterates J_k
and Q_k themselves (mixed runs), and wall time.  A run that stops on the
tolerance and reaches the iteration cap first raises SolverCapError,
which carries the SolveResult it ends with.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .extreal import INF, margin_leq, sup_dist
from .ftheta import (
    Theta,
    applications_run,
    f_theta_power,
    masked_update,
    q_fixed_point,
)
from .model import Policy, TotalCostModel
from .operators import (
    bellman_T,
    bellman_T_mu,
    greedy_select,
    h_backup,
    m_minimize,
)
from .chains import evaluate_policy, occupation_measure
from .stopping import lp_upper_bound


class SolverCapError(RuntimeError):
    """Iteration cap reached before the residual target.

    The last iterate is still a valid one-sided bound in the monotone
    regimes: a lower bound for nonnegative costs, an upper bound for
    nonpositive ones.  ``result`` is the SolveResult the run ends with,
    its termination "cap".
    """

    def __init__(self, message: str, last, trace, bound: str | None, result):
        super().__init__(message)
        self.last = last
        self.trace = trace
        self.bound = bound
        self.result = result


# ---------------------------------------------------------------------------
# B-set strategies
#
# A strategy's resolve(model, policy, k) returns iteration k's set B as a
# frozenset.  F_theta reads the policy only on B; off B it reads J.


@dataclass(frozen=True)
class FullB:
    def resolve(self, model, policy, k):
        return model.state_set


@dataclass(frozen=True)
class OccupationSupportB:
    """B is the support of the policy's discounted visitation measure.

    The support is every state whose measure exceeds ``threshold``.  The
    measure is at least (1 - beta) * rho(x) at each state, so with the
    default uniform rho every state passes, and B = S, whenever
    threshold < (1 - beta) / n.  A proper subset needs a concentrated
    rho or a larger threshold.
    """

    beta: float = 0.5
    threshold: float = 1e-12
    rho: np.ndarray | None = None
    # (model, policy, B) of the last resolve: a loop that keeps its policy
    # object gets the same B back without a new occupation solve.
    _last: tuple = field(default=(None,) * 3, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if not self.threshold >= 0.0:
            raise ValueError("threshold must be nonnegative")

    def resolve(self, model, policy, k):
        if self._last[0] is model and self._last[1] is policy:
            return self._last[2]
        rho = self.rho
        if rho is None:
            rho = np.full(model.num_states, 1.0 / model.num_states)
        keep = occupation_measure(model, policy, rho, self.beta) > self.threshold
        B = model.state_set if keep.all() else frozenset(np.flatnonzero(keep).tolist())
        object.__setattr__(self, "_last", (model, policy, B))
        return B


@dataclass(frozen=True)
class CustomB:
    """Explicit per-iteration subsets, cycled when the run is longer;
    ``CustomB((frozenset(),))`` is the empty B every iteration."""

    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.sets:
            raise ValueError("CustomB needs at least one set")

    def resolve(self, model, policy, k):
        return self.sets[k % len(self.sets)]


BStrategy = Union[FullB, OccupationSupportB, CustomB]


# ---------------------------------------------------------------------------
# Traces


@dataclass
class TraceRow:
    k: int
    residual: float
    dist_J: float | None = None
    dist_Q: float | None = None
    policy: str = ""
    b_set: str = ""
    upper_margin: float | None = None   # mixed, N/P: max(J_k - T^k(J0)); <= 0 if it holds
    lower_margin: float | None = None   # max(Jstar - J_k); <= 0 when J_k >= Jstar
    q_lower_margin: float | None = None  # max(Qstar - Q_k)
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)


@dataclass
class IterationTrace:
    algorithm: str
    regime: str
    discount: float
    config: dict
    J0: np.ndarray | None = None
    Q0: np.ndarray | None = None
    dist0: float | None = None          # max distance of (J0, Q0) to ground truth
    initial_dominance: bool | None = None
    ground_truth_known: bool = False
    model_hash: str = ""
    rows: list[TraceRow] = field(default_factory=list)
    op_count: int = 0

    def append(self, row: TraceRow) -> None:
        if self.rows and row.k <= self.rows[-1].k:
            raise ValueError("trace rows must be strictly increasing in k")
        self.rows.append(row)

    @property
    def final_residual(self) -> float:
        return self.rows[-1].residual if self.rows else INF


# ---------------------------------------------------------------------------
# Configuration and results


ALGORITHMS = ("vi", "pi", "mpi", "mixed", "lp")


def check_admits(algorithm: str, model: TotalCostModel) -> None:
    """Raise ValueError unless ``algorithm`` can run on ``model``.

    The lp variant needs a nonnegative-cost (P) model, and every
    algorithm but vi needs an atomic-only one: the operators they apply
    to Q-vectors are defined on atomic pairs only.
    """
    if algorithm == "lp" and model.regime != "P":
        raise ValueError("the lp variant needs a nonnegative-cost (P) model")
    if algorithm != "vi" and not model.atomic_only:
        raise ValueError(f"{algorithm} needs an atomic-only model; "
                         "vi also handles affine families")


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str = "mixed"
    J0: np.ndarray | None = None
    Q0: np.ndarray | None = None
    nk: int | tuple[int, ...] | str = 10       # power count per iteration, or "exact"
    epsilon: float = 0.0
    bstrategy: BStrategy = field(default_factory=FullB)
    clamp_lo: np.ndarray | None = None
    clamp_hi: np.ndarray | None = None
    masks: Sequence[tuple[Sequence[tuple[int, int]], Sequence[int]]] | None = None
    max_iter: int = 1000
    tol: float = 1e-9
    ground_truth: tuple[np.ndarray, np.ndarray | None] | None = None
    initial_policy: Policy | None = None
    stop_on_tol: bool = True

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {', '.join(ALGORITHMS)}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if isinstance(self.nk, str):
            if self.nk != "exact":
                raise ValueError("nk must be a positive int, a tuple, or 'exact'")
        elif isinstance(self.nk, int):
            if self.nk < 1:
                raise ValueError("nk must be >= 1")
        else:
            object.__setattr__(self, "nk", tuple(int(v) for v in self.nk))
            if any(v < 1 for v in self.nk):
                raise ValueError("every nk entry must be >= 1")
        if self.nk == "exact" and self.algorithm == "mpi":
            raise ValueError("modified policy iteration needs a finite nk")
        if self.nk == "exact" and self.masks is not None:
            raise ValueError("mask schedules need a finite nk")
        if self.algorithm == "lp" and (self.masks is not None or self.epsilon > 0.0):
            raise ValueError("the lp variant takes no mask schedule and no epsilon > 0")
        if self.algorithm in ("vi", "pi", "mpi"):
            given = {"mask schedule": self.masks is not None,
                     "epsilon > 0": self.epsilon > 0.0,
                     "clamp_lo": self.clamp_lo is not None,
                     "clamp_hi": self.clamp_hi is not None,
                     "B strategy but FullB": not isinstance(self.bstrategy, FullB)}
            unread = [name for name, is_set in given.items() if is_set]
            if unread:
                raise ValueError(f"{_NAMES[self.algorithm]} takes no {', no '.join(unread)}")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if not self.epsilon >= 0.0:
            raise ValueError("epsilon must be nonnegative")
        for name in ("clamp_lo", "clamp_hi"):
            bound = getattr(self, name)
            if bound is not None and np.isnan(np.asarray(bound, dtype=float)).any():
                raise ValueError(f"{name} must not be NaN")
        if self.clamp_lo is not None and self.clamp_hi is not None:
            lo = np.asarray(self.clamp_lo, dtype=float)
            hi = np.asarray(self.clamp_hi, dtype=float)
            if (lo > hi).any():
                raise ValueError("clamp_lo must not exceed clamp_hi")

    def nk_at(self, k: int) -> int | str:
        if self.nk == "exact":
            return "exact"
        if isinstance(self.nk, int):
            return self.nk
        return self.nk[min(k, len(self.nk) - 1)]

    def echo(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "nk": self.nk if isinstance(self.nk, (int, str)) else list(self.nk),
            "epsilon": self.epsilon,
            "bstrategy": repr(self.bstrategy),
            "max_iter": self.max_iter,
            "tol": self.tol,
            "masks": self.masks is not None,
            "clamped": self.clamp_lo is not None or self.clamp_hi is not None,
        }


@dataclass
class SolveResult:
    """What every solver returns.

    ``termination`` is "converged" (residual within tol), "cap"
    (iteration cap reached), or for policy iteration "optimal-certified",
    "stuck" or "cycle".  ``Q`` is set by the mixed and constraint-program
    methods, ``divergent`` by value iteration, and ``values``/``policies``
    (every evaluated value and every policy, in order) by policy
    iteration, whose ``J`` and ``policy`` are the last evaluated ones.
    """

    J: np.ndarray
    trace: IterationTrace
    termination: str
    Q: np.ndarray | None = None
    policy: Policy | None = None
    divergent: frozenset[int] = frozenset()
    values: Sequence[np.ndarray] = ()
    policies: Sequence[Policy] = ()

    @property
    def converged(self) -> bool:
        return self.termination in ("converged", "optimal-certified", "stuck")


_NAMES = {"vi": "value iteration", "pi": "policy iteration",
          "mpi": "modified policy iteration", "mixed": "mixed iteration",
          "lp": "constraint-program iteration"}


class _Recorder:
    """The trace bookkeeping every solver shares.

    Builds the trace header from the start (J0, Q0), keeps the ground
    truth and the wall clock, fills each row's ground-truth columns and
    time, and ends the run.  ``rate`` records the start's distance to
    ground truth (dist0) and ``sandwich`` whether the start dominates it
    (initial_dominance); each start vector counts only when its ground
    truth is known, and dominance only when all of them do.
    """

    def __init__(self, algorithm: str, model: TotalCostModel, config: SolverConfig,
                 J0=None, Q0=None, rate: bool = True, sandwich: bool = False):
        self.config = config
        self.Jstar = self.Qstar = None
        if config.ground_truth is not None:
            Jstar, Qstar = config.ground_truth
            self.Jstar = np.asarray(Jstar, dtype=float)
            if Qstar is not None:
                self.Qstar = np.asarray(Qstar, dtype=float)
        J0 = None if J0 is None else np.array(J0, dtype=float)
        Q0 = None if Q0 is None else np.array(Q0, dtype=float)
        self.trace = IterationTrace(
            algorithm=algorithm, regime=model.regime, discount=model.discount,
            config=config.echo(), J0=J0, Q0=Q0,
            ground_truth_known=self.Jstar is not None)
        if self.Jstar is not None and J0 is not None:
            starts = [(self.Jstar, J0)]
            if Q0 is not None:
                starts.append((self.Qstar, Q0))
            known = [(star, v) for star, v in starts if star is not None]
            if rate:
                self.trace.dist0 = max(sup_dist(v, star) for star, v in known)
            if sandwich and len(known) == len(starts):
                self.trace.initial_dominance = all(
                    margin_leq(star, v) <= 0.0 for star, v in known)
        self._start = time.perf_counter()

    def row(self, k: int, residual: float, J: np.ndarray, Q: np.ndarray | None = None,
            **fields) -> TraceRow:
        """Append row k, with the ground-truth columns for J (and Q)."""
        row = TraceRow(k=k, residual=residual, **fields)
        if self.Jstar is not None:
            row.dist_J = sup_dist(J, self.Jstar)
            row.lower_margin = margin_leq(self.Jstar, J)
            if Q is not None and self.Qstar is not None:
                row.dist_Q = sup_dist(Q, self.Qstar)
                row.q_lower_margin = margin_leq(self.Qstar, Q)
        row.wall_time = time.perf_counter() - self._start
        self.trace.append(row)
        return row

    def finish(self, termination: str, J: np.ndarray, bound: str | None = None,
               **fields) -> SolveResult:
        """The run's SolveResult.  At the cap of a run that was meant to
        stop on the tolerance, raise SolverCapError carrying it instead;
        ``bound`` says which side of the answer the last iterate bounds."""
        result = SolveResult(J=J, trace=self.trace, termination=termination, **fields)
        config = self.config
        if termination == "cap" and config.stop_on_tol:
            raise SolverCapError(
                f"{_NAMES[self.trace.algorithm]} hit the {config.max_iter}-iteration cap "
                f"(residual {self.trace.final_residual:g})",
                last=J if result.Q is None else (J, result.Q), trace=self.trace,
                bound=bound, result=result)
        return result


# ---------------------------------------------------------------------------
# Value iteration

# Divergence in the undiscounted regimes.  There value iteration is
# monotone, and each coordinate tends to a finite limit or to the
# regime-signed infinity.  DivergenceRule decides which finite
# coordinates count as divergent: after DIVERGENCE_WARMUP iterations,
# those whose increment is at least DIVERGENCE_FLOOR and has not shrunk
# by 10% over DIVERGENCE_WINDOW iterations.  The window test can also
# flag a coordinate that converges slowly, such as one that leaves a
# unit-cost state with probability 1e-3 per step.
DIVERGENCE_WINDOW = 40
DIVERGENCE_WARMUP = 80
DIVERGENCE_FLOOR = 1e-9


class DivergenceRule:
    """Divergence test over the iterates of one monotone sequence.

    Built on the start iterate and called with iterate k at iteration k,
    it keeps the last DIVERGENCE_WINDOW + 2 iterates (by reference) and
    returns the boolean mask of coordinates it flags.  Only finite
    coordinates are ever flagged.
    """

    def __init__(self, start: np.ndarray):
        self._history = deque([start], maxlen=DIVERGENCE_WINDOW + 2)

    def __call__(self, k: int, x: np.ndarray) -> np.ndarray:
        history = self._history
        history.append(x)
        if k < DIVERGENCE_WARMUP or len(history) < history.maxlen:
            return np.zeros(x.shape, dtype=bool)
        with np.errstate(invalid="ignore"):
            inc = np.abs(x - history[-2])
            old_inc = np.abs(history[1] - history[0])
            flagged = ((inc >= DIVERGENCE_FLOOR) & np.isfinite(old_inc)
                       & (inc >= 0.9 * old_inc))
        return flagged & np.isfinite(x)


def value_iteration(model: TotalCostModel, J0: np.ndarray,
                    config: SolverConfig | None = None) -> SolveResult:
    """Iterate the optimal-cost backup from J0.

    Undiscounted runs classify states whose iterates grow without bound
    (by `DivergenceRule`) and report them at the regime-signed
    infinity; the remaining states stop on the residual.  For
    atomic-only models a classified state is pinned to infinity
    immediately (finite minima commute with monotone limits, so this is
    exact and faster); models with affine families
    keep iterating the finite values so that continuum infima see the
    true finite iterates.
    """
    config = config or SolverConfig(algorithm="vi")
    J = np.asarray(J0, dtype=float).copy()
    rec = _Recorder("vi", model, config, J0=J, sandwich=True)
    sign = -1.0 if model.regime == "N" else 1.0
    divergent = DivergenceRule(J)
    flagged = np.zeros(model.num_states, dtype=bool)
    divergent_states: list[int] = []
    live = slice(None)  # the states not flagged divergent
    pin = model.atomic_only
    direction: str | None = None
    for k in range(1, config.max_iter + 1):
        nxt = bellman_T(model, J)
        rec.trace.op_count += 1
        if model.discount == 1.0:
            flagged |= divergent(k, nxt)
            if np.count_nonzero(flagged) > len(divergent_states):
                divergent_states = np.flatnonzero(flagged).tolist()
                live = ~flagged
            if pin:
                nxt[flagged] = sign * INF
        res = sup_dist(nxt[live], J[live])
        if k == 1:
            if margin_leq(nxt, J) <= 0.0:
                direction = "nonincreasing"
            elif margin_leq(J, nxt) <= 0.0:
                direction = "nondecreasing"
        J = nxt
        reported = J.copy()
        reported[flagged] = sign * INF
        rec.row(k, res, reported,
                extra={"direction": direction, "divergent": list(divergent_states)})
        if config.stop_on_tol and res <= config.tol:
            return rec.finish("converged", reported, divergent=frozenset(divergent_states))
    bound = {"nondecreasing": "lower", "nonincreasing": "upper"}.get(direction or "")
    return rec.finish("cap", reported, bound, divergent=frozenset(divergent_states))


# ---------------------------------------------------------------------------
# Policy iteration and modified policy iteration


def policy_iteration(model: TotalCostModel, mu0: Policy,
                     config: SolverConfig | None = None) -> SolveResult:
    """Exact policy iteration with greedy improvement.

    Terminates "stuck" when the current policy's backup already attains
    the optimal backup at its own value function (within 1e-12); this is
    a fixed point of the scheme but not necessarily optimal.  With
    ground truth supplied, a stuck point matching it upgrades the reason
    to "optimal-certified".  Policy cycles are detected exactly through
    the full history of deterministic policies.
    """
    check_admits("pi", model)
    config = config or SolverConfig(algorithm="pi")
    rec = _Recorder("pi", model, config)
    mu = mu0
    policies = [mu]
    values: list[np.ndarray] = []
    seen: dict[str, int] = {}

    def result(termination: str) -> SolveResult:
        return rec.finish(termination, values[-1], policy=policies[len(values) - 1],
                          values=values, policies=policies)

    prev_J: np.ndarray | None = None
    for k in range(1, config.max_iter + 1):
        J = evaluate_policy(model, mu).J
        values.append(J)
        TJ = bellman_T(model, J)
        TmuJ = bellman_T_mu(model, mu, J)
        rec.trace.op_count += 2
        gap = sup_dist(TmuJ, TJ)
        res = sup_dist(J, prev_J) if prev_J is not None else INF
        prev_J = J
        key = mu.descriptor()
        row = rec.row(k, res, J, policy=key, extra={"improvement_gap": gap})
        if gap <= 1e-12:
            if row.dist_J is not None and row.dist_J <= config.tol:
                return result("optimal-certified")
            return result("stuck")
        if key in seen:
            return result("cycle")
        seen[key] = k
        mu = greedy_select(model, h_backup(model, J), epsilon=0.0)
        rec.trace.op_count += 1
        policies.append(mu)
    return result("cap")


def modified_policy_iteration(model: TotalCostModel, mu0: Policy, J0: np.ndarray,
                              config: SolverConfig | None = None) -> SolveResult:
    """Optimistic policy iteration: nk fixed-policy backups per round,
    then exact greedy improvement.

    Trace rows carry both the evaluation iterate and the improvement-time
    value M(h_backup(J)); for nonnegative-cost runs with ground truth the
    initial-condition flags T_mu0(J0) <= J0 and J0 <= c Jstar are recorded
    in the header.
    """
    check_admits("mpi", model)
    config = config or SolverConfig(algorithm="mpi", nk=10)
    J = np.asarray(J0, dtype=float).copy()
    mu = mu0
    rec = _Recorder("mpi", model, config, J0=J, rate=False)
    if model.regime == "P":
        flags = {"superharmonic_start": bool(
            margin_leq(bellman_T_mu(model, mu0, J), J) <= 1e-12)}
        if rec.Jstar is not None:
            flags["cone_c"] = cone_multiplier(J, rec.Jstar)
        rec.trace.config["initial_flags"] = flags
    prev_greedy: np.ndarray | None = None
    for k in range(1, config.max_iter + 1):
        for _ in range(int(config.nk_at(k - 1))):
            J = bellman_T_mu(model, mu, J)
            rec.trace.op_count += 1
        Q = h_backup(model, J)
        rec.trace.op_count += 1
        mu = greedy_select(model, Q, epsilon=0.0, keep=mu)
        J_greedy = m_minimize(model, Q)
        res = sup_dist(J_greedy, prev_greedy) if prev_greedy is not None else INF
        prev_greedy = J_greedy
        rec.row(k, res, J_greedy, policy=mu.descriptor(),
                extra={"J_eval": J.tolist(), "J_greedy": J_greedy.tolist()})
        if config.stop_on_tol and res <= config.tol:
            return rec.finish("converged", J_greedy, policy=mu)
    return rec.finish("cap", J_greedy, policy=mu)


# ---------------------------------------------------------------------------
# Mixed value-and-policy iteration


def mixed_vpi(model: TotalCostModel, config: SolverConfig) -> SolveResult:
    """Mixed value-and-policy iteration (`_mixed_loop`) whose Q-update is
    nk powers of the parametrized evaluation operator, their asynchronous
    masked form under a mask schedule, or the exact fixed point
    (``nk="exact"``).  ``extra["powers"]`` counts the applications that
    ran (fewer than nk once a power repeats; see `f_theta_power`).  In N
    and P, where J_k <= T^k(J0) is a guarantee, ``upper_margin`` is the
    margin against that value-iteration envelope; in D it is None.
    """
    check_admits("mixed", model)
    update = (_masked_update if config.masks is not None
              else _exact_update if config.nk == "exact" else _power_update)
    return _mixed_loop(model, config, "mixed", update)


def lp_variant_vpi(model: TotalCostModel, config: SolverConfig) -> SolveResult:
    """Mixed iteration whose Q-update is the maximal solution of the
    stop/continue constraint program (an upper bound on the exact fixed
    point that stays below one operator application of itself).

    Each row verifies both defining inequalities, Q_{k+1} >= Q_fixed and
    Q_{k+1} <= F(Q_{k+1}; J_k), with margins in ``extra``.
    """
    check_admits("lp", model)
    return _mixed_loop(model, config, "lp", _program_update)


def _mixed_loop(model: TotalCostModel, config: SolverConfig, algorithm: str,
                update) -> SolveResult:
    """The loop of mixed and lp.  Per iteration: pick the policy (the
    initial one at k = 0, if given, else greedy from Q with the configured
    epsilon, reusing M(Q) when the last iteration took it, and keeping the
    policy and its Theta while the choice repeats), resolve B, and let
    ``update(model, config, k, theta, Q, J)`` return (Q_next, J_next or
    None, operator count, row columns).  J becomes the clamped J_next of
    a masked update, else the clamped M(Q_next).  mixed rows record J_k
    and Q_k as ``J_snapshot``/``Q_snapshot`` lists; lp records no
    envelope, start dominance or snapshots, adds ``cone_margin``
    (max(J_k - c Jstar) for J0's cone multiplier c), and its capped
    iterate is a lower bound.
    """
    if config.J0 is None or config.Q0 is None:
        raise ValueError("config must provide J0 and Q0")
    lp = algorithm == "lp"
    J = np.asarray(config.J0, dtype=float).copy()
    Q = np.asarray(config.Q0, dtype=float).copy()
    rec = _Recorder(algorithm, model, config, J0=J, Q0=Q, sandwich=not lp)
    envelope = None if lp or model.regime == "D" else J.copy()
    c = None if not lp or rec.Jstar is None else cone_multiplier(J, rec.Jstar)
    # c * Jstar with 0 * inf = 0.  A finite c >= 0 meets an infinity of
    # Jstar as NaN only when c = 0 (J0 = 0 wherever Jstar is finite).
    cone = (None if c is None or not np.isfinite(c)
            else np.zeros(J.shape) if c == 0.0 else c * rec.Jstar)
    policy = config.initial_policy
    theta = None
    qmin = None  # M(Q) of the current Q, when the last iteration computed it
    for k in range(config.max_iter):
        if k > 0 or policy is None:
            policy = greedy_select(model, Q, config.epsilon, qmin=qmin, keep=policy)
        theta = _theta(theta, policy, config.bstrategy.resolve(model, policy, k))
        Q_next, J_next, ops, columns = update(model, config, k, theta, Q, J)
        rec.trace.op_count += ops
        qmin = m_minimize(model, Q_next) if J_next is None else None
        J_next = _clamp(J_next if qmin is None else qmin, config)
        res_J = sup_dist(J_next, J)
        res_Q = sup_dist(Q_next, Q)
        J, Q = J_next, Q_next
        if envelope is not None:
            envelope = bellman_T(model, envelope)
        upper = None if envelope is None else margin_leq(J, envelope)
        extra = {"residual_Q": res_Q, **columns}
        if lp:
            extra["cone_margin"] = None if cone is None else margin_leq(J, cone)
        else:
            extra["J_snapshot"] = J.tolist()
            extra["Q_snapshot"] = Q.tolist()
        rec.row(k + 1, res_J, J, Q, policy=policy.descriptor(),
                b_set=_describe_b(theta.B, model.num_states), upper_margin=upper,
                extra=extra)
        if config.stop_on_tol and max(res_J, res_Q) <= config.tol:
            return rec.finish("converged", J, Q=Q, policy=policy)
    return rec.finish("cap", J, "lower" if lp else None, Q=Q, policy=policy)


def _power_update(model, config, k, theta, Q, J):
    before = applications_run()
    Q_next = f_theta_power(model, theta, Q, J, int(config.nk_at(k)))
    powers = applications_run() - before
    return Q_next, None, powers, {"powers": powers}


def _masked_update(model, config, k, theta, Q, J):
    gamma_mask, s_mask = config.masks[k % len(config.masks)]
    before = applications_run()
    Q_next, J_next = masked_update(model, theta, Q, J, gamma_mask, s_mask,
                                   n=int(config.nk_at(k)))
    powers = applications_run() - before
    return Q_next, J_next, powers, {"powers": powers}


def _exact_update(model, config, k, theta, Q, J):
    Q_next, cert = q_fixed_point(model, theta, J)
    return Q_next, None, cert.iterations, {"powers": cert.iterations}


def _program_update(model, config, k, theta, Q, J):
    bound = lp_upper_bound(model, theta, J)
    Q_fix, cert = q_fixed_point(model, theta, J)
    columns = {"ineq_lower_margin": margin_leq(Q_fix, bound.Qbar),   # <= 0: above Q_fix
               "ineq_upper_margin": bound.certificate.upper_margin}  # >= 0: below F
    return bound.Qbar, None, cert.iterations + bound.certificate.iterations, columns


def _clamp(J: np.ndarray, config: SolverConfig) -> np.ndarray:
    if config.clamp_hi is not None:
        J = np.minimum(J, np.asarray(config.clamp_hi, dtype=float))
    if config.clamp_lo is not None:
        J = np.maximum(J, np.asarray(config.clamp_lo, dtype=float))
    return J


def _theta(theta: Theta | None, policy: Policy, B: frozenset[int]) -> Theta:
    """Theta(policy, B), or ``theta`` itself when it holds these very
    objects: greedy selection hands back the policy it kept, so a run
    builds one Theta per distinct policy and B."""
    if theta is not None and theta.policy is policy and theta.B is B:
        return theta
    return Theta(policy, B)


def _describe_b(B: frozenset[int], n: int) -> str:
    if len(B) == n:
        return "S"
    if not B:
        return "{}"
    return "{" + ",".join(str(x) for x in sorted(B)) + "}"


def round_robin_masks(model: TotalCostModel) -> list:
    """Singleton asynchronous masks cycling through every pair and state."""
    pairs = list(model.pairs)
    states = list(range(model.num_states))
    cycle = max(len(pairs), len(states))
    return [([pairs[k % len(pairs)]], [states[k % len(states)]])
            for k in range(cycle)]


# ---------------------------------------------------------------------------
# Front door


def run(model: TotalCostModel, config: SolverConfig) -> SolveResult:
    """Run ``config.algorithm`` on the model.

    vi and mpi start from ``config.J0``, pi and mpi from
    ``config.initial_policy``; mixed and lp read everything they need
    from the config.  Each solver refuses a model that `check_admits`
    does not admit.  The solvers are looked up by name on every call, so
    a caller that rebinds one (a tracer, a test double) sees it used.
    """
    algorithm = config.algorithm
    if algorithm in ("vi", "mpi") and config.J0 is None:
        raise ValueError(f"{algorithm} needs config.J0")
    if algorithm in ("pi", "mpi") and config.initial_policy is None:
        raise ValueError(f"{algorithm} needs config.initial_policy")
    if algorithm == "vi":
        return value_iteration(model, config.J0, config)
    if algorithm == "pi":
        return policy_iteration(model, config.initial_policy, config)
    if algorithm == "mpi":
        return modified_policy_iteration(model, config.initial_policy, config.J0, config)
    if algorithm == "mixed":
        return mixed_vpi(model, config)
    return lp_variant_vpi(model, config)


# ---------------------------------------------------------------------------
# Policy extraction


def extract_policy_discounted(model: TotalCostModel, Q: np.ndarray, epsilon: float,
                              delta: float | None = None, k: int | None = None
                              ) -> tuple[Policy, float | None]:
    """Epsilon-greedy policy from a Q iterate of a discounted run, with
    the a-priori suboptimality bound (2 alpha^k delta + epsilon)/(1 - alpha)
    when the initial distance delta and the iteration index k are known."""
    if model.regime != "D":
        raise ValueError("the a-priori extraction bound is for discounted models")
    policy = greedy_select(model, Q, epsilon=epsilon)
    bound = None
    if delta is not None and k is not None:
        bound = (2.0 * model.discount ** k * delta + epsilon) / (1.0 - model.discount)
    return policy, bound


# ---------------------------------------------------------------------------
# Certificate verification


def cone_multiplier(J: np.ndarray, Jstar: np.ndarray) -> float:
    """Smallest c with J <= c * Jstar, infinity-aware.

    States with Jstar = 0 force J = 0 there; otherwise no finite c
    exists and the result is +inf.  States with infinite Jstar never
    constrain c.
    """
    J = np.asarray(J, dtype=float)
    Jstar = np.asarray(Jstar, dtype=float)
    c = 0.0
    for jx, sx in zip(J, Jstar):
        if np.isposinf(sx):
            continue
        if sx == 0.0:
            if jx != 0.0:
                return INF
            continue
        c = max(c, jx / sx)
    return c


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class CertReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name} (worst margin {c.margin:g})"
                         + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)


def verify_certificates(model: TotalCostModel, trace: IterationTrace,
                        ground_truth: tuple[np.ndarray, np.ndarray | None] | None = None
                        ) -> CertReport:
    """Replay the convergence guarantees recorded in a trace.

    Discounted traces check the geometric rate against the initial
    distance, with 1e-12 of room for round-off; undiscounted ones check
    the envelope sandwich Jstar <= J_k <= T^k(J0) (the lower side only
    under certified initial dominance), with none.  With ground truth
    supplied, the initial function is also tested for membership in the
    convergence cone: bounded by a finite multiple of Jstar and zero
    wherever Jstar is zero.
    """
    checks: list[CheckResult] = []
    Jstar = None if ground_truth is None else np.asarray(ground_truth[0], dtype=float)

    if (model.regime == "D" and trace.dist0 is not None
            and not trace.config.get("masks")):
        worst = -INF
        ok = True
        alpha = model.discount
        for row in trace.rows:
            dists = [d for d in (row.dist_J, row.dist_Q) if d is not None]
            if not dists:
                continue
            bound = alpha ** row.k * trace.dist0 + 1e-12
            margin = max(dists) - bound
            worst = max(worst, margin)
            if margin > 0.0:
                ok = False
        checks.append(CheckResult(
            "geometric-rate", ok, worst if worst > -INF else 0.0,
            f"alpha={alpha}, dist0={trace.dist0:g}"))

    if model.regime in ("N", "P"):
        ups = [row.upper_margin for row in trace.rows if row.upper_margin is not None]
        if ups:
            worst = max(ups)
            checks.append(CheckResult(
                "envelope-upper", worst <= 0.0, worst,
                "J_k <= T^k(J0) elementwise"))
        if trace.initial_dominance:
            lows = [row.lower_margin for row in trace.rows
                    if row.lower_margin is not None]
            qlows = [row.q_lower_margin for row in trace.rows
                     if row.q_lower_margin is not None]
            if lows:
                worst = max(lows + qlows)
                checks.append(CheckResult(
                    "dominance-lower", worst <= 0.0, worst,
                    "Jstar <= J_k and Qstar <= Q_k elementwise"))

    if Jstar is not None and trace.J0 is not None and model.regime == "P":
        c = cone_multiplier(trace.J0, Jstar)
        nonneg = bool((trace.J0 >= 0.0).all())
        witness = "" if nonneg else "J0 has negative entries"
        if not np.isfinite(c):
            for x, (jx, sx) in enumerate(zip(trace.J0, Jstar)):
                if sx == 0.0 and jx != 0.0:
                    witness = f"state {x}: J0={jx:g} but Jstar=0"
                    break
                if np.isfinite(sx) and sx > 0 and np.isposinf(jx):
                    witness = f"state {x}: J0 infinite over finite Jstar"
                    break
        checks.append(CheckResult(
            "cone-membership", bool(np.isfinite(c)) and nonneg,
            c if np.isfinite(c) else INF,
            witness or f"J0 <= c Jstar with c={c:g}"))
        finite_zero = bool(nonneg and np.isfinite(trace.J0).all()
                           and all(trace.J0[x] == 0.0
                                   for x in range(len(Jstar)) if Jstar[x] == 0.0))
        checks.append(CheckResult(
            "zero-set-membership", finite_zero, 0.0 if finite_zero else INF,
            "J0 finite, nonnegative, and zero on the zero set of Jstar"))
    return CertReport(tuple(checks))

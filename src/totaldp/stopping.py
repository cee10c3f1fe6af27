"""Two-action stopping reformulation of parametrized policy evaluation.

Given a model, theta = (mu, B), and stopping costs J, the associated
stopping problem lives on the model's state-control pairs plus an
absorbing cost-free terminal state.  At a pair whose state lies in B one
may stop (pay J(x), move to the terminal state) or continue (pay g(x, u),
move to a pair (x', u') drawn from q(.|x, u) and mu(.|x')); pairs whose
state lies outside B are stop-only.

Solving this problem and mapping its optimal values back through one
continuation backup reproduces the monotone fixed point of the ftheta
module by a separate route (value iteration on pair values instead of
Q-vector powers), which is how the two modules check each other.  Both
routes apply the same one-step Q backup kernel of the operators module;
the test suite checks that kernel against loop reference
implementations.  A downward-iterated linear program over the same constraint
system yields, for nonnegative-cost models, a certified upper bound on
that fixed point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .extreal import INF, expect_rows, expect_segments, sup_dist
from .ftheta import (
    DIVERGENCE_WINDOW,
    FixedPointCertificate,
    FixedPointOptions,
    Theta,
    _check_inputs,
    _f_apply,
    _promote_divergent,
)
from .model import TotalCostModel, regime_conforming
from .operators import pair_backup


@dataclass(frozen=True)
class StoppingProblem:
    """Stop/continue problem on pair states; the terminal state is kept
    implicit (cost-free, absorbing, value pinned to zero)."""

    model: TotalCostModel
    theta: Theta
    J: np.ndarray

    def __post_init__(self):
        J = np.array(self.J, dtype=float)
        J.setflags(write=False)
        object.__setattr__(self, "J", J)

    @property
    def regime(self) -> str:
        return self.model.regime

    @property
    def alpha(self) -> float:
        return self.model.discount

    @cached_property
    def b_pairs(self) -> np.ndarray:
        """Mask over pairs whose state lies in B (continue available)."""
        in_B = np.zeros(self.model.num_states, dtype=bool)
        in_B[self.theta.B_index] = True
        mask = in_B[self.model.pair_state]
        mask.setflags(write=False)
        return mask

    @cached_property
    def _stop_costs(self) -> np.ndarray:
        stop = self.J[self.model.pair_state]
        stop.setflags(write=False)
        return stop

    def stop_costs(self) -> np.ndarray:
        """Stop cost J(x) of every pair (x, u); read-only."""
        return self._stop_costs

    def unreachable_pairs(self) -> list[tuple[int, str]]:
        """(state, control name) combos in B x C outside the constraint
        graph; they carry stop cost J(x) but no trajectory from the
        graph ever enters them."""
        all_names = sorted({c.name for cs in self.model.controls for c in cs})
        out = []
        for x in sorted(self.theta.B):
            admissible = set(self.model.control_names(x))
            out.extend((x, name) for name in all_names if name not in admissible)
        return out

    def kernel_matrix(self) -> np.ndarray:
        """Continue-action kernel over pairs, rows summing to one."""
        m = self.model
        return m.pair_probs[:, m.pair_state] * self.theta.policy.pair_weights


def build_stopping(model: TotalCostModel, theta: Theta, J: np.ndarray) -> StoppingProblem:
    """Materialize the stopping problem for (theta, J).

    The policy is defined on every state of a finite model, so it also
    serves as the continuation kernel off B.
    """
    _check_inputs(model, theta.policy)
    J = np.asarray(J, dtype=float)
    if not regime_conforming(model, J):
        raise ValueError("stopping costs J must conform to the model regime")
    return StoppingProblem(model=model, theta=theta, J=J)


def _continuation_values(problem: StoppingProblem, V: np.ndarray) -> np.ndarray:
    """G_V over all pairs: g + alpha * E[per-state mix of V at the next
    pair], with V read as J on stop-only pairs."""
    m = problem.model
    w = expect_segments(problem.theta.policy.pair_weights, V, m.pair_starts)
    return pair_backup(m, w)


def t_o_apply(problem: StoppingProblem, V: np.ndarray) -> np.ndarray:
    """Stopping-problem optimal backup on pair values.

    Pairs with continue available take min{J(x), G_V(x, u)}; stop-only
    pairs are pinned at J(x).  The terminal state stays at value zero
    and is left implicit.
    """
    V = np.asarray(V, dtype=float)
    stop = problem.stop_costs()
    G = _continuation_values(problem, V)
    b = problem.b_pairs
    out = stop.copy()
    out[b] = np.minimum(stop[b], G[b])
    return out


def solve_stopping(problem: StoppingProblem,
                   options: FixedPointOptions | None = None
                   ) -> "StoppingSolution":
    """Iterate the stopping backup from zero to the optimal pair values.

    Returns the value vector, the continuation values on the constraint
    pairs inside B, an optimal stop/continue rule where one is
    guaranteed to exist (D and P; stop wins ties), and a convergence
    certificate with the same semantics as the ftheta fixed point.
    """
    opts = options or FixedPointOptions()
    m = problem.model
    V = np.zeros(m.num_pairs())
    # Stop-only pairs hold J(x) for every k >= 1; seed them directly.
    alpha = problem.alpha
    regime = problem.regime
    sign = -1.0 if regime == "N" else 1.0
    promoted: set[int] = set()
    history = deque([V], maxlen=DIVERGENCE_WINDOW + 2)
    cert = None
    for k in range(1, opts.max_iter + 1):
        nxt = t_o_apply(problem, V)
        if promoted:
            nxt[list(promoted)] = sign * INF
        res = sup_dist(nxt, V)
        V = nxt
        if regime == "D":
            err = alpha * res / (1.0 - alpha)
            if err <= opts.tol:
                cert = FixedPointCertificate("D", k, res, "two-sided", err)
                break
            continue
        if res <= opts.tol:
            cert = FixedPointCertificate(
                regime, k, res, "upper" if regime == "N" else "lower",
                0.0 if res == 0.0 else INF, frozenset(promoted))
            break
        history.append(V)
        for i in _promote_divergent(history, k):
            promoted.add(i)
            V[i] = sign * INF
    if cert is None:
        raise RuntimeError(
            f"stopping solve did not stabilize in {opts.max_iter} iterations")
    fstar = _continuation_values(problem, V)
    b = problem.b_pairs
    stop_rule = None
    if regime in ("D", "P"):
        stop_rule = problem.stop_costs() <= fstar
        stop_rule[~b] = True
    return StoppingSolution(problem=problem, V=V, fstar=fstar,
                            stop_rule=stop_rule, certificate=cert)


@dataclass(frozen=True)
class StoppingSolution:
    problem: StoppingProblem
    V: np.ndarray
    fstar: np.ndarray  # continuation values over all pairs; meaningful on B
    stop_rule: np.ndarray | None
    certificate: FixedPointCertificate


def reconstruct_q(problem: StoppingProblem, V: np.ndarray) -> np.ndarray:
    """Map stopping values back to a Q-vector on the base model:
    Q(x, u) = g(x, u) + alpha * E[V at the continuation pair]."""
    return _continuation_values(problem, np.asarray(V, dtype=float))


class AssumptionError(ValueError):
    """The weighted-constraint program is infeasible as posed."""


@dataclass(frozen=True)
class LPBoundCertificate:
    iterations: int
    residual: float
    feasibility_margin: float       # min over constraints of slack (>= 0 wanted)
    upper_margin: float             # min of F_theta(Qbar; J) - Qbar
    lower_margin: float | None      # min of Qbar - Q_fixed_point, when checked


@dataclass(frozen=True)
class LPBoundResult:
    W: np.ndarray                   # maximal feasible values on B (B-order)
    B_order: tuple[int, ...]
    Qbar: np.ndarray
    certificate: LPBoundCertificate


def lp_upper_bound(model: TotalCostModel, theta: Theta, J: np.ndarray,
                   tol: float = 1e-13, max_iter: int = 200_000,
                   check_lower: bool = False,
                   fp_options: FixedPointOptions | None = None) -> LPBoundResult:
    """Maximal solution of the stop/continue constraint program for a
    deterministic policy under nonnegative costs, plus the induced
    Q-vector upper bound.

    The program maximizes any strictly positive weighting of W subject to

        W(x) <= J(x)
        W(x) <= g(x, mu(x)) + sum_{x' not in B} J(x') q(x'|x, mu(x))
                           + sum_{x' in B}  W(x') q(x'|x, mu(x))

    for x in B.  Every feasible point is dominated by the downward
    iteration of the capped constraint map from W = J, so the iteration's
    limit is the maximum for any admissible weighting.  The weights only
    gate feasibility (the weighted stop costs must be finite, so J must be
    finite on B) and do not move the answer, so none is taken.
    """
    _check_inputs(model, theta.policy)
    if model.regime != "P":
        raise ValueError("the constraint program applies to nonnegative-cost models")
    if not theta.policy.is_deterministic():
        raise ValueError("the reduced program needs a deterministic policy")
    J = np.asarray(J, dtype=float)
    B = sorted(theta.B)
    for x in B:
        if not np.isfinite(J[x]):
            raise AssumptionError(
                f"stopping cost is infinite on B at state {x}; "
                "the weighted program is infeasible")

    n = model.num_states
    in_B = np.zeros(n, dtype=bool)
    in_B[B] = True
    J_B = J[B]
    if len(B):
        chosen = model.pair_starts[B] + np.array(
            [theta.policy.action_index(x) for x in B], dtype=np.intp)
        rows = model.pair_probs[chosen]
        g_mu = model.pair_costs[chosen]
        off_term = expect_rows(rows[:, ~in_B], J[~in_B])
        P_BB = rows[:, B]
        const = g_mu + off_term

        W = J_B.copy()
        iterations = 0
        residual = 0.0
        for iterations in range(1, max_iter + 1):
            rhs = const + P_BB @ W
            nxt = np.minimum(J_B, rhs)
            residual = sup_dist(nxt, W)
            W = nxt
            if residual <= tol:
                break
        else:
            raise RuntimeError(f"constraint iteration did not stabilize "
                               f"in {max_iter} steps")
        feas = float(np.minimum(J_B - W, const + P_BB @ W - W).min())
    else:
        W = np.zeros(0)
        iterations = 0
        residual = 0.0
        feas = 0.0

    # Qbar over all pairs, reading W on B and J off B.
    wfull = J.astype(float).copy()
    wfull[B] = W
    Qbar = pair_backup(model, wfull)

    # First certificate check: Qbar <= F_theta(Qbar; J) elementwise.
    F_Qbar = _f_apply(model, theta, Qbar, J)
    upper_margin = float(np.where(F_Qbar == Qbar, 0.0, F_Qbar - Qbar).min(initial=0.0))

    lower_margin = None
    if check_lower:
        sol = solve_stopping(build_stopping(model, theta, J),
                             fp_options or FixedPointOptions(tol=1e-12))
        Qtheta = reconstruct_q(sol.problem, sol.V)
        lower_margin = float(np.where(Qbar == Qtheta, 0.0, Qbar - Qtheta).min(initial=0.0))

    cert = LPBoundCertificate(iterations=iterations, residual=residual,
                              feasibility_margin=feas, upper_margin=upper_margin,
                              lower_margin=lower_margin)
    return LPBoundResult(W=W, B_order=tuple(B), Qbar=Qbar, certificate=cert)

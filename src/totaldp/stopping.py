"""Two-action stopping reformulation of parametrized policy evaluation.

Given a model, theta = (mu, B), and stopping costs J, the associated
stopping problem lives on the model's state-control pairs plus an
absorbing cost-free terminal state.  At a pair whose state lies in B one
may stop (pay J(x), move to the terminal state) or continue (pay g(x, u),
move to a pair (x', u') drawn from q(.|x, u) and mu(.|x')); pairs whose
state lies outside B are stop-only.  `StoppingProblem` holds (model,
theta, J) and two read-only arrays over pairs: `b_pairs` (continue
available) and `stop_costs` (J(x) at (x, u)).  Its regime and discount
are the model's.

Its optimal values, mapped back through one continuation backup, are the
fixed point of the ftheta module (Lemma A.1).  `solve_stopping` finds
them exactly by policy iteration over pair-level stop rules from
"continue everywhere" (`chains._stop_rule_iteration`, the engine
`q_fixed_point` also runs), and `t_o_apply` is the problem's optimal
backup on pair values.  A stop rule is a choice per pair, but its
pair values need no chain over the pairs: the engine prices the rule
on the n states plus the terminal, where a state's value is the
policy's mix of its pairs' values, and reads each continuing pair's
value off one backup of those state values (the chains module says why
this holds for mixed policies too).  The constraint program over the same system has,
for nonnegative costs and a deterministic policy, a maximal solution
(Lemma A.2): the same iteration started from "stop everywhere" reaches
it, and it gives a certified upper bound on that fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chains import _stop_rule_iteration
from .extreal import sup_dist, xdiff
from .ftheta import (
    FixedPointCertificate,
    Theta,
    _certificate,
    _check_inputs,
    _check_stop_costs,
    _f_apply,
    _floor,
    _pairs_in_B,
)
from .model import TotalCostModel, policy_mix
from .operators import pair_backup


@dataclass(frozen=True)
class StoppingProblem:
    """Stop/continue problem on pair states; the terminal state is kept
    implicit (cost-free, absorbing, value pinned to zero).

    Construction admits (theta, J) as `q_fixed_point` does: an atomic
    model and policy, a B inside the states, and stop costs J and pair
    costs that conform to the regime, +inf entries aside (so the
    all-+inf J is legal in every regime).
    """

    model: TotalCostModel
    theta: Theta
    J: np.ndarray

    def __post_init__(self):
        _check_inputs(self.model, self.theta)
        J = np.array(self.J, dtype=float)
        _check_stop_costs(self.model, J)
        J.setflags(write=False)
        object.__setattr__(self, "J", J)

    @cached_property
    def b_pairs(self) -> np.ndarray:
        """Mask over pairs whose state lies in B (continue available)."""
        mask = _pairs_in_B(self.model, self.theta)
        mask.setflags(write=False)
        return mask

    @cached_property
    def stop_costs(self) -> np.ndarray:
        """Stop cost J(x) of every pair (x, u); read-only."""
        stop = self.J[self.model.pair_state]
        stop.setflags(write=False)
        return stop


def build_stopping(model: TotalCostModel, theta: Theta, J: np.ndarray) -> StoppingProblem:
    """Materialize the stopping problem for (theta, J), checked as
    `StoppingProblem` checks it.

    The policy is defined on every state of a finite model, so it also
    serves as the continuation kernel off B.
    """
    return StoppingProblem(model=model, theta=theta, J=J)


def _continuation_values(problem: StoppingProblem, V: np.ndarray) -> np.ndarray:
    """G_V over all pairs: g + alpha * E[per-state mix of V at the next
    pair], with V read as J on stop-only pairs."""
    m = problem.model
    return pair_backup(m, policy_mix(m, problem.theta.policy, V))


def t_o_apply(problem: StoppingProblem, V: np.ndarray) -> np.ndarray:
    """Stopping-problem optimal backup on pair values.

    Pairs with continue available take min{J(x), G_V(x, u)}; stop-only
    pairs are pinned at J(x).  The terminal state stays at value zero
    and is left implicit.
    """
    stop = problem.stop_costs
    G = _continuation_values(problem, np.asarray(V, dtype=float))
    return np.where(problem.b_pairs, np.minimum(stop, G), stop)


def solve_stopping(problem: StoppingProblem) -> "StoppingSolution":
    """Optimal pair values, exactly: stop-rule policy iteration from
    "continue everywhere" reaches the stopping backup's limit from zero.

    Returns the values, the continuation values on the constraint pairs
    inside B, an optimal stop/continue rule where one is guaranteed to
    exist (D and P; stop wins ties), and a certificate as for the ftheta
    fixed point, its residual taken by one more stopping backup.
    """
    b, stop = problem.b_pairs, problem.stop_costs
    V, steps, divergent = _stop_rule_iteration(
        problem.model, problem.theta.policy, stop, b, b)
    fstar = _continuation_values(problem, V)
    # One more stopping backup of V (`t_o_apply`), from the same fstar.
    cert = _certificate(problem.model, steps,
                        sup_dist(np.where(b, np.minimum(stop, fstar), stop), V),
                        divergent)
    stop_rule = None
    if problem.model.regime in ("D", "P"):
        stop_rule = stop <= fstar
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
    iterations: int                 # stop rules priced
    residual: float                 # sup distance moved by one more constraint map
    feasibility_margin: float       # min over constraints of slack (>= 0 wanted)
    upper_margin: float             # min of F_theta(Qbar; J) - Qbar


@dataclass(frozen=True)
class LPBoundResult:
    W: np.ndarray                   # maximal feasible values on B (B-order)
    B_order: tuple[int, ...]
    Qbar: np.ndarray
    certificate: LPBoundCertificate


def lp_upper_bound(model: TotalCostModel, theta: Theta, J: np.ndarray) -> LPBoundResult:
    """Maximal solution of the stop/continue constraint program for a
    deterministic policy under nonnegative costs, plus the induced
    Q-vector upper bound.

    The program maximizes any strictly positive weighting of W subject to

        W(x) <= J(x)
        W(x) <= g(x, mu(x)) + sum_{x' not in B} J(x') q(x'|x, mu(x))
                           + sum_{x' in B}  W(x') q(x'|x, mu(x))

    for x in B.  Its feasible points are the points below one application
    of the capped constraint map, so the maximum is the largest fixed
    point of the stopping problem for (theta, J) (Lemma A.2).  Stop-rule
    policy iteration from "stop everywhere" reaches it: W is the value
    at the chosen pairs of B.  The weights only gate feasibility (the
    weighted stop costs must be finite, so J must be finite on B) and do
    not move the answer, so none is taken.
    """
    _check_inputs(model, theta)
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

    b = _pairs_in_B(model, theta)
    V, steps, _ = _stop_rule_iteration(model, theta.policy, J[model.pair_state],
                                       b, np.zeros_like(b))
    # Qbar over all pairs, reading W on B and J off B.
    wfull = _floor(model, theta, V, J)
    W = wfull[B]
    Qbar = pair_backup(model, wfull)
    rhs = _floor(model, theta, Qbar, J)[B]  # constraint map
    feas = float(np.minimum(J[B] - W, xdiff(rhs, W)).min()) if B else 0.0

    # First certificate check: Qbar <= F_theta(Qbar; J) elementwise.
    F_Qbar = _f_apply(model, theta, Qbar, J)
    upper_margin = float(xdiff(F_Qbar, Qbar).min(initial=0.0))

    cert = LPBoundCertificate(iterations=steps,
                              residual=sup_dist(np.minimum(J[B], rhs), W),
                              feasibility_margin=feas, upper_margin=upper_margin)
    return LPBoundResult(W=W, B_order=tuple(B), Qbar=Qbar, certificate=cert)

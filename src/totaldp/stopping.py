"""Two-action stopping reformulation of parametrized policy evaluation.

Given a model, theta = (mu, B), and stopping costs J, the stopping
problem lives on the model's state-control pairs plus an absorbing
cost-free terminal.  At a pair whose state lies in B one may stop (pay
J(x), move to the terminal) or continue (pay g(x, u), move to a pair
(x', u') drawn from q(.|x, u) and mu(.|x')); other pairs only stop.

Its optimal values, mapped back by `reconstruct_q`, are the ftheta fixed
point (Lemma A.1).  For nonnegative costs and a deterministic policy
its largest fixed point is the maximal solution of a constraint program
(Lemma A.2), an upper bound on that fixed point.  `solve_stopping` and
`lp_upper_bound` find them with the one solve `q_fixed_point` also runs
(`ftheta._stop_rule_solve`), from "continue everywhere" and from "stop
everywhere".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .extreal import sup_dist, xdiff
from .ftheta import (
    FixedPointCertificate,
    Theta,
    _certificate,
    _check_inputs,
    _check_stop_costs,
    _floor,
    _pairs_in_B,
    _stop_rule_solve,
    f_theta_power,
)
from .model import TotalCostModel, policy_mix
from .operators import pair_backup


@dataclass(frozen=True)
class StoppingProblem:
    """Stop/continue problem on pair states, the terminal kept implicit.
    Construction admits (theta, J) as `q_fixed_point` does and keeps J
    as a read-only copy; regime and discount are the model's."""

    model: TotalCostModel
    theta: Theta
    J: np.ndarray

    def __post_init__(self):
        _check_inputs(self.model, self.theta)
        J = np.array(self.J, dtype=float)
        _check_stop_costs(self.model, J)
        J.setflags(write=False)
        object.__setattr__(self, "J", J)


def build_stopping(model: TotalCostModel, theta: Theta, J: np.ndarray) -> StoppingProblem:
    """The stopping problem for (theta, J), admitted as `StoppingProblem` admits it."""
    return StoppingProblem(model=model, theta=theta, J=J)


class StoppingSolution(NamedTuple):
    V: np.ndarray                      # optimal pair values
    certificate: FixedPointCertificate


def solve_stopping(problem: StoppingProblem) -> StoppingSolution:
    """Optimal pair values, exactly (the stopping backup's limit from
    zero), and a certificate as for the ftheta fixed point, its residual
    taken by one more stopping backup: min{J(x), continuation value} on
    the pairs of B, J(x) off B.  In D and P an optimal rule stops off B
    and where J(x) <= `reconstruct_q(problem, V)`."""
    m, theta = problem.model, problem.theta
    J, V, steps, divergent = _stop_rule_solve(m, theta, problem.J)
    stop = J[m.pair_state]
    cont = pair_backup(m, policy_mix(m, theta.policy, V))  # reconstruct_q, not a traced call
    backup = np.where(_pairs_in_B(m, theta), np.minimum(stop, cont), stop)
    return StoppingSolution(V, _certificate(m, steps, sup_dist(backup, V), divergent))


def reconstruct_q(problem: StoppingProblem, V: np.ndarray) -> np.ndarray:
    """Map stopping values back to a Q-vector on the base model:
    Q(x, u) = g(x, u) + alpha * E[policy's mix of V at the next state]."""
    m = problem.model
    return pair_backup(m, policy_mix(m, problem.theta.policy, np.asarray(V, dtype=float)))


class AssumptionError(ValueError):
    """The weighted-constraint program is infeasible as posed."""


class LPBoundCertificate(NamedTuple):
    iterations: int                 # stop rules priced
    upper_margin: float             # min of F_theta(Qbar; J) - Qbar


class LPBoundResult(NamedTuple):
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

    for x in B.  Its feasible points lie below one application of the
    capped constraint map, so its maximum is the largest fixed point of
    the stopping problem for (theta, J) (Lemma A.2), which stop-rule
    policy iteration from "stop everywhere" reaches: W is the value at
    the chosen pairs of B.  The weights do not move the answer, so none
    is taken; they only need J finite on B.  J is admitted as the other
    entries admit it (a NaN or negative stop cost is their ValueError),
    so only a +inf on B is an AssumptionError.
    """
    _check_inputs(model, theta)
    if model.regime != "P":
        raise ValueError("the constraint program applies to nonnegative-cost models")
    if not theta.policy.is_deterministic():
        raise ValueError("the reduced program needs a deterministic policy")
    J = np.asarray(J, dtype=float)
    _check_stop_costs(model, J)
    B = theta.B_index
    off = B[~np.isfinite(J[B])]
    if off.size:
        raise AssumptionError(f"stopping cost is infinite on B at state {off[0]}; "
                              "the weighted program is infeasible")
    J, V, steps, _ = _stop_rule_solve(model, theta, J, stopped=True)
    # Qbar over all pairs, reading W on B and J off B.
    wfull = _floor(model, theta, V, J)
    Qbar = pair_backup(model, wfull)
    F, _ = f_theta_power(model, theta, Qbar, J, 1)
    upper_margin = float(xdiff(F, Qbar).min(initial=0.0))
    return LPBoundResult(wfull[B], tuple(B.tolist()), Qbar,
                         LPBoundCertificate(steps, upper_margin))

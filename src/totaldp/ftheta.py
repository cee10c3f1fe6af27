"""Parametrized evaluation operators on Q-vectors.

For a pair theta = (mu, B) of a stationary policy and a state subset,
the operator

    F_theta(Q; J)(x, u) = g(x, u)
        + alpha * sum_{x' not in B} q(x'|x,u) J(x')
        + alpha * sum_{x' in B} q(x'|x,u) sum_{u'} mu(u'|x') min{J(x'), Q(x',u')}

acts on Q with J held fixed.  Its monotone limit from zero is the
continuation-value function of a two-action stopping reformulation of
policy evaluation (Lemma A.1; see the stopping module), and
`q_fixed_point` computes it exactly by policy iteration over that
problem's stop rules (`chains._stop_rule_iteration`).

These operators are defined for atomic-only models; the all-plus-infinity
J vector is a legal input and turns the B = S deterministic form into the
plain fixed-policy Q backup.  One application is a few pair-axis array
operations: lift J onto the pairs, take min{J, Q} and mix it per state
with the policy (`model.policy_mix`), or, for a policy built from
choices, read Q at the chosen pairs (the same mix, a gather) and take
min{J, Q} on those states; then run the shared Q backup of the operators
module against the result.

An application reads Q only through that state vector w (J off B, the
policy's mix of min{J, Q} on B), and the backup is a deterministic
function of w.  So once two successive powers read bitwise-equal
vectors, every later power returns the same Q, and `f_theta_power`
stops there.  Its result is the full n-fold composition; only the
backups that could not change it are skipped.  In the unclamped mixed
iteration J = M Q, so min{J, Q} is J and, under a deterministic policy,
the first power is H(J).  While the iterates rise (T J >= J, so that
H(J) >= J on every pair), the second power reads that same J: one
backup per mixed iteration instead of n.  `applications_run` counts the
backups that did run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chains import _stop_rule_iteration
from .extreal import INF, sup_dist
from .model import Policy, TotalCostModel, policy_mix, regime_conforming, validate_policy
from .operators import m_minimize, pair_backup


@dataclass(frozen=True)
class Theta:
    """Policy plus the state subset on which it is trusted.

    B = S is recognized by identity: `FullB` returns the model's
    `state_set`, and ``frozenset(B)`` of a frozenset is that same object,
    so a Theta built from it needs no sort and no range check.
    """

    policy: Policy
    B: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "B", frozenset(self.B))

    @cached_property
    def B_index(self) -> np.ndarray:
        """The states of B as a sorted read-only index array."""
        idx = np.array(sorted(self.B), dtype=np.intp)
        idx.setflags(write=False)
        return idx


def _check_inputs(model: TotalCostModel, theta: Theta) -> None:
    """Refuse a non-atomic model or policy, a policy that does not fit the
    model, and a B with a state outside the model's.  After this check a
    B of n states is every state."""
    if not model.atomic_only:
        raise ValueError("F operators are defined for atomic-only models")
    if not theta.policy.atomic:
        raise ValueError("F operators need an atomic-distribution policy")
    errs = validate_policy(model, theta.policy)
    if errs:
        raise ValueError("invalid policy: " + "; ".join(errs))
    if theta.B is not model.state_set:
        B = theta.B_index
        if B.size and (B[0] < 0 or B[-1] >= model.num_states):
            raise ValueError(f"B must lie in 0..{model.num_states - 1}: "
                             f"got {B.tolist()}")


def _check_stop_costs(model: TotalCostModel, J: np.ndarray) -> None:
    """Refuse stop costs J or pair costs that break the model's regime
    (`regime_conforming`), +inf entries aside: stop-rule pricing relies
    on the regime's sign.  The one admission rule of the fixed point and
    of the stopping problem."""
    costs = np.concatenate([J, model.pair_costs])
    if not regime_conforming(model, costs[costs != INF]):
        raise ValueError("stopping costs J and pair costs must conform to the "
                         "model regime (apart from +inf entries)")


def _pairs_in_B(model: TotalCostModel, theta: Theta) -> np.ndarray:
    """Mask over the pairs whose state lies in B."""
    if len(theta.B) == model.num_states:
        return np.ones(model.num_pairs(), dtype=bool)
    in_B = np.zeros(model.num_states, dtype=bool)
    in_B[theta.B_index] = True
    return in_B[model.pair_state]


def _floor(model: TotalCostModel, theta: Theta, V: np.ndarray,
           J: np.ndarray) -> np.ndarray:
    """J, with J(x) for x in B replaced by the policy's mix
    sum_u' mu(u'|x) V(x, u') of a pair-axis vector V (`policy_mix`); for
    B = S the mix is the whole result."""
    if len(theta.B) == model.num_states:
        return policy_mix(model, theta.policy, V)
    w = J.copy()
    if theta.B:
        B = theta.B_index
        w[B] = policy_mix(model, theta.policy, V)[B]
    return w


def _f_floor(model: TotalCostModel, theta: Theta, Q: np.ndarray,
             J: np.ndarray) -> np.ndarray:
    """The state vector that one application of F_theta(.; J) to Q backs up.

    A policy built from choices reads Q at its chosen pairs first (its
    `policy_mix`, a gather) and then takes min{J, Q} over those states
    only: the same operands as the minimum over every pair read at the
    chosen ones, so the same floats, bit for bit.  The policy was checked
    against the model by `_check_inputs`, so the gather is taken here
    directly.
    """
    chosen = theta.policy.chosen_pairs
    if chosen is None:
        return _floor(model, theta, np.minimum(J[model.pair_state], Q), J)
    if len(theta.B) == model.num_states:
        return np.minimum(J, Q[chosen])
    w = J.copy()
    B = theta.B_index
    w[B] = np.minimum(J[B], Q[chosen[B]])
    return w


def _f_apply(model: TotalCostModel, theta: Theta, Q: np.ndarray,
             J: np.ndarray) -> np.ndarray:
    return pair_backup(model, _f_floor(model, theta, Q, J))


def f_theta_apply(model: TotalCostModel, theta: Theta, Q: np.ndarray,
                  J: np.ndarray) -> np.ndarray:
    """One application of F_theta(.; J) to Q."""
    _check_inputs(model, theta)
    return _f_apply(model, theta, np.asarray(Q, dtype=float),
                    np.asarray(J, dtype=float))


# Backups that f_theta_power has run on this thread.  A caller that
# reports work done reads applications_run() around its call.
_work = threading.local()


def applications_run() -> int:
    """F_theta applications computed by `f_theta_power` on this thread."""
    return getattr(_work, "applications", 0)


def f_theta_power(model: TotalCostModel, theta: Theta, Q0: np.ndarray,
                  J: np.ndarray, n: int) -> np.ndarray:
    """n-fold composition of F_theta(.; J) starting from Q0.

    Each power backs up the state vector w that it reads off the current
    Q.  When the next power's w is bitwise equal to the last one (so -0.0
    and the infinities count exactly), that power and every later one
    would return the current Q again, and the loop stops.  The result is
    the n-fold composition; `applications_run` counts only the backups
    that ran.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    _check_inputs(model, theta)
    J = np.asarray(J, dtype=float)
    w = _f_floor(model, theta, np.asarray(Q0, dtype=float), J)
    Q = pair_backup(model, w)
    applied = 1
    while applied < n:
        nxt = _f_floor(model, theta, Q, J)
        if nxt.tobytes() == w.tobytes():
            break
        w = nxt
        Q = pair_backup(model, w)
        applied += 1
    _work.applications = applications_run() + applied
    return Q


@dataclass(frozen=True)
class FixedPointCertificate:
    regime: str
    iterations: int     # stop rules priced
    residual: float     # sup distance moved by one more application
    bound: str          # "two-sided": exact up to round-off of either sign
    error_bound: float  # a-posteriori sup-norm bound for D, inf otherwise
    divergent: frozenset[int] = frozenset()  # pairs priced at +-inf


def _certificate(model: TotalCostModel, steps: int, residual: float,
                 divergent: np.ndarray) -> FixedPointCertificate:
    """Certificate of an exact fixed point that one more application of
    its operator moved by ``residual``."""
    alpha, regime = model.discount, model.regime
    err = (alpha * residual / (1.0 - alpha) if regime == "D"
           else 0.0 if residual == 0.0 else INF)
    return FixedPointCertificate(regime, steps, residual, "two-sided", err,
                                 frozenset(np.flatnonzero(divergent).tolist()))


def q_fixed_point(model: TotalCostModel, theta: Theta, J: np.ndarray
                  ) -> tuple[np.ndarray, FixedPointCertificate]:
    """Limit of the monotone iteration of F_theta(.; J) from the zero
    Q-vector, exactly: the continuation values of Lemma A.1's stopping
    problem, by stop-rule policy iteration from "continue everywhere".
    The all-+inf J is legal in every regime and gives the fixed-policy Q.
    A stop cost or pair cost that breaks the regime (`regime_conforming`,
    +inf entries aside) is a ValueError, because the pricing relies on
    the regime's sign; `build_stopping` admits by the same rule.
    """
    _check_inputs(model, theta)
    J = np.asarray(J, dtype=float)
    _check_stop_costs(model, J)
    b = _pairs_in_B(model, theta)
    V, steps, divergent = _stop_rule_iteration(model, theta.policy,
                                               J[model.pair_state], b, b)
    Q = pair_backup(model, _floor(model, theta, V, J))
    residual = sup_dist(_f_apply(model, theta, Q, J), Q)
    return Q, _certificate(model, steps, residual, divergent)


def masked_update(model: TotalCostModel, theta: Theta, Q: np.ndarray,
                  J: np.ndarray, gamma_mask, s_mask,
                  n: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Asynchronous step: refresh Q on a pair subset with F_theta^n and J
    on a state subset with the minimization of the refreshed Q; all other
    coordinates keep their old values."""
    Q = np.asarray(Q, dtype=float)
    J = np.asarray(J, dtype=float)
    full = f_theta_power(model, theta, Q, J, n)
    newQ = Q.copy()
    for x, i in gamma_mask:
        newQ[model.pair_index[(x, i)]] = full[model.pair_index[(x, i)]]
    minimized = m_minimize(model, newQ)
    newJ = J.copy()
    for x in s_mask:
        newJ[x] = minimized[x]
    return newQ, newJ

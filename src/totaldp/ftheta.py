"""Parametrized evaluation operators on Q-vectors.

For a pair theta = (mu, B) of a stationary policy and a state subset,
the operator

    F_theta(Q; J)(x, u) = g(x, u)
        + alpha * sum_{x' not in B} q(x'|x,u) J(x')
        + alpha * sum_{x' in B} q(x'|x,u) sum_{u'} mu(u'|x') min{J(x'), Q(x',u')}

acts on Q with J held fixed.  Its monotone limit from zero is the
continuation-value function of a two-action stopping reformulation of
policy evaluation (see the stopping module, which recomputes it by an
independent route).  A state-control-set variant replaces B with a set R
of pairs: successors (x', u') outside R contribute J(x') even when x'
meets R elsewhere.

These operators are defined for atomic-only models; the all-plus-infinity
J vector is a legal input and turns the B = S deterministic form into the
plain fixed-policy Q backup.  One application is a few pair-axis array
operations: lift J onto the pairs, take min{J, Q}, mix it per state with
the policy's pair weights (a segment-wise expectation), and run the
shared Q backup of the operators module against the result.

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
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .extreal import INF, expect_segments, sup_dist
from .model import Policy, TotalCostModel, validate_policy
from .operators import m_minimize, pair_backup


class FixedPointError(RuntimeError):
    """Iteration cap reached; carries the last iterate and its bound side."""

    def __init__(self, message: str, last: np.ndarray, bound: str):
        super().__init__(message)
        self.last = last
        self.bound = bound


@dataclass(frozen=True)
class Theta:
    """Policy plus the state subset on which it is trusted."""

    policy: Policy
    B: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "B", frozenset(self.B))

    @cached_property
    def B_index(self) -> np.ndarray:
        """The states of B as a sorted index array."""
        idx = np.array(sorted(self.B), dtype=np.intp)
        idx.setflags(write=False)
        return idx


@dataclass(frozen=True)
class ThetaHat:
    """Policy plus a subset R of state-control pairs."""

    policy: Policy
    R: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "R", frozenset(self.R))

    @property
    def B(self) -> frozenset[int]:
        return frozenset(x for x, _ in self.R)


def _check_inputs(model: TotalCostModel, policy: Policy) -> None:
    if not model.atomic_only:
        raise ValueError("F operators are defined for atomic-only models")
    if not policy.atomic:
        raise ValueError("F operators need an atomic-distribution policy")
    errs = validate_policy(model, policy)
    if errs:
        raise ValueError("invalid policy: " + "; ".join(errs))


def _floor(model: TotalCostModel, policy: Policy, B: np.ndarray,
           V: np.ndarray, J: np.ndarray) -> np.ndarray:
    """J, with J(x) for x in B replaced by sum_u' mu(u'|x) V(x, u') for a
    pair-axis vector V."""
    w = J.copy()
    if B.size:
        w[B] = expect_segments(policy.pair_weights, V, model.pair_starts)[B]
    return w


def _f_floor(model: TotalCostModel, theta: Theta, Q: np.ndarray,
             J: np.ndarray) -> np.ndarray:
    """The state vector that one application of F_theta(.; J) to Q backs up."""
    return _floor(model, theta.policy, theta.B_index,
                  np.minimum(J[model.pair_state], Q), J)


def _f_apply(model: TotalCostModel, theta: Theta, Q: np.ndarray,
             J: np.ndarray) -> np.ndarray:
    return pair_backup(model, _f_floor(model, theta, Q, J))


def f_theta_apply(model: TotalCostModel, theta: Theta, Q: np.ndarray,
                  J: np.ndarray) -> np.ndarray:
    """One application of F_theta(.; J) to Q."""
    _check_inputs(model, theta.policy)
    return _f_apply(model, theta, np.asarray(Q, dtype=float),
                    np.asarray(J, dtype=float))


def f_theta_hat_apply(model: TotalCostModel, theta_hat: ThetaHat, Q: np.ndarray,
                      J: np.ndarray) -> np.ndarray:
    """Pair-masked variant: only pairs in R see min{J, Q}; the rest of a
    B-state's controls keep the stopping value J."""
    _check_inputs(model, theta_hat.policy)
    Q = np.asarray(Q, dtype=float)
    J = np.asarray(J, dtype=float)
    in_R = np.array([p in theta_hat.R for p in model.pairs], dtype=bool)
    Jp = J[model.pair_state]
    V = np.where(in_R, np.minimum(Jp, Q), Jp)
    B = np.array(sorted(theta_hat.B), dtype=np.intp)
    return pair_backup(model, _floor(model, theta_hat.policy, B, V, J))


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
    _check_inputs(model, theta.policy)
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
    iterations: int
    residual: float
    bound: str         # "two-sided" (D), "upper" (N), "lower" (P)
    error_bound: float  # a-posteriori sup-norm bound for D, inf otherwise
    promoted: frozenset[int] = frozenset()


@dataclass(frozen=True)
class FixedPointOptions:
    tol: float = 1e-10
    max_iter: int = 200_000


# Monotone divergence promotion, shared by the undiscounted fixed-point
# and stopping iterations and by value iteration: after DIVERGENCE_WARMUP
# iterations, a coordinate whose increment is at least DIVERGENCE_FLOOR
# and has not shrunk by 10% over DIVERGENCE_WINDOW iterations is sent to
# the regime-signed infinity, which is sound for monotone limits and
# accelerates stabilization.
DIVERGENCE_WINDOW = 40
DIVERGENCE_WARMUP = 80
DIVERGENCE_FLOOR = 1e-9


def _promote_divergent(history: deque[np.ndarray], k: int) -> list[int]:
    """Coordinates to promote at iteration k, from a history that keeps
    the last DIVERGENCE_WINDOW + 2 iterates."""
    if k < DIVERGENCE_WARMUP or len(history) <= DIVERGENCE_WINDOW:
        return []
    cur, prev = history[-1], history[-2]
    old_cur, old_prev = history[-1 - DIVERGENCE_WINDOW], history[-2 - DIVERGENCE_WINDOW]
    inc = np.abs(cur - prev)
    old_inc = np.abs(old_cur - old_prev)
    with np.errstate(invalid="ignore"):
        stuck = (np.isfinite(cur) & (inc >= DIVERGENCE_FLOOR)
                 & np.isfinite(old_inc) & (inc >= 0.9 * old_inc))
    return [int(i) for i in np.flatnonzero(stuck)]


def q_fixed_point(model: TotalCostModel, theta: Theta, J: np.ndarray,
                  options: FixedPointOptions | None = None
                  ) -> tuple[np.ndarray, FixedPointCertificate]:
    """Monotone limit of F_theta(.; J) from the zero Q-vector.

    Discounted models stop when the contraction bound
    alpha * r / (1 - alpha) on the remaining error drops below tol and
    report it in the certificate.  Undiscounted models iterate
    monotonically (down for N, up for P) until the residual passes tol or
    the iterate stabilizes exactly; the certificate records which side of
    the limit the returned iterate is on.
    """
    opts = options or FixedPointOptions()
    _check_inputs(model, theta.policy)
    J = np.asarray(J, dtype=float)
    Q = np.zeros(model.num_pairs())
    alpha = model.discount
    sign = -1.0 if model.regime == "N" else 1.0
    promoted: set[int] = set()
    history = deque([Q], maxlen=DIVERGENCE_WINDOW + 2)
    for k in range(1, opts.max_iter + 1):
        nxt = _f_apply(model, theta, Q, J)
        if promoted:
            nxt[list(promoted)] = sign * INF
        res = sup_dist(nxt, Q)
        Q = nxt
        if model.regime == "D":
            err = alpha * res / (1.0 - alpha)
            if err <= opts.tol:
                return Q, FixedPointCertificate("D", k, res, "two-sided", err)
            continue
        if res <= opts.tol:
            cert = FixedPointCertificate(
                model.regime, k, res,
                "upper" if model.regime == "N" else "lower",
                0.0 if res == 0.0 else INF,
                frozenset(promoted),
            )
            return Q, cert
        history.append(Q)
        for i in _promote_divergent(history, k):
            promoted.add(i)
            Q[i] = sign * INF
    raise FixedPointError(
        f"no fixed point within {opts.max_iter} iterations (residual left)",
        last=Q,
        bound="upper" if model.regime == "N" else "lower",
    )


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

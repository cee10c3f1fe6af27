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


def _check_inputs(model: TotalCostModel, theta: Theta | ThetaHat) -> None:
    if not model.atomic_only:
        raise ValueError("F operators are defined for atomic-only models")
    if not theta.policy.atomic:
        raise ValueError("F operators need an atomic-distribution policy")
    errs = validate_policy(model, theta.policy)
    if errs:
        raise ValueError("invalid policy: " + "; ".join(errs))
    B = theta.B
    if B and (min(B) < 0 or max(B) >= model.num_states):
        raise ValueError(f"B must lie in 0..{model.num_states - 1}: "
                         f"got {sorted(B)}")


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
    _check_inputs(model, theta)
    return _f_apply(model, theta, np.asarray(Q, dtype=float),
                    np.asarray(J, dtype=float))


def f_theta_hat_apply(model: TotalCostModel, theta_hat: ThetaHat, Q: np.ndarray,
                      J: np.ndarray) -> np.ndarray:
    """Pair-masked variant: only pairs in R see min{J, Q}; the rest of a
    B-state's controls keep the stopping value J."""
    _check_inputs(model, theta_hat)
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
    iterations: int
    residual: float
    bound: str         # "two-sided" (D), "upper" (N), "lower" (P)
    error_bound: float  # a-posteriori sup-norm bound for D, inf otherwise
    promoted: frozenset[int] = frozenset()


@dataclass(frozen=True)
class FixedPointOptions:
    tol: float = 1e-10
    max_iter: int = 200_000


# Divergence in the undiscounted regimes.  There value iteration and the
# fixed-point iterations below are monotone, and each coordinate tends to
# a finite limit or to the regime-signed infinity.  DivergenceRule is the
# one rule that decides which finite coordinates count as divergent:
# those beyond _VALUE_CAP in magnitude at once, and after
# DIVERGENCE_WARMUP iterations those whose increment is at least
# DIVERGENCE_FLOOR and has not shrunk by 10% over DIVERGENCE_WINDOW
# iterations.  The window test can also flag a coordinate that converges
# slowly, such as one that leaves a unit-cost state with probability 1e-3
# per step.
DIVERGENCE_WINDOW = 40
DIVERGENCE_WARMUP = 80
DIVERGENCE_FLOOR = 1e-9
_VALUE_CAP = 1e13


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
        flagged = np.abs(x) > _VALUE_CAP
        if k >= DIVERGENCE_WARMUP and len(history) == history.maxlen:
            with np.errstate(invalid="ignore"):
                inc = np.abs(x - history[-2])
                old_inc = np.abs(history[1] - history[0])
                flagged |= ((inc >= DIVERGENCE_FLOOR) & np.isfinite(old_inc)
                            & (inc >= 0.9 * old_inc))
        if np.count_nonzero(flagged):
            flagged &= np.isfinite(x)
        return flagged


def _monotone_limit(step, size: int, regime: str, alpha: float,
                    opts: FixedPointOptions
                    ) -> tuple[np.ndarray, FixedPointCertificate]:
    """Iterate `step` from the zero vector to its limit.

    In D the iteration stops when the contraction bound
    alpha * r / (1 - alpha) on the remaining error drops below tol.  In N
    and P it runs monotonically (down for N, up for P) until the residual
    passes tol, sending the coordinates that DivergenceRule flags to the
    regime-signed infinity on the way.
    """
    X = np.zeros(size)
    sign = -1.0 if regime == "N" else 1.0
    bound = "upper" if regime == "N" else "lower"
    promoted: list[int] = []
    divergent = DivergenceRule(X)
    for k in range(1, opts.max_iter + 1):
        nxt = step(X)
        if promoted:
            nxt[promoted] = sign * INF
        res = sup_dist(nxt, X)
        X = nxt
        if regime == "D":
            err = alpha * res / (1.0 - alpha)
            if err <= opts.tol:
                return X, FixedPointCertificate("D", k, res, "two-sided", err)
            continue
        if res <= opts.tol:
            return X, FixedPointCertificate(
                regime, k, res, bound, 0.0 if res == 0.0 else INF,
                frozenset(promoted))
        new = divergent(k, X)
        if np.count_nonzero(new):
            promoted += np.flatnonzero(new).tolist()
            X[new] = sign * INF
    raise FixedPointError(
        f"no fixed point within {opts.max_iter} iterations (residual left)",
        last=X, bound=bound)


def q_fixed_point(model: TotalCostModel, theta: Theta, J: np.ndarray,
                  options: FixedPointOptions | None = None
                  ) -> tuple[np.ndarray, FixedPointCertificate]:
    """Monotone limit of F_theta(.; J) from the zero Q-vector.

    Discounted models stop on the contraction bound and report it in the
    certificate.  Undiscounted models iterate until the residual passes
    tol or the iterate stabilizes exactly; the certificate records which
    side of the limit the returned iterate is on.  Raises FixedPointError
    at the iteration cap.
    """
    _check_inputs(model, theta)
    J = np.asarray(J, dtype=float)
    return _monotone_limit(lambda Q: _f_apply(model, theta, Q, J),
                           model.num_pairs(), model.regime, model.discount,
                           options or FixedPointOptions())


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

"""Policy evaluation and Markov-chain analysis for a fixed policy.

Undiscounted policy costs are defined as limits of the k-stage costs and
can be infinite.  On a finite chain the infinite part is decided by
reachability alone.  Call a state paying when its one-stage cost is
nonzero (in a valid model it has the regime's sign; a stop cost of the
other sign, below, is paid at most once), and free when it cannot reach
a paying state.  Free states cost 0.  A state reaches the free set
with probability one iff it cannot reach a state that cannot reach the
free set (Baier & Katoen 2008, ch. 10), because on a finite chain the
walk ends, almost surely, in a closed class, and every closed class that
holds no paying state is free.  So J_mu(x) is the regime-signed infinity
exactly when x can reach a state that cannot reach the free set, or a
state whose one-stage cost is already infinite.  Every other state is
absorbed into the free set with probability one, and its finite cost
solves a nonsingular linear system, so evaluation is exact.  In D only an
infinite one-stage cost can make a cost infinite: a state that can reach
a +inf cost is +inf, and any other state that can reach a -inf cost is
-inf.  In N a +inf cost can only be a stop cost (below) or a pair cost
that the stopping problem admits; a state that can reach one is +inf,
since +inf absorbs -inf.

The same pricing solves Lemma A.1's stopping problem for theta = (mu, B)
and stopping costs J: `_stop_rule_iteration` runs policy iteration over
pair-level stop rules, each a chain on the pairs plus a cost-free
terminal.  No end component needs collapsing: a zero-cost loop that
never pays is free, so from "continue everywhere" (the monotone limit
from zero) it is never left for a costlier stop, and from "stop
everywhere" (the maximal solution, Lemma A.2) a tie never enters it.
The engine's chain over pairs continues by `_pair_kernel`, the one
continue kernel of that stopping problem.  `state_marginal` and
`occupation_measure` give a policy's n-step and discounted state
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extreal import INF
from .model import (
    Policy,
    TotalCostModel,
    _chosen_pairs,
    induced_complement,
    induced_kernel,
    policy_mix,
    validate_policy,
)
from .operators import pair_backup


@dataclass(frozen=True)
class EvalResult:
    J: np.ndarray
    divergent: frozenset[int] = frozenset()


def _can_reach(edge: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Mask of the states that reach `targets` in >= 0 steps.

    ``edge`` is the boolean kernel mask P > 0.  A backward frontier
    search over its columns: each state joins the frontier once, so the
    cost is one pass over the n x n mask.
    """
    reached = targets.copy()
    frontier = np.flatnonzero(targets)
    while frontier.size:
        new = edge[:, frontier].any(axis=1) & ~reached
        reached |= new
        frontier = np.flatnonzero(new)
    return reached


def _classify(regime: str, P: np.ndarray, g: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """The free and divergent masks of an N or P chain (module docstring)."""
    sign = 1.0 if regime == "P" else -1.0
    edge = P > 0.0
    free = ~_can_reach(edge, g != 0.0)
    divergent = _can_reach(edge, ~_can_reach(edge, free) | (g == sign * INF))
    return free, divergent


def _price(regime: str, P: np.ndarray, g: np.ndarray, A: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Exact total cost of the chain (P, g) and the mask of its infinite
    states (module docstring).  P may be substochastic and carry the
    discount; A = I - P is the caller's."""
    if regime == "D":
        divergent = np.isinf(g)
        if not divergent.any():
            return np.linalg.solve(A, g), divergent
        edge = P > 0.0
        up = _can_reach(edge, g == INF)
        divergent = up | _can_reach(edge, divergent)
        free = np.zeros(g.size, dtype=bool)
        J = np.where(up, INF, -INF)
    else:
        free, divergent = _classify(regime, P, g)
        J = np.full(g.size, INF if regime == "P" else -INF)
        if regime == "N" and np.count_nonzero(g == INF):
            up = _can_reach(P > 0.0, g == INF)
            divergent |= up
            J[up] = INF
    J[free] = 0.0
    rest = np.flatnonzero(~free & ~divergent)
    if rest.size:
        J[rest] = np.linalg.solve(A[np.ix_(rest, rest)], g[rest])
    return J, divergent


def evaluate_policy(model: TotalCostModel, policy: Policy) -> EvalResult:
    """Exact total cost of a stationary policy.

    Discounted models solve the linear fixed-point system directly.
    Undiscounted models give free states 0 and divergent states the
    regime-signed infinity, then solve the linear system on the rest.
    """
    errs = validate_policy(model, policy)
    if errs:
        raise ValueError("invalid policy: " + "; ".join(errs))
    P, g = induced_kernel(model, policy)
    if model.regime == "D":
        P = model.discount * P
        A = np.eye(model.num_states) - P
    else:
        A, _ = induced_complement(model, policy, (P, g))
    J, divergent = _price(model.regime, P, g, A)
    return EvalResult(J=J, divergent=frozenset(np.flatnonzero(divergent).tolist()))


def _pair_kernel(model: TotalCostModel, policy: Policy) -> np.ndarray:
    """Continue kernel over the pairs of an atomic policy: from pair r to
    pair (x', u') with probability q(x'|r) mu(u'|x').  For a policy built
    from choices, column (x', mu(x')) holds q(x'|r) and every other column
    is zero: the values of the one-hot product, without the product."""
    chosen = _chosen_pairs(model, policy)
    if chosen is None:
        return model.pair_probs[:, model.pair_state] * policy.pair_weights
    K = np.zeros((model.num_pairs(), model.num_pairs()))
    K[:, chosen] = model.pair_probs
    return K


def _stop_rule_iteration(model: TotalCostModel, policy: Policy, stop: np.ndarray,
                         b: np.ndarray, cont: np.ndarray
                         ) -> tuple[np.ndarray, int, np.ndarray]:
    """Policy iteration over the pair-level stop rules of a stopping problem.

    ``stop`` is each pair's stop cost J(x); ``b`` marks the pairs that may
    continue, and ``cont`` (within ``b``) those that do in the start rule.
    A pair switches only on a gain beyond 1e-12 (1 + |J(x)|), so that
    round-off cannot make the rules cycle.  Returns the final rule's pair
    values, the number of rules priced, and the pairs priced at +-inf.
    """
    m = stop.size
    K = model.discount * _pair_kernel(model, policy)
    slack = np.where(np.isfinite(stop), 1e-12 * (1.0 + np.abs(stop)), 0.0)
    seen: set[bytes] = set()
    while True:
        seen.add(cont.tobytes())
        P = np.zeros((m + 1, m + 1))
        P[:m, :m][cont] = K[cont]
        P[np.flatnonzero(~cont), m] = 1.0
        cost = np.append(np.where(cont, model.pair_costs, stop), 0.0)
        V, divergent = _price(model.regime, P, cost, np.eye(m + 1) - P)
        V, divergent = V[:m], divergent[:m]
        G = pair_backup(model, policy_mix(model, policy, V))
        nxt = (cont | (b & (G < stop - slack))) & ~(stop < G - slack)
        if np.array_equal(nxt, cont):
            return V, len(seen), divergent
        if nxt.tobytes() in seen:
            raise RuntimeError("stop-rule iteration returned to an earlier rule")
        cont = nxt


def state_marginal(model: TotalCostModel, policy: Policy,
                   initial: np.ndarray, n: int) -> np.ndarray:
    """Exact distribution of the state after n steps under the policy."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    P, _ = induced_kernel(model, policy)
    dist = np.asarray(initial, dtype=float).copy()
    for _ in range(n):
        dist = dist @ P
    return dist


def occupation_measure(model: TotalCostModel, policy: Policy,
                       rho: np.ndarray, beta: float) -> np.ndarray:
    """Discounted state-visitation distribution.

    p = (1 - beta) * sum_n beta^n rho' kappa^n, computed exactly through
    the linear system p = (1 - beta) rho + beta kappa' p.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    P, _ = induced_kernel(model, policy)
    rho = np.asarray(rho, dtype=float)
    A = np.eye(model.num_states) - beta * P.T
    return np.linalg.solve(A, (1.0 - beta) * rho)

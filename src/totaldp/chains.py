"""Policy evaluation and Markov-chain analysis for a fixed policy.

Undiscounted policy costs are defined as limits of the k-stage costs and
can be infinite.  On a finite chain the infinite part is decidable by
graph analysis: J_mu(x) diverges exactly when x can reach a costly
recurrent class, or a state whose expected one-stage cost is already
infinite.  Divergent states get the regime-signed infinity and the rest
solve a linear system on the transient part, so evaluation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extreal import INF
from .model import (
    AtomicControl,
    Policy,
    TotalCostModel,
    induced_complement,
    induced_kernel,
    validate_policy,
)

EDGE_EPS = 0.0  # edges are strict-positive transition probabilities


@dataclass(frozen=True)
class EvalResult:
    J: np.ndarray
    divergent: frozenset[int] = frozenset()


def _successors(P: np.ndarray) -> list[np.ndarray]:
    return [np.flatnonzero(P[x] > EDGE_EPS) for x in range(P.shape[0])]


def reachable_from(P: np.ndarray, sources: set[int]) -> set[int]:
    """States reachable from `sources` in >= 0 steps along positive edges."""
    succ = _successors(P)
    seen = set(sources)
    stack = list(sources)
    while stack:
        x = stack.pop()
        for y in succ[x]:
            if int(y) not in seen:
                seen.add(int(y))
                stack.append(int(y))
    return seen


def can_reach(P: np.ndarray, targets: set[int]) -> set[int]:
    """States from which `targets` is reachable in >= 0 steps."""
    return reachable_from(P.T, targets)


def strongly_connected_components(P: np.ndarray) -> list[list[int]]:
    """Tarjan's algorithm, iterative, on the positive-edge graph."""
    n = P.shape[0]
    succ = _successors(P)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            x, pi = work[-1]
            if pi == 0:
                index[x] = low[x] = counter
                counter += 1
                stack.append(x)
                on_stack[x] = True
            advanced = False
            for k in range(pi, len(succ[x])):
                y = int(succ[x][k])
                if index[y] == -1:
                    work[-1] = (x, k + 1)
                    work.append((y, 0))
                    advanced = True
                    break
                if on_stack[y]:
                    low[x] = min(low[x], index[y])
            if advanced:
                continue
            work.pop()
            if low[x] == index[x]:
                comp = []
                while True:
                    y = stack.pop()
                    on_stack[y] = False
                    comp.append(y)
                    if y == x:
                        break
                out.append(comp)
            if work:
                px, _ = work[-1]
                low[px] = min(low[px], low[x])
    return out


def recurrent_states(P: np.ndarray) -> set[int]:
    """States in closed communicating classes of the chain."""
    comps = strongly_connected_components(P)
    succ = _successors(P)
    rec: set[int] = set()
    for comp in comps:
        members = set(comp)
        closed = all(int(y) in members for x in comp for y in succ[x])
        if closed:
            rec |= members
    return rec


def classify_divergent(model: TotalCostModel, P: np.ndarray, g: np.ndarray) -> set[int]:
    """States whose total policy cost is the regime-signed infinity.

    A state diverges iff it can reach a recurrent state with nonzero
    expected one-stage cost, or any state with infinite one-stage cost.
    """
    if model.regime == "D":
        return set()
    return _divergent_states(model.regime, P, g, recurrent_states(P))


def _divergent_states(regime: str, P: np.ndarray, g: np.ndarray,
                      rec: set[int]) -> set[int]:
    """classify_divergent for N and P, given the recurrent states."""
    if regime == "P":
        bad = {x for x in rec if g[x] > 0.0} | {x for x in range(len(g)) if np.isposinf(g[x])}
    else:
        bad = {x for x in rec if g[x] < 0.0} | {x for x in range(len(g)) if np.isneginf(g[x])}
    if not bad:
        return set()
    return can_reach(P, bad)


def _solve_on_finite_part(A: np.ndarray, g: np.ndarray, rec: set[int],
                          divergent: set[int], sign: float) -> np.ndarray:
    n = A.shape[0]
    J = np.zeros(n)
    for x in divergent:
        J[x] = sign * INF
    finite = sorted(set(range(n)) - divergent)
    if not finite:
        return J
    # Recurrent states outside the divergent set sit in zero-cost classes.
    transient = [x for x in finite if x not in rec]
    if transient:
        idx = np.array(transient)
        J[idx] = np.linalg.solve(A[np.ix_(idx, idx)], g[idx])
    return J


def evaluate_policy(model: TotalCostModel, policy: Policy) -> EvalResult:
    """Exact total cost of a stationary policy.

    Discounted models solve the linear fixed-point system directly.
    Undiscounted models first classify divergent states by graph
    analysis, then solve the linear system on the remaining transient
    part.  Both steps read the chain's closed classes, found once.
    """
    errs = validate_policy(model, policy)
    if errs:
        raise ValueError("invalid policy: " + "; ".join(errs))
    P, g = induced_kernel(model, policy)
    if model.regime == "D":
        A = np.eye(model.num_states) - model.discount * P
        return EvalResult(J=np.linalg.solve(A, g))

    sign = 1.0 if model.regime == "P" else -1.0
    rec = recurrent_states(P)
    divergent = _divergent_states(model.regime, P, g, rec)
    A, _ = induced_complement(model, policy, (P, g))
    J = _solve_on_finite_part(A, g, rec, divergent, sign)
    return EvalResult(J=J, divergent=frozenset(divergent))


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


def absorbing_core(model: TotalCostModel, policy: Policy,
                   B: set[int] | frozenset[int]) -> frozenset[int]:
    """Largest subset of B the policy-induced chain can never leave.

    Returns the empty set when no absorbing subset of B exists.
    """
    P, _ = induced_kernel(model, policy)
    outside = set(range(model.num_states)) - set(B)
    escapers = can_reach(P, outside) if outside else set()
    return frozenset(set(B) - escapers)


def convert_transition_discount(model: TotalCostModel,
                                ghat: list[list[np.ndarray]],
                                beta: list[list[np.ndarray]],
                                sign: str) -> TotalCostModel:
    """Fold transition-dependent discounting into an equivalent
    undiscounted model.

    Inputs give, per state and atomic control, the transition cost
    ghat[x][u][x'] and the per-transition discount beta[x][u][x'] in
    [0, 1].  The result appends an absorbing cost-free state that soaks
    up the discounted-away probability mass:

        q~(x' | x, u) = beta(x, u, x') q(x' | x, u)
        q~(abs | x, u) = 1 - sum q~(. | x, u)
        g(x, u) = sum_x' ghat(x, u, x') q(x' | x, u)
    """
    if sign not in ("N", "P"):
        raise ValueError("sign must be 'N' or 'P'")
    if not model.atomic_only:
        raise ValueError("transition-discount conversion handles atomic controls only")
    n = model.num_states
    controls = []
    for x in range(n):
        row = []
        for i, c in enumerate(model.controls[x]):
            gh = np.asarray(ghat[x][i], dtype=float)
            bt = np.asarray(beta[x][i], dtype=float)
            if (bt < -1e-15).any() or (bt > 1.0 + 1e-15).any():
                raise ValueError(f"beta outside [0, 1] at state {x} control {c.name!r}")
            scaled = bt * c.probs
            total = float(scaled.sum())
            if total > 1.0 + 1e-9:
                raise ValueError(f"scaled transition row exceeds 1 at state {x} "
                                 f"control {c.name!r}: {total!r}")
            probs = np.concatenate([scaled, [max(0.0, 1.0 - total)]])
            probs = probs / probs.sum()
            cost = float(c.probs @ gh)
            row.append(AtomicControl(c.name, cost, probs))
        controls.append(tuple(row))
    absorb = np.zeros(n + 1)
    absorb[n] = 1.0
    controls.append((AtomicControl("absorb", 0.0, absorb),))
    return TotalCostModel(
        regime=sign,
        discount=1.0,
        controls=tuple(controls),
        families=tuple(() for _ in range(n + 1)),
        state_names=model.state_names + ("absorbing",),
    )

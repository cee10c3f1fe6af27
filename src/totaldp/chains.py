"""Policy evaluation and Markov-chain analysis for a fixed policy.

A policy's cost is the limit of its k-stage costs and can be infinite.
On a finite chain one reachability rule decides where, in every regime
(`_price`).  Call a state paying when its one-stage cost is nonzero (in
a valid model it has the regime's sign; a stop cost of the other sign,
below, is paid at most once), and free when it cannot reach a paying
state.  A state's cost is infinite when it can reach an infinite
one-stage cost, or, undiscounted, a state that cannot reach the free
set.  Such a state is +inf where it reaches a +inf cost (+inf absorbs
-inf), else -inf where it reaches a -inf cost, else the regime's
infinity (`model.regime_infinity`).  Undiscounted, a state that
cannot reach the free set pays forever, so a state that can reach one
pays forever with positive probability, and a state reaches the free
set with probability one iff it cannot (Baier & Katoen 2008, ch. 10),
because on a finite chain the walk ends, almost surely, in a closed
class, and every closed class that holds no paying state is free.  Free
states cost 0.  Every other state is absorbed into the free set with
probability one, or, discounted, leaks its mass at the rate of the
discount, and its finite cost solves a nonsingular linear system, so
evaluation is exact.  A discounted chain with no infinite cost is one
full solve.

The same pricing solves Lemma A.1's stopping problem for theta = (mu, B)
and stopping costs J: `_stop_rule_iteration`, which only the one
admitted solve `ftheta._stop_rule_solve` runs, is policy iteration over
pair-level stop rules.  A rule marks each pair as continuing or
stopping, and is priced on a chain over the n states plus one cost-free
terminal.  At state y the rule pays
c(y) = sum_u mu(u|y) (g(y, u) if (y, u) continues, else J(y)), with
0 * inf = 0, moves to y' with probability
alpha sum_u mu(u|y) [(y, u) continues] q(y'|y, u), and moves to the
terminal with the stopping mass sum_u mu(u|y) [(y, u) stops].  Its value
W(y) is the policy's mix of the pair values, so one backup of W gives
every continuing pair's value, and a stopping pair is worth J(y).  A
mixed policy is priced on this chain as safely as a deterministic one:
the terminal is the free state that every stopping mass moves to, so a
state that stops with some weight still reaches the free set, and the
admission rule of that solve (`ftheta._check_stop_costs`)
gives every stop cost and pair cost the regime's sign (+inf aside), so
each c(y) has it too and "paying" still means one sign.  No end
component needs collapsing: a zero-cost loop that never pays is free,
so from "continue everywhere" (the monotone limit from zero) it is
never left for a costlier stop, and from "stop everywhere" (the maximal
solution, Lemma A.2) a tie never enters it.  The policy is read through
`model._atomic_rows` and `policy_mix`, the gather of a policy built
from choices or the segment sum of any other.  `state_marginal` and
`occupation_measure` give a policy's n-step and discounted state
distributions.

`infinite_optimum` decides the same question for the optimum J* of an N
or P model, on the model's graph alone, with no policy enumerated and
no iterate read (Baier & Katoen 2008, ch. 10).  Its edges are the
pairs' positive transition probabilities; an affine family adds one
pair for its open interior (the support there, and the infimum of its
cost over the interval) and one for each closed endpoint.  In P, J*(x)
is finite iff x can reach, almost surely, the largest set Z that
zero-cost pairs keep closed, using pairs of finite cost (de Alfaro
1997's nested fixed point): on Z, J* = 0, and a stationary strategy that
reaches Z almost surely reaches it in a time with a geometric tail.  In
N, J*(x) = -inf iff x can reach, with positive probability, a state
with a -inf cost, or an end component holding a negative-cost pair:
the largest set W from each of whose states pairs that keep to W reach
a negative pair that keeps to W, so that some strategy pays a negative
cost infinitely often.  Each outer step of a nested fixed point
removes states, so it takes at most n reachability sweeps over the pair
mask, and one to three on the models tried.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extreal import INF
from .model import (
    Policy,
    TotalCostModel,
    _atomic_rows,
    induced_complement,
    induced_kernel,
    policy_mix,
    regime_infinity,
    validate_policy,
)
from .operators import pair_backup


@dataclass(frozen=True)
class EvalResult:
    J: np.ndarray
    divergent: frozenset[int] = frozenset()


def _can_reach(edge: np.ndarray, targets: np.ndarray,
               owner: np.ndarray | None = None) -> np.ndarray:
    """Mask of the states that reach `targets` in >= 0 steps.

    ``edge`` is the boolean kernel mask P > 0, or, given ``owner``, a
    mask with one row per pair, which state owner[r] may take.  A
    backward frontier search over its columns: each state joins the
    frontier once, so the cost is one pass over the mask.
    """
    reached = targets.copy()
    frontier = targets.nonzero()[0]
    while frontier.size:
        hit = edge[:, frontier].any(axis=1)
        if owner is not None:
            hit = _owned(owner, hit, reached.size)
        new = hit & ~reached
        reached |= new
        frontier = new.nonzero()[0]
    return reached


def _price(regime: str, P: np.ndarray, g: np.ndarray, A: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Exact total cost of the chain (P, g) and the mask of its infinite
    states, by one rule (module docstring): a state is infinite when it
    can reach an infinite cost or, undiscounted, a state that cannot
    reach the free set, which costs 0; +inf absorbs -inf, and a linear
    solve prices the rest.  P may be substochastic and carry the
    discount; A = I - P is the caller's."""
    paid = np.isinf(g)
    if regime == "D" and not np.count_nonzero(paid):
        return np.linalg.solve(A, g), paid
    edge = P > 0.0
    free, infinite = np.zeros(g.size, dtype=bool), paid
    if regime != "D":
        free = ~_can_reach(edge, g != 0.0)
        infinite = paid | ~_can_reach(edge, free)
    divergent = _can_reach(edge, infinite)
    J = np.full(g.size, regime_infinity(regime))
    if np.count_nonzero(paid):
        for value in (-INF, INF):  # in this order: +inf absorbs -inf
            J[_can_reach(edge, g == value)] = value
    J[free] = 0.0
    rest = np.flatnonzero(~free & ~divergent)
    if rest.size:
        J[rest] = np.linalg.solve(A[np.ix_(rest, rest)], g[rest])
    return J, divergent


def _graph(model: TotalCostModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(support mask, cost, owning state) of every pair of the model's
    graph: the atomic pairs, then per affine family its open interior,
    with the infimum of its cost over the interval, and each closed
    endpoint (module docstring)."""
    supp, cost, owner = model.pair_probs > 0.0, model.pair_costs, model.pair_state
    extra = []
    for x, families in enumerate(model.families):
        for f in families:
            extra.append((f.probs_at(0.5 * (f.lo + f.hi)) > 0.0,
                          min(f.cost_at(f.lo), f.cost_at(f.hi)), x))
            extra += [(f.probs_at(t) > 0.0, f.cost_at(t), x)
                      for t, closed in ((f.lo, f.lo_closed), (f.hi, f.hi_closed)) if closed]
    if extra:
        rows, costs, owners = zip(*extra)
        supp = np.vstack((supp, rows))
        cost = np.append(cost, costs)
        owner = np.append(owner, np.array(owners, dtype=np.intp))
    return supp, cost, owner


def _staying(supp: np.ndarray, owner: np.ndarray, pairs: np.ndarray,
             inside: np.ndarray) -> np.ndarray:
    """The pairs among ``pairs`` that states of ``inside`` own and whose
    support lies in ``inside``."""
    return pairs & inside[owner] & ~supp[:, ~inside].any(axis=1)


def _owned(owner: np.ndarray, pairs: np.ndarray, n: int) -> np.ndarray:
    """Mask of the states that own one of ``pairs``."""
    states = np.zeros(n, dtype=bool)
    states[owner[pairs]] = True
    return states


def infinite_optimum(model: TotalCostModel) -> np.ndarray:
    """Mask of the states where J* is the regime-signed infinity, from
    the model's graph alone (module docstring): none in D.  A model
    caches it (`TotalCostModel.infinite_optimum`)."""
    n = model.num_states
    if model.regime == "D":
        return np.zeros(n, dtype=bool)
    supp, cost, owner = _graph(model)
    usable = cost < INF
    # Each pass of a loop below keeps a subset of the last, so the two
    # are equal when their counts are.
    if model.regime == "P":
        # Z, then the states that reach Z almost surely by pairs that
        # stay among them
        zero, free = np.ones(n, dtype=bool), usable & (cost == 0.0)
        while True:
            held = _owned(owner, _staying(supp, owner, free, zero), n)
            if np.count_nonzero(held) == np.count_nonzero(zero):
                break
            zero = held
        sure, kept = np.ones(n, dtype=bool), usable
        while True:
            reach = _can_reach(supp[kept], zero, owner[kept])
            if np.count_nonzero(reach) == np.count_nonzero(sure):
                return ~sure
            sure = reach
            kept = _staying(supp, owner, usable, sure)
    # W: the states that reach a negative pair by pairs that stay in W;
    # then the states that reach W or a -inf cost
    recur, kept, negative = np.ones(n, dtype=bool), usable, usable & (cost < 0.0)
    while True:
        paying = kept & negative
        if not np.count_nonzero(paying):
            recur = np.zeros(n, dtype=bool)
            break
        reach = _can_reach(supp[kept], _owned(owner, paying, n), owner[kept])
        if np.count_nonzero(reach) == np.count_nonzero(recur):
            break
        recur = reach
        kept = _staying(supp, owner, usable, recur)
    targets = recur | _owned(owner, cost == -INF, n)
    if not np.count_nonzero(targets):
        return targets
    return _can_reach(supp[usable], targets, owner[usable])


def evaluate_policy(model: TotalCostModel, policy: Policy) -> EvalResult:
    """Exact total cost of a stationary policy: its chain priced by
    `_price`, one linear solve in a valid discounted model."""
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


def _stop_rule_iteration(model: TotalCostModel, policy: Policy, stop: np.ndarray,
                         b: np.ndarray, cont: np.ndarray
                         ) -> tuple[np.ndarray, int, np.ndarray]:
    """Policy iteration over the pair-level stop rules of a stopping problem.

    ``stop`` is each pair's stop cost J(x); ``b`` marks the pairs that may
    continue, and ``cont`` (within ``b``) those that do in the start rule.
    Each rule is priced on the states plus a cost-free terminal (module
    docstring); a continuing pair is then worth its continuation value G,
    a stopping pair J(x).  A pair switches only on a gain beyond
    1e-12 (1 + |J(x)|), so that round-off cannot make the rules cycle.
    Returns the final rule's pair values, the number of rules priced, and
    the pairs priced at +-inf.
    """
    n = model.num_states
    slack = np.where(np.isfinite(stop), 1e-12 * (1.0 + np.abs(stop)), 0.0)
    P = np.zeros((n + 1, n + 1))  # row n, the terminal's, stays zero
    seen: set[bytes] = set()
    while True:
        seen.add(cont.tobytes())
        rows, c = _atomic_rows(model, policy, np.where(cont, model.pair_costs, stop), cont)
        P[:n, :n] = model.discount * rows
        P[:n, n] = policy_mix(model, policy, np.where(cont, 0.0, 1.0))
        W, _ = _price(model.regime, P, np.append(c, 0.0), np.eye(n + 1) - P)
        G = pair_backup(model, W[:n])
        V = np.where(cont, G, stop)
        nxt = (cont | (b & (G < stop - slack))) & ~(stop < G - slack)
        if np.array_equal(nxt, cont):
            return V, len(seen), np.isinf(V)
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

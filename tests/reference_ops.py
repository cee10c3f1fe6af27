"""Loop-based reference implementations of the pair-axis operators.

These are the per-state loop versions of `h_backup`, `m_minimize`,
`bellman_T`, `bellman_T_mu`, `greedy_select`, the F_theta apply and the
stopping continuation values, kept verbatim
from before the operators were vectorized, and the stopping backup T_o
(`t_o_apply`), which only tests read.  They call only the scalar
extended-real helpers, so the property tests in `test_kernels.py` check
the vectorized kernels against an independent implementation.  An affine
family's arm is evaluated here too, pointwise (`family_value`), and its
infimum taken over the closed endpoints, a grid of interior parameters
and the limits at the open ends (`family_infimum`), not by the library's
closed form.

The second part is the fixed-policy chain classification that
`totaldp.chains` used before it decided infinities by reachability
alone: Tarjan's strongly connected components, the closed (recurrent)
classes they form, a state diverging iff it reaches a costly recurrent
state or an infinite one-stage cost, and the linear solve on the
transient finite states.  `evaluate_policy` here is kept verbatim, so
`test_chains.py` checks the reachability rule against an independent
one.

The third part holds the sweep oracles of the stopping problem, kept
verbatim from before it was solved by stop-rule policy iteration: the
monotone-limit loop (with its options and cap error) that iterated
F_theta or the stopping backup from zero, sending the coordinates that
value iteration's window rule flags to infinity, and the downward
iteration of the constraint map that found the program's maximal
solution.  `test_stop_rules.py` checks the policy iteration against
them.

The fourth part holds two renderings kept verbatim from before they were
sped up: the per-state f-string policy descriptor, which choice-backed
policies now read from the model's pair-label table, and the model
document that `modelio.render_model` used to hand to
`json.dumps(indent=2)`, which it now writes directly.
`test_kernels.py` checks both against them.

The fifth part holds the two kernel forms that the mixed iteration's
fast paths replaced, kept verbatim: the F_theta floor of a choice-backed
policy that took min{J, Q} over every pair before reading the chosen
ones, and the Q backup that scanned the costs and the continuation
values for infinities on every call.  `test_kernels.py` checks the fast
paths against them bit for bit.

The sixth part holds the reads of an atomic policy that every
fixed-policy operator took before a policy built from choices was read
by gathering at its chosen pairs: the segment sum of a pair-axis vector
with the policy's one-hot pair weights (in T_mu, the stop-rule engine's
continuation and the stopping continuation values), and the induced
chain's rows and costs as segment sums over one-hot products, kept
verbatim.  `test_kernels.py` checks the gathered reads against them.

The seventh part holds the masked forms of the two residual kernels,
kept verbatim from before they took a finite fast path: the sup-norm
distance and the ordering margin over `xdiff`, which subtracts only
unequal entries.  `test_extreal.py` checks `sup_dist` and `margin_leq`
against them bit for bit.

The eighth part holds the stop-rule engine as it ran before each rule
was priced on the states: policy iteration over the same pair-level
stop rules, each priced as a chain on the m pairs plus a cost-free
terminal, whose continuing pairs move by the m x m pair kernel (the
product of every pair's row with the policy's one-hot pair weights).
It is kept verbatim but for its policy reads (that product kernel and
the segment-sum mix of the sixth part), and it still prices with
`chains._price`, so `test_stop_rules.py` checks the library's reduction
from pairs to states against it on problems too large to enumerate.

The ninth part is an oracle for J* itself: the least value, state by
state, over every deterministic stationary policy, each evaluated by
`evaluate_policy` of the second part.  Finite D, N and P models have an
optimal policy of that kind (Puterman 1994, sections 6-7; Strauch 1966;
Blackwell 1967).  It reads no solver and no chain routine of the
library, so `test_oracle.py` checks the solvers against it.

The tenth part is the row-by-row form of the two residual kernels on a
(k, n) stack: one 1-D `sup_dist` or `margin_leq` call per row, as the
trace recorder made them before it filled its ground-truth columns in
blocks.  `test_extreal.py` checks the stacked calls against it bit for
bit.

The eleventh part is `validate_model` as it ran before it read the
atomic rows in one pass over the pair arrays: three or four numpy calls
per control, kept verbatim.  `test_model.py` checks that the library
emits the same messages in the same order on drawn models.

The twelfth part is `solvers.cone_multiplier` as a loop over the states
in order, kept verbatim from before it became a whole-vector numpy form.
`test_solvers.py` checks the numpy form against it on drawn edge cases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from totaldp.chains import EvalResult, _price
from totaldp.extreal import (
    INF,
    expect,
    expect_rows,
    expect_segments,
    margin_leq,
    sup_dist,
    xadd,
    xadd_vec,
    xdiff,
    xmul,
)
from totaldp.ftheta import FixedPointCertificate, Theta
from totaldp.modelio import FORMAT_VERSION, encode_vector, encode_xreal
from totaldp.model import (
    PROB_TOL,
    REGIMES,
    AffineFamily,
    AtomicMix,
    FamilyChoice,
    Policy,
    TotalCostModel,
    _point_mass,
    induced_complement,
    induced_kernel,
    validate_policy,
)
from totaldp.operators import pair_backup
from totaldp.solvers import DivergenceRule
from totaldp.stopping import StoppingProblem


def h_backup(model: TotalCostModel, J: np.ndarray) -> np.ndarray:
    """Q-factor backup over all atomic pairs: g + alpha * E[J]."""
    J = np.asarray(J, dtype=float)
    if J.shape != (model.num_states,):
        raise ValueError(f"J has shape {J.shape}, want ({model.num_states},)")
    cont = expect_rows(model.pair_probs, J)
    if model.discount == 0.0:
        cont = np.zeros_like(cont)
    elif model.discount != 1.0:
        cont = cont * model.discount
    g = model.pair_costs
    if np.isinf(g).any() or np.isinf(cont).any():
        return np.array([xadd(gi, ci) for gi, ci in zip(g, cont)])
    return g + cont


def m_minimize(model: TotalCostModel, Q: np.ndarray) -> np.ndarray:
    """Per-state minimum of a Q-vector over atomic controls."""
    if not model.atomic_only:
        raise ValueError("Q-space minimization is defined for atomic-only models")
    Q = np.asarray(Q, dtype=float)
    return np.array([Q[model.pair_state == x].min() for x in range(model.num_states)])


def bellman_T(model: TotalCostModel, J: np.ndarray) -> np.ndarray:
    """Optimal-cost backup over atomic controls and affine families."""
    J = np.asarray(J, dtype=float)
    Q = h_backup(model, J)
    out = np.empty(model.num_states)
    for x in range(model.num_states):
        arms = list(Q[model.pair_state == x])
        for fam in model.families[x]:
            arms.append(family_infimum(model, fam, J))
        out[x] = min(arms)
    return out


def bellman_T_mu(model: TotalCostModel, policy: Policy, J: np.ndarray) -> np.ndarray:
    """Fixed-policy backup; linear in J for atomic mixes, pointwise for
    family parameter choices."""
    J = np.asarray(J, dtype=float)
    out = np.empty(model.num_states)
    for x, a in enumerate(policy.actions):
        if isinstance(a, FamilyChoice):
            out[x] = family_value(model, model.families[x][a.family], a.t, J)
        else:
            vals = np.array([
                xadd(c.cost, xmul(model.discount, expect(c.probs, J)))
                for c in model.controls[x]
            ])
            out[x] = expect(a.weights, vals)
    return out


def family_value(model: TotalCostModel, fam: AffineFamily, t: float,
                 J: np.ndarray) -> float:
    """The family arm at parameter t: c0 + c1 t plus alpha times each
    successor's probability p0 + p1 t times its value, term by term; a
    successor of zero probability adds nothing, whatever its value."""
    total = fam.c0 + fam.c1 * t
    for y, v in enumerate(J.tolist()):
        p = fam.p0[y] + fam.p1[y] * t
        if p != 0.0:
            total = xadd(total, xmul(model.discount, xmul(p, v)))
    return total


def _family_limit(model: TotalCostModel, fam: AffineFamily, end: float,
                  inward: float, J: np.ndarray) -> float:
    """The limit of the arm as t tends to ``end`` from inside the
    interval (``inward`` is +1 at lo, -1 at hi).  A finite successor
    value enters by its probability at the end; an infinite one enters
    whole when its probability is positive just inside the end: positive
    at the end, or rising from there."""
    total = fam.c0 + fam.c1 * end
    for y, v in enumerate(J.tolist()):
        p = fam.p0[y] + fam.p1[y] * end
        if math.isinf(v):
            if p > 0.0 or fam.p1[y] * inward > 0.0:
                total = xadd(total, xmul(model.discount, v))
        elif p != 0.0:
            total = xadd(total, model.discount * p * v)
    return total


FAMILY_GRID = 9  # interior parameters per family


def family_infimum(model: TotalCostModel, fam: AffineFamily, J: np.ndarray) -> float:
    """The infimum of the arm over the family's interval: the least of
    its values at the closed endpoints and at FAMILY_GRID interior
    parameters, and its limits at the open ends.  The arm is affine in t
    on the parameters where no infinite successor is reachable, and the
    regime-signed infinity wherever one is, so these points find it."""
    lo, hi = fam.lo, fam.hi
    ts = [lo + (hi - lo) * k / (FAMILY_GRID + 1) for k in range(1, FAMILY_GRID + 1)]
    values = [family_value(model, fam, t, J) for t in ts]
    for end, closed, inward in ((lo, fam.lo_closed, 1.0), (hi, fam.hi_closed, -1.0)):
        values.append(family_value(model, fam, end, J) if closed
                      else _family_limit(model, fam, end, inward, J))
    return min(values)


def greedy_select(model: TotalCostModel, Q: np.ndarray, epsilon: float = 0.0,
                  tie_break: str = "lowest-index") -> Policy:
    """Deterministic policy with Q(x, mu(x)) <= min_u Q(x, u) + epsilon.

    With epsilon = 0 this is the exact argmin; ties go to the lowest
    control index, as do epsilon-slack choices.
    """
    if tie_break != "lowest-index":
        raise ValueError(f"unsupported tie_break {tie_break!r}")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if not model.atomic_only:
        raise ValueError("greedy selection is defined for atomic-only models")
    Q = np.asarray(Q, dtype=float)
    choices = []
    for x in range(model.num_states):
        qx = Q[model.pair_state == x]
        target = xadd(qx.min(), epsilon)
        ok = np.flatnonzero((qx <= target) | (qx == qx.min()))
        choices.append(int(ok[0]))
    return Policy.deterministic(model, choices)


def _mixed_floor(model: TotalCostModel, policy: Policy, Q: np.ndarray,
                 J: np.ndarray, x: int) -> float:
    """sum_u' mu(u'|x) min{J(x), Q(x, u')} at one state."""
    a = policy.actions[x]
    assert isinstance(a, AtomicMix)
    vals = np.minimum(J[x], Q[model.pair_state == x])
    return expect(a.weights, vals)


def _f_apply(model: TotalCostModel, theta: Theta, Q: np.ndarray,
             J: np.ndarray) -> np.ndarray:
    w = J.astype(float).copy()
    for x in theta.B:
        w[x] = _mixed_floor(model, theta.policy, Q, J, x)
    return _backup_against(model, w)


def _backup_against(model: TotalCostModel, w: np.ndarray) -> np.ndarray:
    cont = expect_rows(model.pair_probs, w)
    if model.discount == 0.0:
        cont = np.zeros_like(cont)
    elif model.discount != 1.0:
        cont = cont * model.discount
    g = model.pair_costs
    if np.isinf(g).any() or np.isinf(cont).any():
        return np.array([xadd(a, b) for a, b in zip(g, cont)])
    return g + cont


def _continuation_values(problem: StoppingProblem, V: np.ndarray) -> np.ndarray:
    """G_V over all pairs: g + alpha * E[per-state mix of V at the next
    pair], with V read as J on stop-only pairs."""
    m = problem.model
    w = np.empty(m.num_states)
    for xp in range(m.num_states):
        a = problem.theta.policy.actions[xp]
        w[xp] = expect(a.weights, V[m.pair_state == xp])
    cont = expect_rows(m.pair_probs, w)
    if m.discount == 0.0:
        cont = np.zeros_like(cont)
    elif m.discount != 1.0:
        cont = cont * m.discount
    g = m.pair_costs
    if np.isinf(g).any() or np.isinf(cont).any():
        return np.array([xadd(a_, b_) for a_, b_ in zip(g, cont)])
    return g + cont


def t_o_apply(problem: StoppingProblem, V: np.ndarray) -> np.ndarray:
    """Stopping-problem optimal backup on pair values: pairs whose state
    lies in B take min{J(x), G_V(x, u)}, the others are pinned at J(x)."""
    m = problem.model
    stop = problem.J[m.pair_state]
    b = np.isin(m.pair_state, sorted(problem.theta.B))
    G = _continuation_values(problem, np.asarray(V, dtype=float))
    return np.where(b, np.minimum(stop, G), stop)


# ---------------------------------------------------------------------------
# Fixed-policy chain classification by recurrent classes

EDGE_EPS = 0.0  # edges are strict-positive transition probabilities


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


def _divergent_states(regime: str, P: np.ndarray, g: np.ndarray,
                      rec: set[int]) -> set[int]:
    """States whose total policy cost is the regime-signed infinity, in N
    and P, given the recurrent states: those that can reach a recurrent
    state with nonzero expected one-stage cost, or any state with
    infinite one-stage cost."""
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


# ---------------------------------------------------------------------------
# Sweep oracles of the stopping problem
#
# `_monotone_limit` returns the library's FixedPointCertificate; its last
# field, `divergent`, holds the coordinates the sweep promoted.


class FixedPointError(RuntimeError):
    """Iteration cap reached; carries the last iterate and its bound side."""

    def __init__(self, message: str, last: np.ndarray, bound: str):
        super().__init__(message)
        self.last = last
        self.bound = bound


@dataclass(frozen=True)
class FixedPointOptions:
    tol: float = 1e-10
    max_iter: int = 200_000


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


def downward_W(model: TotalCostModel, theta: Theta, J: np.ndarray,
               tol: float = 1e-13, max_iter: int = 200_000) -> np.ndarray:
    """The constraint program's maximal W (B in sorted order) for a
    deterministic policy in P: the capped constraint map iterated down
    from W = J."""
    J = np.asarray(J, dtype=float)
    B = sorted(theta.B)
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
            raise FixedPointError(f"constraint iteration did not stabilize "
                                  f"in {max_iter} steps", last=W, bound="upper")
    else:
        W = np.zeros(0)
    return W


def descriptor(policy: Policy) -> str:
    """The policy as "x:i" per state ("x:t=..." for a family parameter,
    "x:mix" for a randomized mix), comma-separated."""
    parts = []
    for x, a in enumerate(policy.actions):
        if isinstance(a, FamilyChoice):
            parts.append(f"{x}:t={a.t:g}")
        elif _point_mass(a):
            parts.append(f"{x}:{int(np.argmax(a.weights))}")
        else:
            parts.append(f"{x}:mix")
    return ",".join(parts)


def model_document(model: TotalCostModel, ground_truth: tuple | None = None) -> dict:
    """The model file's document; its text is json.dumps(doc, indent=2,
    allow_nan=False)."""
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "regime": model.regime,
        "discount": model.discount,
        "states": list(model.state_names),
    }
    if model.cost_bound is not None:
        doc["cost_bound"] = model.cost_bound
    controls = []
    for x in range(model.num_states):
        entry: dict = {
            "state": model.state_names[x],
            "atomic": [
                {
                    "id": c.name,
                    "cost": encode_xreal(c.cost),
                    "transitions": [
                        {"state": model.state_names[y], "prob": float(p)}
                        for y, p in enumerate(c.probs) if p != 0.0
                    ],
                }
                for c in model.controls[x]
            ],
        }
        if model.families[x]:
            entry["affine_families"] = [
                {
                    "id": f.name,
                    "lo": f.lo, "hi": f.hi,
                    "lo_closed": f.lo_closed, "hi_closed": f.hi_closed,
                    "cost": [f.c0, f.c1],
                    "transitions": [
                        {"state": model.state_names[y],
                         "p0": float(f.p0[y]), "p1": float(f.p1[y])}
                        for y in range(model.num_states)
                        if f.p0[y] != 0.0 or f.p1[y] != 0.0
                    ],
                }
                for f in model.families[x]
            ]
        controls.append(entry)
    doc["controls"] = controls
    if ground_truth is not None:
        Jstar, Qstar = ground_truth
        gt: dict = {"Jstar": encode_vector(Jstar)}
        if Qstar is not None:
            gt["Qstar"] = encode_vector(Qstar)
        doc["ground_truth"] = gt
    return doc


def f_floor_min_then_gather(model: TotalCostModel, theta: Theta, Q: np.ndarray,
                            J: np.ndarray) -> np.ndarray:
    """The F_theta floor of a choice-backed policy: min{J, Q} over every
    pair, then read at the chosen pairs of B (J off B)."""
    V = np.minimum(J[model.pair_state], Q)
    chosen = theta.policy.chosen_pairs
    B = theta.B_index
    if B.size == J.size:
        return V[chosen]
    w = J.copy()
    w[B] = V[chosen[B]]
    return w


def pair_backup_scanned(model: TotalCostModel, w: np.ndarray) -> np.ndarray:
    """g + alpha * E[w] over all atomic pairs, for any state vector w."""
    cont = expect_rows(model.pair_probs, w)
    if model.discount == 0.0:
        cont = np.zeros_like(cont)
    elif model.discount != 1.0:
        cont = cont * model.discount
    g = model.pair_costs
    if np.isinf(g).any() or np.isinf(cont).any():
        return xadd_vec(g, cont)
    return g + cont


# ---------------------------------------------------------------------------
# Segment-sum reads of an atomic policy


def segment_mix(model: TotalCostModel, policy: Policy, V: np.ndarray) -> np.ndarray:
    """Per-state mix of a pair-axis vector under an atomic policy, as the
    weighted segment sum over its pair weights."""
    return expect_segments(policy.pair_weights, V, model.pair_starts)


def bellman_T_mu_segments(model: TotalCostModel, policy: Policy,
                          J: np.ndarray) -> np.ndarray:
    """T_mu J of an atomic policy: the policy's mix of H(J)."""
    return segment_mix(model, policy, pair_backup(model, np.asarray(J, dtype=float)))


def continuation_segments(problem: StoppingProblem, V: np.ndarray) -> np.ndarray:
    """G_V over all pairs: g + alpha * E[per-state mix of V at the next
    pair]."""
    m = problem.model
    return pair_backup(m, segment_mix(m, problem.theta.policy, V))


def atomic_rows_segments(model: TotalCostModel, policy: Policy
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Kernel rows and expected one-stage costs of an atomic policy, each
    a segment sum over the pair axis."""
    n = model.num_states
    w = policy.pair_weights
    P = np.zeros((n, n))
    g = np.zeros(n)
    live = model.pair_counts() > 0
    if w.size:
        starts = model.pair_starts[live]
        P[live] = np.add.reduceat(w[:, None] * model.pair_probs, starts)
        g[live] = expect_segments(w, model.pair_costs, starts)
    return P, g


# ---------------------------------------------------------------------------
# Masked residual kernels


def sup_dist_masked(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm distance treating equal infinities as coincident."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.abs(xdiff(a, b)).max())


def margin_masked(a, b) -> float:
    """max over entries of a - b, 0 when equal (including infinities)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = xdiff(a, b)
    return float(diff.max()) if diff.size else 0.0


# ---------------------------------------------------------------------------
# The stop-rule engine over pairs


def pair_kernel_one_hot(model: TotalCostModel, policy: Policy) -> np.ndarray:
    """Continue kernel over pairs as the product of every pair's row with
    the policy's weight of each target pair (one-hot for a choice-backed
    policy)."""
    return model.pair_probs[:, model.pair_state] * policy.pair_weights


def stop_rule_iteration_pairs(model: TotalCostModel, policy: Policy, stop: np.ndarray,
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
    K = model.discount * pair_kernel_one_hot(model, policy)
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
        G = pair_backup(model, segment_mix(model, policy, V))
        nxt = (cont | (b & (G < stop - slack))) & ~(stop < G - slack)
        if np.array_equal(nxt, cont):
            return V, len(seen), divergent
        if nxt.tobytes() in seen:
            raise RuntimeError("stop-rule iteration returned to an earlier rule")
        cont = nxt


# ---------------------------------------------------------------------------
# J* by policy enumeration


def optimal_cost(model: TotalCostModel) -> np.ndarray:
    """J* of a small atomic model: the minimum, state by state, of the
    exact cost (`evaluate_policy`) of every deterministic stationary
    policy, of which there are the product of the control counts.  Every
    cost in P is nonnegative and every cost in N nonpositive, so the
    linear solve's round-off past zero (-1e-16 where J* = 0) is cut off."""
    J = np.full(model.num_states, INF)
    for choices in itertools.product(*(range(len(c)) for c in model.controls)):
        J = np.minimum(J, evaluate_policy(model, Policy.deterministic(model, choices)).J)
    if model.regime == "P":
        return np.maximum(J, 0.0)
    if model.regime == "N":
        return np.minimum(J, 0.0)
    return J


# ---------------------------------------------------------------------------
# Stacked residual kernels, row by row


def _rows(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a and b broadcast to one (k, n) shape."""
    return np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def sup_dist_rows(a, b) -> np.ndarray:
    """`sup_dist` of each row pair of a (k, n) stack and its partner."""
    return np.array([sup_dist(x, y) for x, y in zip(*_rows(a, b))], dtype=float)


def margin_leq_rows(a, b) -> np.ndarray:
    """`margin_leq` of each row pair of a (k, n) stack and its partner."""
    return np.array([margin_leq(x, y) for x, y in zip(*_rows(a, b))], dtype=float)


# ---------------------------------------------------------------------------
# Model validation, control by control


def validate_model_per_row(model: TotalCostModel) -> list[str]:
    """Check every model invariant; returns [] when the model is valid."""
    bad: list[str] = []
    n = model.num_states
    if model.regime not in REGIMES:
        bad.append(f"regime must be one of {REGIMES}, got {model.regime!r}")
        return bad
    if model.regime == "D":
        if not (0.0 <= model.discount < 1.0):
            bad.append(f"regime D requires discount in [0, 1), got {model.discount}")
    else:
        if model.discount != 1.0:
            bad.append(f"regime {model.regime} requires discount 1, got {model.discount}")

    def check_cost(value: float, where: str) -> None:
        if math.isnan(value):
            bad.append(f"{where}: cost is NaN")
        elif model.regime == "D":
            if not math.isfinite(value):
                bad.append(f"regime D requires finite costs: {where} = {value}")
            elif model.cost_bound is not None and abs(value) > model.cost_bound + PROB_TOL:
                bad.append(f"regime D cost bound {model.cost_bound} exceeded: {where} = {value}")
        elif model.regime == "N" and value > 0.0:
            bad.append(f"regime N requires g <= 0: {where} = {value}")
        elif model.regime == "P" and value < 0.0:
            bad.append(f"regime P requires g >= 0: {where} = {value}")

    for x in range(n):
        if not model.controls[x] and not model.families[x]:
            bad.append(f"state {x} has no atomic control and no affine family")
        for i, c in enumerate(model.controls[x]):
            where = f"state {x} control {c.name!r}"
            if c.probs.shape != (n,):
                bad.append(f"{where}: transition row has shape {c.probs.shape}, want ({n},)")
                continue
            if (c.probs < -PROB_TOL).any():
                bad.append(f"{where}: negative transition probability")
            total = float(c.probs.sum())
            if not abs(total - 1.0) <= PROB_TOL:  # NaN entries make the sum NaN
                bad.append(f"{where}: distribution sum {total!r} != 1")
            check_cost(c.cost, where)
        for j, f in enumerate(model.families[x]):
            where = f"state {x} family {j}"
            if not (0.0 <= f.lo < f.hi <= 1.0):
                bad.append(f"{where}: interval [{f.lo}, {f.hi}] not inside [0, 1] or empty")
                continue
            if f.p0.shape != (n,) or f.p1.shape != (n,):
                bad.append(f"{where}: coefficient rows must have shape ({n},)")
                continue
            if not abs(float(f.p0.sum()) - 1.0) <= PROB_TOL:
                bad.append(f"{where}: p0 sums to {float(f.p0.sum())!r}, want 1")
            if not abs(float(f.p1.sum())) <= PROB_TOL:
                bad.append(f"{where}: p1 sums to {float(f.p1.sum())!r}, want 0")
            for t in (f.lo, f.hi):
                probs = f.probs_at(t)
                if (probs < -PROB_TOL).any() or (probs > 1.0 + PROB_TOL).any():
                    bad.append(f"{where}: probabilities leave [0, 1] at t = {t}")
                check_cost(f.cost_at(t), f"{where} at t = {t}")
    return bad


# ---------------------------------------------------------------------------
# The cone multiplier, state by state


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

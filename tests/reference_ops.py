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
from before it was solved by stop-rule policy iteration: the
monotone-limit loop (with its options and cap error) that iterates
F_theta or the stopping backup from zero, and the downward iteration of
the constraint map that found the program's maximal solution.
`test_stop_rules.py` checks the policy iteration against them.  The
loop decides no infinity: its caller hands it the enumerated oracle's
own answer, whose infinities it pins from the start.

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
library, so `test_oracle.py` checks the solvers, and the graph pass that
decides J*'s infinities, against it.  `exact_optimal_cost` prices the
same policies in rationals, and `exact_optimal_q` backs its J* up once
to Q* = H(J*), also in rationals.

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

The thirteenth part holds the rows of value iteration, of mixed
iteration (finite nk), of policy iteration and of optimistic policy
iteration as short loops over the library's public checked entries:
`bellman_T`, `sup_dist` and the model's graph infinities
(`TotalCostModel.infinite_optimum`), pinned from the first row unless
the start bounds J*;
`greedy_select`, `f_theta_power`, `m_minimize` and `sup_dist`; the
library's `evaluate_policy`, then `bellman_T`, `bellman_T_mu` and
`h_backup` + `greedy_select`, each of its own backup; nk `bellman_T_mu`
calls, `h_backup`, `greedy_select` with ``keep``, `m_minimize` and
`sup_dist`.  Each entry checks its own inputs for infinities and NaN,
as every solver row did before the solvers decided finiteness once per
solve and carried it in their residuals, and before policy iteration
read T, T_mu and its greedy policy off one backup.  `test_solvers.py`
checks the solvers' traces against them bit for bit.

The fourteenth part holds the model-file reader and the trace CSV writer
as they ran before they worked on whole arrays: `parse_model`, which
decoded each transition entry into its control's row as it walked the
document and packed the model from `AtomicControl`s, and `trace_to_csv`,
which encoded every cell of the trace by its field's codec, one value
at a time, and each row's ``extra`` by a fresh `json.JSONEncoder.encode`
call.  The parser is kept verbatim, with its helpers.  The writer reads
the trace's rows as `TraceRow`s and keeps its own list of the header and
row fields and its own codecs, so it shares nothing with the library's
file layer but `encode_xreal` and `encode_vector`.  `test_modelio.py`
checks the library's one-pass reader and column-wise writer against them
on drawn documents and traces.

The fifteenth part is `verify_certificates` as it ran before a trace
held its rows as columns: a walk over the trace's `TraceRow`s, kept
verbatim.  `test_trace_pins.py` checks that the library's replay over
the columns gives the same report, margins bit for bit, on every pinned
run and after a round trip through each file layout.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from totaldp import chains, ftheta, operators
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
from totaldp.modelio import (
    FORMAT_VERSION,
    ModelFileError,
    decode_vector,
    decode_xreal,
    encode_vector,
    encode_xreal,
)
from totaldp.model import (
    PROB_TOL,
    REGIMES,
    AffineFamily,
    AtomicControl,
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
from totaldp.solvers import (
    CertReport,
    CheckResult,
    IterationTrace,
    _cone_witness,
    cone_multiplier,
)
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
    controls = model.controls  # a view the model rebuilds on each read
    for x, a in enumerate(policy.actions):
        if isinstance(a, FamilyChoice):
            out[x] = family_value(model, model.families[x][a.family], a.t, J)
        else:
            vals = np.array([
                xadd(c.cost, xmul(model.discount, expect(c.probs, J)))
                for c in controls[x]
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
                    opts: FixedPointOptions, limit: np.ndarray
                    ) -> tuple[np.ndarray, FixedPointCertificate]:
    """Iterate `step` from the zero vector to its limit, with the
    infinite entries of ``limit`` (the caller's oracle for it) pinned in
    every iterate.

    In D the iteration stops when the contraction bound
    alpha * r / (1 - alpha) on the remaining error drops below tol.  In N
    and P it runs monotonically (down for N, up for P) until the residual
    passes tol.
    """
    pins = np.isinf(limit)
    X = np.where(pins, limit, 0.0)
    bound = "upper" if regime == "N" else "lower"
    for k in range(1, opts.max_iter + 1):
        nxt = step(X)
        nxt[pins] = limit[pins]
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
                frozenset(np.flatnonzero(pins).tolist()))
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
    controls, stored = [], model.controls
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
                for c in stored[x]
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


def _exact_solve(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """x with A x = b, by Gaussian elimination in exact rationals; A is
    square and nonsingular."""
    n = len(b)
    rows = [A[i][:] + [b[i]] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        for r in range(col + 1, n):
            factor = rows[r][col] / head[col]
            if factor:
                rows[r] = [a - factor * h for a, h in zip(rows[r], head)]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum(rows[i][j] * x[j] for j in range(i + 1, n))) / rows[i][i]
    return x


def exact_policy_cost(model: TotalCostModel, choices) -> list:
    """The cost of the deterministic policy that takes control choices[x]
    at state x, with no round-off: every float of the model is the
    rational it stores.  In D the entry of state x is a Fraction solving
    (I - alpha P) J = g.  In N and P the divergent states (this file's
    graph classification: those that reach a recurrent state of nonzero
    cost, or an infinite cost) are the regime-signed float infinity, the
    other recurrent states 0, and the transient finite ones solve
    (I - P) J = g on themselves."""
    n = model.num_states
    rows = [int(s) + c for s, c in zip(model.pair_starts.tolist(), choices)]
    P, g = model.pair_probs[rows], model.pair_costs[rows]
    if model.regime == "D":
        alpha = Fraction(model.discount)
        A = [[Fraction(x == y) - alpha * Fraction(P[x, y]) for y in range(n)]
             for x in range(n)]
        return _exact_solve(A, [Fraction(v) for v in g.tolist()])
    rec = recurrent_states(P)
    divergent = _divergent_states(model.regime, P, g, rec)
    sign = 1.0 if model.regime == "P" else -1.0
    J: list = [sign * INF if x in divergent else Fraction(0) for x in range(n)]
    transient = [x for x in range(n) if x not in rec and x not in divergent]
    if transient:
        A = [[Fraction(x == y) - Fraction(P[x, y]) for y in transient] for x in transient]
        for x, v in zip(transient, _exact_solve(A, [Fraction(g[x]) for x in transient])):
            J[x] = v
    return J


def exact_optimal_cost(model: TotalCostModel) -> list:
    """J* of an atomic model of at most 6 states and 3 controls a state,
    with no round-off: the least `exact_policy_cost`, state by state,
    over every deterministic stationary policy (at most 729).  Finite
    entries are Fractions and infinite ones float infinities, which
    compare with them exactly.  It reads the model's arrays and no
    solver, operator or chain routine of the library."""
    counts = model.pair_counts().tolist()
    if model.num_states > 6 or max(counts, default=0) > 3 or not model.atomic_only:
        raise ValueError("exact_optimal_cost takes atomic models of at most 6 states "
                         "and 3 controls a state")
    best: list = [INF] * model.num_states
    for choices in itertools.product(*(range(m) for m in counts)):
        best = [min(b, v) for b, v in zip(best, exact_policy_cost(model, choices))]
    return best


def exact_optimal_q(model: TotalCostModel) -> list:
    """Q* = H(J*) of a model `exact_optimal_cost` takes, with no
    round-off: g + alpha sum_y p(y) J*(y) per pair, in Fractions, with
    0 * inf = 0 (a successor of probability zero adds nothing) and
    inf - inf = +inf.  Finite entries are Fractions and infinite ones
    float infinities."""
    Jstar = exact_optimal_cost(model)
    alpha = Fraction(model.discount)
    Q: list = []
    for g, row in zip(model.pair_costs.tolist(), model.pair_probs.tolist()):
        terms = [(p, v) for p, v in zip(row, Jstar) if p != 0.0]
        infinities = {v for v in [g] + [v for _, v in terms] if v in (INF, -INF)}
        if infinities:
            Q.append(INF if INF in infinities else -INF)
        else:
            Q.append(Fraction(g) + alpha * sum(Fraction(p) * v for p, v in terms))
    return Q


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
    names = model.state_names
    for i, s in enumerate(names):
        if names.count(s) > 1 and s not in names[:i]:
            bad.append(f"state name {s!r} is listed {names.count(s)} times")

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

    controls = model.controls
    for x in range(n):
        if not controls[x] and not model.families[x]:
            bad.append(f"state {x} has no atomic control and no affine family")
        for i, c in enumerate(controls[x]):
            where = f"state {x} control {c.name!r}"
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


# ---------------------------------------------------------------------------
# Solver rows from the public checked entries


def bracket_answer(model: TotalCostModel, J: np.ndarray, TJ: np.ndarray, settled: bool,
                   tol: float) -> tuple[np.ndarray, float] | tuple[None, None] | None:
    """The discounted stop of one row, written out from its statement:
    with d = T(J) - J and c = alpha / (1 - alpha), J* lies between
    T(J) + c min(d) and T(J) + c max(d) (MacQueen 1966; Porteus 1971).
    The answer is the upper end, and its bound the distance between the
    ends plus the rounding allowance rho = (1 + c) gamma_{m+4} G +
    c gamma_16 max|d|, m the most nonzero probabilities of one pair and
    G the largest |g(p)| + alpha sum_y |P(p, y)| |J(y)| over the pairs p,
    both counted here pair by pair.  (U, bound) when the bound is at
    most tol; else (None, None), a stop on the residual, when the row
    is ``settled`` (its residual stop is met) and 3 rho exceeds tol;
    else None."""
    alpha = model.discount
    c = alpha / (1.0 - alpha)
    d = TJ - J
    low, high = float(d.min()), float(d.max())
    upper_minus_lower = (high - low) * c
    if not (upper_minus_lower <= tol or settled):
        return None

    def gamma(m: int) -> float:
        return m * 2.0 ** -53 / (1.0 - m * 2.0 ** -53)

    probs = model.pair_probs.tolist()
    widest = max(sum(1 for p in row if p != 0.0) for row in probs)
    scale = max(abs(g) + alpha * sum(abs(p) * abs(j) for p, j in zip(row, J.tolist()))
                for g, row in zip(model.pair_costs.tolist(), probs))
    rho = (1.0 + c) * gamma(widest + 4) * scale + c * gamma(16) * max(high, -low)
    if upper_minus_lower + rho <= tol:
        return TJ + high * c, upper_minus_lower + rho
    if settled and rho * 3.0 > tol:
        return None, None
    return None


def _bracket_rows(model: TotalCostModel, stop_on_tol: bool, masks=None) -> bool:
    """Whether a run's rows on the finite path stop on `bracket_answer`:
    a discounted model with finite costs, a run that stops on tol, no
    mask schedule."""
    return (model.regime == "D" and model.discount < 1.0 and stop_on_tol
            and bool(np.isfinite(model.pair_costs).all()) and masks is None)


def pinned_states(model: TotalCostModel, J0: np.ndarray) -> np.ndarray:
    """The states an undiscounted run from J0 pins at the regime-signed
    infinity: `TotalCostModel.infinite_optimum`, unless J0 bounds J* (in
    P, J0 >= 0 and T(J0) <= J0; in N, J0 <= 0 and T(J0) >= J0); none
    in D."""
    none = np.zeros(model.num_states, dtype=bool)
    if model.regime == "D":
        return none
    TJ0 = operators.bellman_T(model, J0)
    bounded = ((J0 >= 0.0).all() and (TJ0 <= J0).all() if model.regime == "P"
               else (J0 <= 0.0).all() and (TJ0 >= J0).all())
    return none if bounded else model.infinite_optimum.copy()


def value_iteration_rows(model: TotalCostModel, J0: np.ndarray, max_iter: int,
                         tol: float, stop_on_tol: bool = True
                         ) -> tuple[list[tuple[np.ndarray, float, list[int]]],
                                    tuple[np.ndarray, float] | None]:
    """(J_k, residual, divergent states) of every row of value iteration,
    and the answer (J, error bound) of a run that stops on the bracket:
    J_k = T(J_{k-1}), with the states of `pinned_states` at the
    regime-signed infinity from the first row on, and the residual over
    every state (on a model with affine families, from row 2 on, over
    the states not pinned).  With ``stop_on_tol`` the run stops at the
    first residual <= tol, but a discounted run on an atomic model with finite
    costs stops on `bracket_answer` instead while J_0, ..., J_k are all
    finite (where it stops on the residual after all, there is no
    answer).  On an atomic-only model the pinned states are written into
    the iterate; on a model with affine families the iteration goes on
    over the finite values and each row reports a pinned copy."""
    J = np.array(J0, dtype=float)
    pinned = pinned_states(model, J)
    sign = -1.0 if model.regime == "N" else 1.0
    bracket = (model.atomic_only and bool(np.isfinite(J).all())
               and _bracket_rows(model, stop_on_tol))
    rows = []
    for k in range(1, max_iter + 1):
        nxt = operators.bellman_T(model, J)
        reported = nxt
        if model.atomic_only:
            nxt[pinned] = sign * INF
        elif pinned.any():
            reported = nxt.copy()
            reported[pinned] = sign * INF
        live = ~pinned if k > 1 and not model.atomic_only else slice(None)
        res = sup_dist(nxt[live], J[live])
        rows.append((reported, res, np.flatnonzero(pinned).tolist()))
        bracket = bracket and bool(np.isfinite(nxt).all())
        if bracket:
            answer = bracket_answer(model, J, nxt, res <= tol, tol)
            if answer is not None:
                return rows, None if answer[0] is None else answer
        elif stop_on_tol and res <= tol:
            break
        J = nxt
    return rows, None


def mixed_rows(model: TotalCostModel, config
               ) -> tuple[list[dict], tuple[np.ndarray, np.ndarray, Policy, float] | None]:
    """Every row of mixed iteration with a finite nk, as a dict of J, Q,
    residual, residual_Q, powers and the policy descriptor, and the
    answer (J, Q, policy, error bound) of a run that stops on the bracket: the
    greedy policy of Q (the initial policy at k = 0, if given), B from
    the configured strategy, nk powers of F_theta and J = M(Q), or under
    a mask schedule the masked coordinates of both; J clamped.  The run
    stops once a whole cycle of the schedule has rows within tol; a
    discounted unmasked run with finite costs stops instead on
    `bracket_answer` of J and `bellman_T(J)` while every J and Q so far
    is finite, and answers the upper end, its `h_backup` and the policy
    greedy for that, the row's policy kept on a tie.  The states of
    `pinned_states`, if any, start at the regime-signed infinity, and so
    do the pairs that cost it or step to one of them with positive
    probability."""
    J = np.array(config.J0, dtype=float)
    Q = np.array(config.Q0, dtype=float)
    pinned = pinned_states(model, J)
    if pinned.any():
        infinity = -INF if model.regime == "N" else INF
        J[pinned] = infinity
        Q[[model.pair_costs[r] == infinity or model.pair_probs[r][pinned].any()
           for r in range(model.num_pairs())]] = infinity
    policy = config.initial_policy
    masks = config.masks
    cycle = 1 if masks is None else len(masks)
    rows, quiet = [], 0
    bracket = (_bracket_rows(model, config.stop_on_tol, masks)
               and bool(np.isfinite(J).all() and np.isfinite(Q).all()))
    for k in range(config.max_iter):
        if k > 0 or policy is None:
            policy = operators.greedy_select(model, Q, config.epsilon)
        theta = Theta(policy, config.bstrategy.resolve(model, policy, k))
        full, powers = ftheta.f_theta_power(model, theta, Q, J, config.nk_at(k))
        if masks is None:
            Q_next, J_next = full, operators.m_minimize(model, full)
        else:
            pair_mask, state_mask = masks[k % cycle]
            Q_next = np.where(pair_mask, full, Q)
            J_next = np.where(state_mask, operators.m_minimize(model, Q_next), J)
        if config.clamp_hi is not None:
            J_next = np.minimum(J_next, config.clamp_hi)
        if config.clamp_lo is not None:
            J_next = np.maximum(J_next, config.clamp_lo)
        res_J, res_Q = sup_dist(J_next, J), sup_dist(Q_next, Q)
        J, Q = J_next, Q_next
        rows.append({"J": J, "Q": Q, "residual": res_J, "residual_Q": res_Q,
                     "powers": powers, "policy": policy.descriptor()})
        bracket = bracket and bool(np.isfinite(J).all() and np.isfinite(Q).all())
        if bracket:
            answer = bracket_answer(model, J, operators.bellman_T(model, J),
                                    max(res_J, res_Q) <= config.tol, config.tol)
            if answer is None:
                continue
            U, bound = answer
            if U is None:
                break
            Q_U = operators.h_backup(model, U)
            return rows, (U, Q_U, operators.greedy_select(model, Q_U, keep=policy), bound)
        quiet = quiet + 1 if max(res_J, res_Q) <= config.tol else 0
        if quiet >= cycle:
            break
    return rows, None


def policy_iteration_rows(model: TotalCostModel, mu0: Policy, max_iter: int
                          ) -> tuple[list[dict], str, int]:
    """Every row of exact policy iteration without ground truth, as a
    dict of J, residual, policy and improvement_gap, with the run's
    termination and op count.  Row k prices mu by the library's
    `evaluate_policy`, takes T(J) and T_mu(J) each from its own backup,
    and ends the run "stuck" on a gap <= 1e-12 or "cycle" on a policy
    seen before; otherwise the next policy is greedy for a third backup
    `h_backup(J)`."""
    mu, prev = mu0, None
    rows, seen, ops = [], set(), 0
    for _ in range(max_iter):
        J = chains.evaluate_policy(model, mu).J
        gap = sup_dist(operators.bellman_T_mu(model, mu, J), operators.bellman_T(model, J))
        ops += 2
        res = INF if prev is None else sup_dist(J, prev)
        prev = J
        key = mu.descriptor()
        rows.append({"J": J, "residual": res, "policy": key, "improvement_gap": gap})
        if gap <= 1e-12:
            return rows, "stuck", ops
        if key in seen:
            return rows, "cycle", ops
        seen.add(key)
        mu = operators.greedy_select(model, operators.h_backup(model, J))
        ops += 1
    return rows, "cap", ops


def optimistic_rows(model: TotalCostModel, mu0: Policy, J0: np.ndarray, config
                    ) -> tuple[list[dict], str, int, tuple[np.ndarray, float] | None]:
    """Every row of optimistic policy iteration, as a dict of J (the
    greedy value M(Q)), residual, policy, J_eval and J_greedy, with the
    run's termination, op count and the answer (J, error bound) of a run
    that stops on the bracket.  Row k applies `bellman_T_mu` nk times to
    J, backs the result up (`h_backup`), selects greedily with the
    current policy as ``keep``, and takes M(Q) and its distance to the
    last row's; with ``config.stop_on_tol`` the run stops at the first
    residual <= tol.  A discounted run with finite costs stops instead
    on `bracket_answer` of J_eval and J_greedy = T(J_eval) while every
    J_greedy so far is finite."""
    J = np.array(J0, dtype=float)
    mu, prev = mu0, None
    rows, ops = [], 0
    bracket = _bracket_rows(model, config.stop_on_tol)
    for k in range(config.max_iter):
        nk = int(config.nk_at(k))
        for _ in range(nk):
            J = operators.bellman_T_mu(model, mu, J)
        Q = operators.h_backup(model, J)
        ops += nk + 1
        mu = operators.greedy_select(model, Q, keep=mu)
        J_greedy = operators.m_minimize(model, Q)
        res = INF if prev is None else sup_dist(J_greedy, prev)
        prev = J_greedy
        rows.append({"J": J_greedy, "residual": res, "policy": mu.descriptor(),
                     "J_eval": J, "J_greedy": J_greedy})
        bracket = bracket and bool(np.isfinite(J_greedy).all())
        if bracket:
            answer = bracket_answer(model, J, J_greedy, res <= config.tol, config.tol)
            if answer is not None:
                return rows, "converged", ops, None if answer[0] is None else answer
        elif config.stop_on_tol and res <= config.tol:
            return rows, "converged", ops, None
    return rows, "cap", ops, None


# ---------------------------------------------------------------------------
# The per-entry model reader and the per-value trace CSV writer


_TOP_KEYS = {"format_version", "regime", "discount", "states", "controls",
             "cost_bound", "ground_truth"}
_STATE_KEYS = {"state", "atomic", "affine_families"}
_ATOMIC_KEYS = {"id", "cost", "transitions"}
_FAMILY_KEYS = {"id", "lo", "hi", "lo_closed", "hi_closed", "cost", "transitions"}


def _check_keys(obj: dict, allowed: set, where: str, strict: bool) -> None:
    unknown = set(obj) - allowed
    if not unknown:
        return
    msg = f"{where}: unknown field(s) {sorted(unknown)}"
    if strict:
        raise ModelFileError(msg)
    warnings.warn(msg)


def _field(obj, key: str, where: str):
    """obj[key] of a JSON object; a ModelFileError naming ``where`` and
    the key when obj is not an object or lacks the key."""
    if not isinstance(obj, dict):
        raise ModelFileError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ModelFileError(f"{where}: missing field {key!r}")
    return obj[key]


def _objects(value, where: str) -> list:
    """A JSON list of JSON objects."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ModelFileError(f"{where}: expected a list of objects")
    return value


def parse_model(text: str, strict: bool = True
                ) -> tuple[TotalCostModel, tuple | None]:
    """Parse model JSON; returns the model and any declared optimum.

    Every malformed structure is a ModelFileError that names where it
    is: a missing field, a value of the wrong JSON type, an unknown
    state, a successor listed twice in one transition list, and a
    ground-truth vector whose length is not the model's (n states for
    Jstar, one value per atomic pair for Qstar).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFileError(f"not valid JSON: {e.msg}", e.lineno, e.colno) from e
    if not isinstance(doc, dict):
        raise ModelFileError("top level must be an object")
    _check_keys(doc, _TOP_KEYS, "top level", strict)
    for key in ("format_version", "regime", "discount", "states", "controls"):
        if key not in doc:
            raise ModelFileError(f"missing required field {key!r}")
    if doc["format_version"] != FORMAT_VERSION:
        raise ModelFileError(f"unsupported format_version {doc['format_version']!r}")
    if not isinstance(doc["states"], list):
        raise ModelFileError("states: expected a list")
    names = [str(s) for s in doc["states"]]
    index = {s: i for i, s in enumerate(names)}
    if len(index) != len(names):
        raise ModelFileError("duplicate state names")
    n = len(names)

    def trans_row(entries, key: str, default, where: str) -> np.ndarray:
        """The entries' `key` values at their states; an entry lacking the
        key reads as `default` (None: the key is required).  Each successor
        may be listed at most once."""
        if not isinstance(entries, list):
            raise ModelFileError(f"{where} transitions: expected a list of objects")
        row = np.zeros(n)
        seen = set()
        label = f"{where} {key}"
        for e in entries:
            try:
                s = e["state"]
                # A reference names the state whose "states" entry has the
                # same str(); a string is looked up as it is.
                y = index[s if type(s) is str else str(s)]
                v = e[key] if default is None else e.get(key, default)
            except (KeyError, TypeError):
                raise transition_error(e, key, where) from None
            if y in seen:
                raise ModelFileError(f"{where}: successor {names[y]!r} listed twice "
                                     "in transitions")
            seen.add(y)
            row[y] = decode_xreal(v, label)
        return row

    def transition_error(e, key: str, where: str) -> ModelFileError:
        """What is wrong with a transition entry that `trans_row` could
        not read."""
        if not isinstance(e, dict):
            return ModelFileError(f"{where} transitions: expected a list of objects")
        if "state" not in e:
            return ModelFileError(f"{where} transition: missing field 'state'")
        s = e["state"]
        if str(s) not in index:
            return ModelFileError(f"{where}: unknown state {s!r}")
        return ModelFileError(f"{where} transition to {s!r}: missing field {key!r}")

    controls: list[tuple[AtomicControl, ...]] = []
    families: list[tuple[AffineFamily, ...]] = []
    entries = _objects(doc["controls"], "controls")
    if len(entries) != n:
        raise ModelFileError(f"'controls' lists {len(entries)} states, want {n}")
    for entry in entries:
        _check_keys(entry, _STATE_KEYS, f"state entry {entry.get('state')!r}", strict)
        s = entry.get("state")
        x = index.get(str(s)) if "state" in entry else None
        if x is None:
            raise ModelFileError(f"control entry for unknown state {s!r}")
        where = f"state {names[x]!r}"
        atomics = []
        for a in _objects(entry.get("atomic", []), f"{where} atomic"):
            _check_keys(a, _ATOMIC_KEYS, f"{where} atomic control", strict)
            name = str(a.get("id", f"u{len(atomics)}"))
            at = f"{where} control {name!r}"
            try:
                cost, trans = a["cost"], a["transitions"]
            except KeyError as err:
                raise ModelFileError(f"{at}: missing field {err.args[0]!r}") from None
            atomics.append(AtomicControl(name, decode_xreal(cost, f"{at} cost"),
                                         trans_row(trans, "prob", None, at)))
        fams = []
        for fdoc in _objects(entry.get("affine_families", []), f"{where} affine_families"):
            _check_keys(fdoc, _FAMILY_KEYS, f"{where} affine family", strict)
            at = f"{where} family {str(fdoc.get('id', 'family'))!r}"
            cost = _field(fdoc, "cost", at)
            if not isinstance(cost, list) or len(cost) != 2:
                raise ModelFileError(f"{at}: cost must be a list [c0, c1]")
            c0, c1 = cost
            trans = _field(fdoc, "transitions", at)
            fams.append(AffineFamily(
                lo=decode_xreal(_field(fdoc, "lo", at), f"{at} lo"),
                hi=decode_xreal(_field(fdoc, "hi", at), f"{at} hi"),
                lo_closed=bool(_field(fdoc, "lo_closed", at)),
                hi_closed=bool(_field(fdoc, "hi_closed", at)),
                c0=decode_xreal(c0, f"{at} cost"), c1=decode_xreal(c1, f"{at} cost"),
                p0=trans_row(trans, "p0", 0.0, at),
                p1=trans_row(trans, "p1", 0.0, at),
                name=str(fdoc.get("id", "family"))))
        controls.append(tuple(atomics))
        families.append(tuple(fams))
    model = TotalCostModel(
        regime=str(doc["regime"]),
        discount=decode_xreal(doc["discount"], "discount"),
        controls=tuple(controls),
        families=tuple(families),
        state_names=tuple(names),
        cost_bound=(decode_xreal(doc["cost_bound"], "cost_bound")
                    if "cost_bound" in doc else None),
    )
    gt = None
    if "ground_truth" in doc:
        gdoc = doc["ground_truth"]
        Jstar = decode_vector(_field(gdoc, "Jstar", "ground_truth"), "Jstar")
        _check_keys(gdoc, {"Jstar", "Qstar"}, "ground_truth", strict)
        Qstar = decode_vector(gdoc["Qstar"], "Qstar") if "Qstar" in gdoc else None
        for name, star, want in (("Jstar", Jstar, n), ("Qstar", Qstar, model.num_pairs())):
            if star is not None and star.size != want:
                raise ModelFileError(f"ground_truth {name}: {star.size} values, "
                                     f"the model has {want}")
        gt = (Jstar, Qstar)
    return model, gt


# json.dumps(obj, allow_nan=False), without an encoder built per call.
_json = json.JSONEncoder(allow_nan=False).encode


def _optional(encode):
    return lambda v: None if v is None else encode(v)


def _tree(obj):
    """obj with every float an encoded extended real and every array or
    tuple a list; strings, ints, bools and None as they are."""
    if isinstance(obj, dict):
        return {k: _tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_tree(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return encode_xreal(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


# The header fields and the row fields of a trace file, in file order,
# each with its codec; a row's extra is written as JSON text.
_HEADER_FIELDS = (
    ("algorithm", str), ("regime", str), ("discount", encode_xreal), ("config", _tree),
    ("J0", _optional(encode_vector)), ("Q0", _optional(encode_vector)),
    ("dist0", _optional(encode_xreal)), ("initial_dominance", _optional(bool)),
    ("ground_truth_known", bool), ("model_hash", str), ("op_count", int))
_ROW_FIELDS = (
    ("k", int), ("residual", encode_xreal), ("dist_J", _optional(encode_xreal)),
    ("dist_Q", _optional(encode_xreal)), ("policy", str), ("b_set", str),
    ("upper_margin", _optional(encode_xreal)), ("lower_margin", _optional(encode_xreal)),
    ("q_lower_margin", _optional(encode_xreal)), ("wall_time", encode_xreal),
    ("extra", lambda extra: _json(_tree(extra))))


def trace_to_csv(trace: IterationTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = {name: out(getattr(trace, name)) for name, out in _HEADER_FIELDS}
    writer.writerow(["#header", _json(header)])
    writer.writerow([name for name, _ in _ROW_FIELDS])
    columns = [list(map(out, map(operator.attrgetter(name), trace.rows)))
               for name, out in _ROW_FIELDS]
    # csv writes None as an empty cell and a float by its repr
    writer.writerows(zip(*columns))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# The certificate replay, row by row


def verify_certificates(model: TotalCostModel, trace: IterationTrace,
                        ground_truth: tuple[np.ndarray, np.ndarray | None] | None = None
                        ) -> CertReport:
    """Replay the convergence guarantees recorded in a trace.

    Discounted traces check the geometric rate against the initial
    distance, with 1e-12 of room for round-off; undiscounted ones check
    the envelope sandwich Jstar <= J_k <= T^k(J0) (the lower side only
    under certified initial dominance), with none.  A masked trace skips
    the geometric rate and the upper side of the sandwich: a masked row
    refreshes only the pairs and states its masks set, so J_k may fall
    more slowly than value iteration's T^k(J0), and neither is a
    guarantee of the asynchronous iteration.  With ground truth
    supplied, the initial function is also tested for membership in the
    convergence cone: bounded by a finite multiple of Jstar and zero
    wherever Jstar is zero.  A failed cone check reports margin +inf.
    """
    checks: list[CheckResult] = []
    Jstar = None if ground_truth is None else np.asarray(ground_truth[0], dtype=float)

    if (model.regime == "D" and trace.dist0 is not None
            and not trace.config.get("masks")):
        worst = -INF
        ok = True
        alpha = model.discount
        for row in trace.rows:
            dists = [d for d in (row.dist_J, row.dist_Q) if d is not None]
            if not dists:
                continue
            bound = alpha ** row.k * trace.dist0 + 1e-12
            margin = max(dists) - bound
            worst = max(worst, margin)
            if margin > 0.0:
                ok = False
        checks.append(CheckResult(
            "geometric-rate", ok, worst if worst > -INF else 0.0,
            f"alpha={alpha}, dist0={trace.dist0:g}"))

    if model.regime in ("N", "P"):
        ups = [row.upper_margin for row in trace.rows if row.upper_margin is not None]
        if ups and not trace.config.get("masks"):
            worst = max(ups)
            checks.append(CheckResult(
                "envelope-upper", worst <= 0.0, worst,
                "J_k <= T^k(J0) elementwise"))
        if trace.initial_dominance:
            lows = [row.lower_margin for row in trace.rows
                    if row.lower_margin is not None]
            qlows = [row.q_lower_margin for row in trace.rows
                     if row.q_lower_margin is not None]
            if lows:
                worst = max(lows + qlows)
                checks.append(CheckResult(
                    "dominance-lower", worst <= 0.0, worst,
                    "Jstar <= J_k and Qstar <= Q_k elementwise"))

    if Jstar is not None and trace.J0 is not None and model.regime == "P":
        c = cone_multiplier(trace.J0, Jstar)
        nonneg = bool((trace.J0 >= 0.0).all())
        inside = bool(np.isfinite(c)) and nonneg
        checks.append(CheckResult(
            "cone-membership", inside, c if inside else INF,
            _cone_witness(trace.J0, Jstar, c, nonneg) or f"J0 <= c Jstar with c={c:g}"))
        finite_zero = bool(nonneg and np.isfinite(trace.J0).all()
                           and (trace.J0[Jstar == 0.0] == 0.0).all())
        checks.append(CheckResult(
            "zero-set-membership", finite_zero, 0.0 if finite_zero else INF,
            "J0 finite, nonnegative, and zero on the zero set of Jstar"))
    return CertReport(tuple(checks))

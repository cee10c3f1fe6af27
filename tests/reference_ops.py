"""Loop-based reference implementations of the pair-axis operators.

These are the per-state loop versions of `h_backup`, `m_minimize`,
`bellman_T`, `bellman_T_mu`, `greedy_select`, the F_theta apply (with its
pair-masked variant) and the stopping continuation values, kept verbatim
from before the operators were vectorized.  They call only the scalar
extended-real helpers, so the property tests in `test_kernels.py` check
the vectorized kernels against an independent implementation.
"""

from __future__ import annotations

import numpy as np

from totaldp.extreal import expect, expect_rows, xadd, xmul
from totaldp.ftheta import Theta, ThetaHat, _check_inputs
from totaldp.model import AtomicMix, FamilyChoice, Policy, TotalCostModel
from totaldp.operators import family_infimum, family_pointwise
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
    return np.array([Q[model.pair_slices[x]].min() for x in range(model.num_states)])


def bellman_T(model: TotalCostModel, J: np.ndarray) -> np.ndarray:
    """Optimal-cost backup over atomic controls and affine families."""
    J = np.asarray(J, dtype=float)
    Q = h_backup(model, J)
    out = np.empty(model.num_states)
    for x in range(model.num_states):
        arms = list(Q[model.pair_slices[x]])
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
            out[x] = family_pointwise(model, model.families[x][a.family], a.t, J)
        else:
            vals = np.array([
                xadd(c.cost, xmul(model.discount, expect(c.probs, J)))
                for c in model.controls[x]
            ])
            out[x] = expect(a.weights, vals)
    return out


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
        qx = Q[model.pair_slices[x]]
        target = xadd(qx.min(), epsilon)
        ok = np.flatnonzero((qx <= target) | (qx == qx.min()))
        choices.append(int(ok[0]))
    return Policy.deterministic(model, choices)


def _mixed_floor(model: TotalCostModel, policy: Policy, Q: np.ndarray,
                 J: np.ndarray, x: int) -> float:
    """sum_u' mu(u'|x) min{J(x), Q(x, u')} at one state."""
    a = policy.actions[x]
    assert isinstance(a, AtomicMix)
    vals = np.minimum(J[x], Q[model.pair_slices[x]])
    return expect(a.weights, vals)


def _f_apply(model: TotalCostModel, theta: Theta, Q: np.ndarray,
             J: np.ndarray) -> np.ndarray:
    w = J.astype(float).copy()
    for x in theta.B:
        w[x] = _mixed_floor(model, theta.policy, Q, J, x)
    return _backup_against(model, w)


def f_theta_hat_apply(model: TotalCostModel, theta_hat: ThetaHat, Q: np.ndarray,
                      J: np.ndarray) -> np.ndarray:
    """Pair-masked variant: only pairs in R see min{J, Q}; the rest of a
    B-state's controls keep the stopping value J."""
    _check_inputs(model, theta_hat.policy)
    Q = np.asarray(Q, dtype=float)
    J = np.asarray(J, dtype=float)
    w = J.astype(float).copy()
    for x in theta_hat.B:
        a = theta_hat.policy.actions[x]
        assert isinstance(a, AtomicMix)
        vals = np.array([
            min(J[x], Q[model.pair_index[(x, i)]]) if (x, i) in theta_hat.R else J[x]
            for i in range(len(model.controls[x]))
        ])
        w[x] = expect(a.weights, vals)
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
        w[xp] = expect(a.weights, V[m.pair_slices[xp]])
    cont = expect_rows(m.pair_probs, w)
    if problem.alpha == 0.0:
        cont = np.zeros_like(cont)
    elif problem.alpha != 1.0:
        cont = cont * problem.alpha
    g = m.pair_costs
    if np.isinf(g).any() or np.isinf(cont).any():
        return np.array([xadd(a_, b_) for a_, b_ in zip(g, cont)])
    return g + cont

"""One-stage dynamic programming operators.

Core backups for a total-cost model:

    T(J)(x)      = inf_u  g(x,u) + alpha * E[J(x') | x, u]
    T_mu(J)(x)   = E_mu [ g(x,u) + alpha * E[J(x') | x, u] ]
    H(J)(x,u)    = g(x,u) + alpha * E[J(x') | x, u]          (Q backup)
    M(Q)(x)      = min_u Q(x,u)

Atomic controls are handled on the model's pair axis: every (state,
control) pair in one flat array, state-major, with state x owning the
contiguous segment that starts at `model.pair_starts[x]`.  H is one
row-wise expectation plus the cost vector (`pair_backup`, whose
"g + alpha * E[w]" arithmetic, `model._g_plus`, is the single copy that
the F operators, operator powers, the stopping continuation values and
the constraint-program bound also use, bound once per model); M, T and
greedy selection are segment reductions of H (`np.minimum.reduceat`),
and T_mu is the policy's mix of H (`model.policy_mix`: a gather at the
chosen pairs of a policy built from choices, a segment sum otherwise).
Each reduction takes a finite fast path when its input holds no
infinity and a masked extended-real path otherwise.  A power of n backups (`_backup_power`,
behind `t_mu_power_and_h` and `ftheta.f_theta_power`) takes that
decision once, from its start, runs a policy's gathers and plain
products in one tight loop, and checks its result for the NaN that a
value overflowing part way would leave.  Value iteration, the mixed
loop and optimistic policy iteration decide it once per solve (one scan,
then each row's residual) and call the private kernels behind the
public entries (`_bellman_T`, `_greedy_select`, `_segment_min`) with
it; policy iteration backs up each value once (`h_backup`) and reads T,
T_mu and the greedy policy off that one H.  Each public entry is its
argument checks plus its kernel.

Affine control families keep a scalar per-state path, chosen from the
model (a state with families) or the policy (a family choice at a
state).  They are minimized in closed form; when a successor reachable
by the family carries an infinite value, the closed-form coefficients
are unsound and the evaluation falls back to a pointwise split into
interior and closed-endpoint candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extreal import INF, expect, expect_rows, xadd, xadd_vec, xmul
from .model import (
    AffineFamily,
    FamilyChoice,
    Policy,
    TotalCostModel,
    _built_for,
    _chosen_pairs,
    policy_mix,
)


@dataclass(frozen=True)
class AffineInfimum:
    value: float
    attained: bool
    at: float | None  # minimizer when attained, limit point otherwise


def affine_infimum(a: float, b: float, lo: float, hi: float,
                   lo_closed: bool, hi_closed: bool) -> AffineInfimum:
    """Infimum over t in the interval of t -> a + b*t, extended-real.

    The pointwise map obeys 0 * inf = 0, so at t = 0 an infinite slope
    contributes nothing.  Opposite infinities in (a, b) are rejected;
    they cannot arise from a validated single-regime model.
    """
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError(f"interval [{lo}, {hi}] must be inside [0, 1] and nonempty")
    if np.isinf(a) and np.isinf(b) and (a > 0) != (b > 0):
        raise ValueError("coefficients carry opposite infinities")

    def at(t: float) -> float:
        return xadd(a, xmul(b, t))

    if np.isinf(b):
        # For t > 0 the value is sign(b) * inf; t = 0 is special.
        if b > 0:
            if lo == 0.0 and lo_closed:
                return AffineInfimum(at(0.0), True, 0.0)
            return AffineInfimum(INF, False, None)
        witness = hi if hi_closed else (max(lo, 0.0) + hi) / 2.0
        return AffineInfimum(-INF, True, witness)
    if np.isinf(a):
        # Every point evaluates to a (b finite cannot cancel it).
        witness = lo if lo_closed else (hi if hi_closed else (lo + hi) / 2.0)
        return AffineInfimum(a, True, witness)
    if b > 0.0:
        return AffineInfimum(a + b * lo, lo_closed, lo)
    if b < 0.0:
        return AffineInfimum(a + b * hi, hi_closed, hi)
    witness = lo if lo_closed else (hi if hi_closed else (lo + hi) / 2.0)
    return AffineInfimum(a, True, witness)


def family_pointwise(model: TotalCostModel, fam: AffineFamily,
                     t: float, J: np.ndarray) -> float:
    """Value of the family arm at a fixed parameter t."""
    return xadd(fam.cost_at(t),
                xmul(model.discount, expect(fam.probs_at(t), J)))


def family_infimum(model: TotalCostModel, fam: AffineFamily, J: np.ndarray) -> float:
    """Infimum over the family's interval of the one-stage backup of J."""
    alpha = model.discount
    inf_mask = np.isinf(J)
    if inf_mask.any() and ((fam.p0[inf_mask] != 0.0) | (fam.p1[inf_mask] != 0.0)).any():
        # A successor with infinite J is reachable for some parameter:
        # the affine shortcut is unsound.  Interior parameters assign
        # positive probability to every not-identically-zero successor
        # row, so the interior value is the regime-signed infinity;
        # closed endpoints are evaluated pointwise.
        candidates = [INF if (np.isposinf(J) & ((fam.p0 != 0.0) | (fam.p1 != 0.0))).any()
                      else -INF]
        if fam.lo_closed:
            candidates.append(family_pointwise(model, fam, fam.lo, J))
        if fam.hi_closed:
            candidates.append(family_pointwise(model, fam, fam.hi, J))
        return min(candidates)
    a = xadd(fam.c0, xmul(alpha, expect(fam.p0, J)))
    b = xadd(fam.c1, xmul(alpha, float(fam.p1[np.isfinite(J)] @ J[np.isfinite(J)])
                          if inf_mask.any() else float(fam.p1 @ J)))
    return affine_infimum(a, b, fam.lo, fam.hi, fam.lo_closed, fam.hi_closed).value


def pair_backup(model: TotalCostModel, w: np.ndarray) -> np.ndarray:
    """g + alpha * E[w] over all atomic pairs, for any state vector w."""
    return model._g_plus(expect_rows(model.pair_probs, w))


def _plain_backup(model: TotalCostModel, w: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """`pair_backup` of a w for which `_finite` holds, by the plain
    product P @ w (`np.dot`, as the matrix's own `dot`, into ``out``
    when given), which is `expect_rows`' own path for such a w: the
    same product, bit for bit."""
    return model._g_plus(model.pair_probs.dot(w, out=out))


def _finite(model: TotalCostModel, w: np.ndarray) -> bool:
    """Whether the pair costs are finite (`pair_costs_finite`) and so is
    every entry of w, no infinity and no NaN: then a backup of w may take
    the plain product P @ w, which is `expect_rows`' own path for such a
    w.  One scan, made once per power or once per solve."""
    return model.pair_costs_finite and np.count_nonzero(np.isfinite(w)) == w.size


def _backup_power(model: TotalCostModel, w: np.ndarray, read, n: int,
                  plain: bool, stop: bool = False, out: np.ndarray | None = None,
                  first: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """n backups, each of the state vector that ``read`` takes from the
    last one's pair vector: H_1 = pair_backup(w), H_{i+1} =
    pair_backup(read(H_i)).  Returns the state vector the last backup
    took, H_n and the number of backups, a handed-in first among them.
    With ``stop``, the loop ends when read gives a vector bitwise equal
    to the one the last backup took: every later H would repeat.
    ``read`` is a function of H or, for the read of a policy built from
    choices, a pair (chosen, floor): the gather H[chosen], then
    np.minimum(floor, H[chosen]) unless floor is None.  A pair spares
    its caller building a function per power.  With ``first``, H_1
    made already by the caller, the loop starts from it, and it is
    returned itself when the power stops there.

    The finiteness decision is the caller's, made once: ``plain`` says
    that read only gathers and takes minima (the read of a policy built
    from choices), so a NaN it reads stays in w, and that `_finite`
    holds for the start w.  A power entry scans w for it; the mixed loop
    knows it from the solve's start and its residuals, and passes it
    without a scan.  Then every backup takes the plain product P @ w
    with no scan for infinities (`_plain_backup`).  From a finite w the
    product is `expect_rows`' own fast path; w can hold an infinity
    later only where a value overflowed, and there the plain product
    differs from the masked one only by a NaN (0 * inf, or inf - inf),
    which read carries into every later backup.  So a result without
    NaN is the per-backup result bit for bit, and one with a NaN is
    computed again by the per-backup path, which decides each backup
    from its own input.  A single backup needs no such check: from a
    finite start it is the per-backup one.  The overflow warns on both
    paths, so with RuntimeWarning raised as an error both stop at the
    same place; under a filter that only reports, the plain product
    adds an "invalid value" warning before the rerun.

    On the plain path a pair read runs one tight loop (`_gather_power`);
    a read function, and the per-backup path, run `_read_power`.

    With ``out``, a pair vector of the model's length that neither w nor
    any vector read returns shares memory with, every backup is written
    into it and H_n is ``out`` itself, or ``first`` when the power
    stopped there (``first`` may hold ``out``'s memory): the plain
    product by `np.dot`'s ``out``, scaled and summed in place, the
    per-backup one copied in (the rerun too).  Each read takes its
    vector before the next backup overwrites ``out``, so the floats are
    those of fresh arrays, bit for bit.
    """
    if plain and isinstance(read, tuple):
        x, H, applied = _gather_power(model, w, read, n, stop, out, first)
    else:
        x, H, applied = _read_power(model, w, read, n, plain, stop, out, first)
    if applied > 1 and plain and np.count_nonzero(np.isnan(H)):
        return _read_power(model, w, read, n, False, stop, out, None)
    return x, H, applied


def _gather_power(model: TotalCostModel, w: np.ndarray, read: tuple, n: int, stop: bool,
                  out: np.ndarray | None, first: np.ndarray | None
                  ) -> tuple[np.ndarray, np.ndarray, int]:
    """`_backup_power`'s plain path for a pair read (chosen, floor): per
    power the gather, the floor taken in place on it, the stop test and
    the plain backup (`_plain_backup`'s product and `model._g_plus`), with
    what they read bound once."""
    chosen, floor = read
    dot, g_plus, minimum = model.pair_probs.dot, model._g_plus, np.minimum
    H = g_plus(dot(w, out=out)) if first is None else first
    x, last = w, w.tobytes() if stop else None
    for applied in range(1, n):
        v = H[chosen]
        if floor is not None:
            minimum(floor, v, out=v)
        if stop:
            now = v.tobytes()
            if now == last:
                return x, H, applied
            last = now
        x, H = v, g_plus(dot(v, out=out))
    return x, H, n


def _read_power(model: TotalCostModel, w: np.ndarray, read, n: int, plain: bool,
                stop: bool, out: np.ndarray | None, first: np.ndarray | None
                ) -> tuple[np.ndarray, np.ndarray, int]:
    """`_backup_power` through a read function (a pair read is made one),
    each backup plain (`_plain_backup`) or, off the plain path, a
    `pair_backup` copied into ``out`` when given (`_backup`)."""
    if isinstance(read, tuple):
        chosen, floor = read
        read = ((lambda H: H[chosen]) if floor is None
                else (lambda H: np.minimum(floor, H[chosen])))
    backup = _plain_backup if plain else _backup
    H = backup(model, w, out) if first is None else first
    x, applied, last = w, 1, w.tobytes() if stop else None
    while applied < n:
        v = read(H)
        if stop:
            now = v.tobytes()
            if now == last:
                break
            last = now
        x, H = v, backup(model, v, out)
        applied += 1
    return x, H, applied


def _backup(model: TotalCostModel, w: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """A backup of `_backup_power` off the plain path: `pair_backup`,
    copied into ``out`` when given."""
    H = pair_backup(model, w)
    if out is None:
        return H
    out[...] = H
    return out


def _state_vector(model: TotalCostModel, J) -> np.ndarray:
    """J as a float array, refused unless it has one entry per state."""
    J = np.asarray(J, dtype=float)
    if J.shape != (model.num_states,):
        raise ValueError(f"J has shape {J.shape}, want ({model.num_states},)")
    return J


def h_backup(model: TotalCostModel, J: np.ndarray) -> np.ndarray:
    """Q-factor backup over all atomic pairs: g + alpha * E[J]."""
    return pair_backup(model, _state_vector(model, J))


def _segment_min(model: TotalCostModel, Q: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Per-state minimum over the atomic pairs; +inf at a state without
    any.  Written into ``out``, a state vector, when given."""
    if model.atomic_only:
        return np.minimum.reduceat(Q, model.pair_starts, out=out)
    if out is None:
        out = np.empty(model.num_states)
    out.fill(INF)
    live = model.pair_counts() > 0
    if live.any():
        out[live] = np.minimum.reduceat(Q, model.pair_starts[live])
    return out


def m_minimize(model: TotalCostModel, Q: np.ndarray) -> np.ndarray:
    """Per-state minimum of a Q-vector over atomic controls."""
    if not model.atomic_only:
        raise ValueError("Q-space minimization is defined for atomic-only models")
    return _segment_min(model, np.asarray(Q, dtype=float))


def bellman_T(model: TotalCostModel, J: np.ndarray) -> np.ndarray:
    """Optimal-cost backup over atomic controls and affine families."""
    return _bellman_T(model, _state_vector(model, J))


def _bellman_T(model: TotalCostModel, J: np.ndarray, finite: bool = False) -> np.ndarray:
    """`bellman_T` of a float vector of one entry per state, unchecked.
    ``finite`` says that `_finite` holds for J on an atomic-only model,
    so the backup takes the plain product without a scan
    (`_plain_backup`), the product of the power loop."""
    if finite:
        return _segment_min(model, _plain_backup(model, J))
    out = _segment_min(model, pair_backup(model, J))
    if not model.atomic_only:
        for x, fams in enumerate(model.families):
            for fam in fams:
                out[x] = min(out[x], family_infimum(model, fam, J))
    return out


def bellman_T_mu(model: TotalCostModel, policy: Policy, J: np.ndarray) -> np.ndarray:
    """Fixed-policy backup; linear in J for atomic mixes, pointwise for
    family parameter choices."""
    J = np.asarray(J, dtype=float)
    H = pair_backup(model, J)
    if policy.atomic:
        return policy_mix(model, policy, H)
    out = np.empty(model.num_states)
    bounds = np.append(model.pair_starts, H.size).tolist()
    for x, a in enumerate(policy.actions):
        if isinstance(a, FamilyChoice):
            out[x] = family_pointwise(model, model.families[x][a.family], a.t, J)
        else:
            out[x] = expect(a.weights, H[bounds[x]:bounds[x + 1]])
    return out


def t_mu_power_and_h(model: TotalCostModel, policy: Policy, J: np.ndarray,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """T_mu applied n times to J, and the Q backup H of the result: bit
    for bit the n-fold `bellman_T_mu` and `h_backup` of it.

    A policy built from choices is checked against the model once, and
    its n + 1 backups alternate with the gather at its chosen pairs
    (`_backup_power`: the finiteness of J is decided once, from the
    start).  Any other policy applies `bellman_T_mu` n times.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    J = np.asarray(J, dtype=float)
    chosen = _chosen_pairs(model, policy)
    if chosen is None:
        for _ in range(n):
            J = bellman_T_mu(model, policy, J)
        return J, h_backup(model, J)
    J, H, _ = _backup_power(model, J, (chosen, None), n + 1, _finite(model, J))
    return J, H


def greedy_select(model: TotalCostModel, Q: np.ndarray, epsilon: float = 0.0, *,
                  qmin: np.ndarray | None = None, keep: Policy | None = None) -> Policy:
    """Deterministic policy with Q(x, mu(x)) <= min_u Q(x, u) + epsilon.

    With epsilon = 0 this is the exact argmin; ties go to the lowest
    control index, as do epsilon-slack choices.  Every choice is the
    first qualifying pair of its state's segment, so the policy is built
    without re-checking it.  A caller that already holds M(Q) =
    `m_minimize(model, Q)` for this same Q passes it as ``qmin``, and the
    minimum is not taken again.  A caller that holds a policy built from
    choices for this model passes it as ``keep``: when the selection
    picks the same pairs, ``keep`` itself is returned, so its cached
    descriptor and anything the caller built on it stay valid.

    When every state has the same number m of controls, the exact argmin
    is one `argmin` per row of Q viewed as an (n, m) array: the first
    minimum of each row, which is the first pair with Q <= min (signed
    zeros compare equal), and a row's first NaN when it holds one.
    """
    if not epsilon >= 0.0:
        raise ValueError("epsilon must be nonnegative")
    if not model.atomic_only:
        raise ValueError("greedy selection is defined for atomic-only models")
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (model.num_pairs(),):
        raise ValueError(f"Q has shape {Q.shape}, want ({model.num_pairs()},)")
    if qmin is not None and qmin.shape != (model.num_states,):
        raise ValueError(f"qmin has shape {qmin.shape}, want ({model.num_states},)")
    return _greedy_select(model, Q, epsilon, qmin, keep)


def _greedy_select(model: TotalCostModel, Q: np.ndarray, epsilon: float,
                   qmin: np.ndarray | None, keep: Policy | None,
                   finite: bool = False) -> Policy:
    """`greedy_select` on admitted arguments, unchecked.  ``finite`` says
    that Q holds no NaN, so the NaN check is skipped: the mixed loop
    knows that every entry of Q is finite, optimistic policy iteration
    that every state's minimum M(Q) is, which a NaN in Q would make NaN.
    Then a row argmin that repeats ``keep``'s control indices returns
    ``keep`` before it is turned into pair indices."""
    starts, width = model.pair_starts, model.control_width
    if epsilon == 0.0 and width:
        first = Q.reshape(-1, width).argmin(axis=1)
        # Such a Q holds no NaN to refuse, so a kept policy is known by
        # its control indices before they are made pair indices.
        if finite and keep is not None and keep.chosen_pairs is not None \
                and keep._control_bytes() == first.tobytes() and _built_for(model, keep):
            return keep
        first += starts
        nan = not finite and np.count_nonzero(np.isnan(Q[first]))
    else:
        state = model.pair_state
        if qmin is None:
            qmin = np.minimum.reduceat(Q, starts)
        if epsilon == 0.0:
            ok = Q <= qmin[state]
        else:
            ok = (Q <= xadd_vec(qmin, epsilon)[state]) | (Q == qmin[state])
        first = np.minimum.reduceat(np.where(ok, model.pair_ids, Q.size), starts)
        nan = not finite and first.size and first.max() == Q.size
    if nan:
        raise ValueError("Q is NaN at a state: no control qualifies")
    if keep is not None:
        kept = keep.chosen_pairs
        if kept is not None and kept.tobytes() == first.tobytes() \
                and _built_for(model, keep):
            return keep
    return Policy._of_pairs(model, first)

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
problem's stop rules (`_stop_rule_solve`, which the stopping module's
entries also run).  Each rule is priced as a chain on the n states plus
a cost-free terminal that takes every stopping mass; the fixed point is
one backup of the last rule's state values, for any atomic policy.

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
backup per mixed iteration instead of n.  In D that backup is the one
the mixed loop's bracket made already (the kernel's ``first``), so the
row takes none of its own.  `f_theta_power` returns the
number of backups that did run next to its result.  Its powers run in
`operators._backup_power`, which takes the finite fast path (a policy
built from choices, finite pair costs, a finite w) from a decision
made once rather than by scanning every w, and runs the whole power
again backup by backup when the result holds a NaN, the trace of a
value that overflowed part way.  `f_theta_power` decides it from the
first state vector w.  The mixed loop decides it once per solve, from
J0, Q0 and the pair costs, keeps it while each row's residuals are
finite (a finite residual from a finite iterate means a finite next
iterate), and passes it to the kernel `_f_theta_power` without a scan.

`masked_update` is the asynchronous form: boolean masks over the pairs
and the states pick the coordinates that take the refreshed values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chains import _stop_rule_iteration
from .extreal import INF, sup_dist
from .model import Policy, TotalCostModel, policy_mix, regime_conforming, validate_policy
from .operators import _backup_power, _finite, _segment_min, pair_backup


@dataclass(frozen=True)
class Theta:
    """Policy plus the state subset on which it is trusted.

    B = S is recognized by identity: `FullB` returns the model's
    `state_set`, and ``frozenset(B)`` of a frozenset is that same object,
    so a Theta built from it needs no sort and no range check.  A Theta
    keeps the last model it passed `_check_inputs` against, so it is
    checked once per model.
    """

    policy: Policy
    B: frozenset[int]
    _fits: TotalCostModel | None = field(default=None, init=False, repr=False,
                                         compare=False)

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
    B of n states is every state.

    Theta, its policy and the model are immutable, so a Theta that
    passed keeps the model (`Theta._fits`) and is not checked against it
    again; against any other model it is checked afresh.
    """
    if theta._fits is model:
        return
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
    object.__setattr__(theta, "_fits", model)


def _check_stop_costs(model: TotalCostModel, J: np.ndarray) -> None:
    """Refuse stop costs J or pair costs that break the model's regime
    (`regime_conforming`), +inf entries aside: stop-rule pricing relies
    on the regime's sign.  The one admission rule of the fixed point, the
    stopping problem and the constraint bound."""
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


def _f_floor_map(model: TotalCostModel, theta: Theta, J: np.ndarray):
    """The map from Q to the state vector that one application of
    F_theta(.; J) to Q backs up, and whether it only gathers and takes
    minima (a policy built from choices; `operators._backup_power`).

    What does not depend on Q (the policy's chosen pairs, the full-B
    test, J lifted onto the pairs or read on B) is read once, when the
    map is built, so a power loop builds it once.  A policy built from
    choices reads Q at its chosen pairs first (its `policy_mix`, a
    gather) and then takes min{J, Q} over those states only: the same
    operands as the minimum over every pair read at the chosen ones, so
    the same floats, bit for bit.  The policy was checked against the
    model by `_check_inputs`, so the gather is taken here directly.
    (`_f_theta_power` reads B = S under such a policy without a map.)
    """
    chosen = theta.policy.chosen_pairs
    if chosen is None:
        lifted = J[model.pair_state]
        return lambda Q: _floor(model, theta, np.minimum(lifted, Q), J), False
    B = theta.B_index
    J_B, chosen_B = J[B], chosen[B]

    def floor(Q: np.ndarray) -> np.ndarray:
        w = J.copy()
        w[B] = np.minimum(J_B, Q[chosen_B])
        return w

    return floor, True


def f_theta_power(model: TotalCostModel, theta: Theta, Q0: np.ndarray,
                  J: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """n-fold composition of F_theta(.; J) starting from Q0, and the
    number of backups that ran.

    Each power backs up the state vector w that it reads off the current
    Q.  When the next power's w is bitwise equal to the last one (so -0.0
    and the infinities count exactly), that power and every later one
    would return the current Q again, and the loop stops.  The Q returned
    is the n-fold composition; the count, between 1 and n, is only the
    backups that ran.  The map from Q to w is built once per call
    (`_f_floor_map`), the Theta is checked against the model once, and
    the finite path is chosen once, from the first w (`_backup_power`).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _f_theta_power(model, theta, np.asarray(Q0, dtype=float),
                          np.asarray(J, dtype=float), n)


def _f_theta_power(model: TotalCostModel, theta: Theta, Q0: np.ndarray, J: np.ndarray,
                   n: int, finite: bool = False, out: np.ndarray | None = None,
                   first: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """`f_theta_power` of float vectors and n >= 1.  ``finite`` is the
    caller's knowledge that `operators._finite` holds for J and Q0, hence
    for every w read from them; without it the first w is scanned.  With
    ``out``, a pair vector that shares no memory with Q0 or J, the
    result is written into it (`_backup_power`).

    ``first`` is the caller's H(J), made already, which may hold
    ``out``'s memory.  When the first w is J byte for byte, the first
    power is ``first`` and is not backed up again, and the result is
    ``first`` itself when the power stopped there, so the caller tells
    that case by identity.  Otherwise ``first`` is left out.  In the
    unclamped mixed iteration with epsilon = 0, w is J on every row,
    signed zeros aside (`_mixed_loop` hands in its bracket's H(J)).

    With B = S, a policy built from choices reads min{J, Q} at its
    chosen pairs: `_backup_power` takes that read as the pair (chosen,
    J) and no map is built (the mixed loop's row, one per iteration);
    any other Theta reads through `_f_floor_map`."""
    if theta._fits is not model:  # spares the mixed loop a call per row
        _check_inputs(model, theta)
    chosen = theta.policy.chosen_pairs
    if chosen is not None and len(theta.B) == model.num_states:
        read, gathers = (chosen, J), True
        w = np.minimum(J, Q0[chosen])
    else:
        read, gathers = _f_floor_map(model, theta, J)
        w = read(Q0)
    if first is not None and w.tobytes() != J.tobytes():
        first = None
    plain = gathers and (finite or _finite(model, w))
    _, Q, applied = _backup_power(model, w, read, n, plain, True, out, first)
    return Q, applied


def f_theta_apply(model: TotalCostModel, theta: Theta, Q: np.ndarray,
                  J: np.ndarray) -> np.ndarray:
    """One application of F_theta(.; J) to Q: the first power."""
    return f_theta_power(model, theta, Q, J, 1)[0]


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
    err = alpha * residual / (1.0 - alpha) if regime == "D" else INF
    return FixedPointCertificate(regime, steps, residual, "two-sided", err,
                                 frozenset(np.flatnonzero(divergent).tolist()))


def _stop_rule_solve(model: TotalCostModel, theta: Theta, J: np.ndarray,
                     stopped: bool = False) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """The stopping problem of (theta, J), admitted once (`_check_inputs`,
    `_check_stop_costs`), solved by stop-rule policy iteration from
    "continue everywhere" (the limit from zero) or, ``stopped``, from
    "stop everywhere" (Lemma A.2).  Returns J as a float array, the pair
    values, the rules priced and the pairs priced at +-inf."""
    _check_inputs(model, theta)
    J = np.asarray(J, dtype=float)
    _check_stop_costs(model, J)
    b = _pairs_in_B(model, theta)
    V, steps, divergent = _stop_rule_iteration(model, theta.policy, J[model.pair_state], b,
                                               np.zeros_like(b) if stopped else b)
    return J, V, steps, divergent


def q_fixed_point(model: TotalCostModel, theta: Theta, J: np.ndarray
                  ) -> tuple[np.ndarray, FixedPointCertificate]:
    """Limit of the monotone iteration of F_theta(.; J) from the zero
    Q-vector, exactly: one backup of the state values of Lemma A.1's
    stopping problem (`_stop_rule_solve`).  The all-+inf J is legal in
    every regime and gives the fixed-policy Q; a stop cost or pair cost
    that breaks the regime (+inf entries aside) is a ValueError."""
    J, V, steps, divergent = _stop_rule_solve(model, theta, J)
    Q = pair_backup(model, _floor(model, theta, V, J))
    residual = sup_dist(f_theta_power(model, theta, Q, J, 1)[0], Q)
    return Q, _certificate(model, steps, residual, divergent)


def _check_masks(model: TotalCostModel, pair_mask, state_mask) -> None:
    """Refuse masks that are not 1-D boolean arrays over the model's
    pairs and states: an index list or a short mask would otherwise be
    cast or broadcast."""
    for what, mask, size in (("pair", pair_mask, model.num_pairs()),
                             ("state", state_mask, model.num_states)):
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool
                and mask.shape == (size,)):
            got = (f"{mask.dtype} array of shape {mask.shape}"
                   if isinstance(mask, np.ndarray) else type(mask).__name__)
            raise ValueError(f"the {what} mask must be a 1-D boolean array of "
                             f"{size} entries, one per {what}: got {got}")


def masked_update(model: TotalCostModel, theta: Theta, Q: np.ndarray,
                  J: np.ndarray, pair_mask: np.ndarray, state_mask: np.ndarray,
                  n: int = 1) -> tuple[np.ndarray, np.ndarray, int]:
    """Asynchronous step: Q takes F_theta^n(Q; J) where ``pair_mask`` is
    set, then J takes the minimization of that Q where ``state_mask`` is
    set; every other coordinate keeps its old value.  The masks are 1-D
    boolean arrays of one entry per pair and per state.  Returns the new
    Q and J (fresh arrays) and the backups that ran (`f_theta_power`)."""
    _check_masks(model, pair_mask, state_mask)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _masked_power(model, theta, np.asarray(Q, dtype=float),
                         np.asarray(J, dtype=float), pair_mask, state_mask, n)


def _masked_power(model: TotalCostModel, theta: Theta, Q: np.ndarray, J: np.ndarray,
                  pair_mask: np.ndarray, state_mask: np.ndarray, n: int,
                  finite: bool = False) -> tuple[np.ndarray, np.ndarray, int]:
    """`masked_update` on admitted arguments; ``finite`` as in
    `_f_theta_power`."""
    full, applied = _f_theta_power(model, theta, Q, J, n, finite)
    Q_next = np.where(pair_mask, full, Q)
    return Q_next, np.where(state_mask, _segment_min(model, Q_next), J), applied

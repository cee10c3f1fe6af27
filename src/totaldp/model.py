"""Finite total-cost MDP model types and validation.

A model carries finitely many states, per-state atomic controls, and
optionally per-state affine control families: one-parameter control
intervals whose one-stage cost and transition probabilities are affine in
the parameter.  Affine families are the finite representation of interval
control sets such as U(x) = (0, 1).

Three problem regimes are supported:

    D   discounted, alpha < 1, costs bounded
    N   undiscounted, alpha = 1, costs <= 0
    P   undiscounted, alpha = 1, costs >= 0

All types are immutable after construction; operations elsewhere in the
package are pure functions of their inputs and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .extreal import expect_segments

PROB_TOL = 1e-12

REGIMES = ("D", "N", "P")


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AtomicControl:
    """One control: a one-stage cost and a transition distribution."""

    name: str
    cost: float
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _frozen(self.probs))


@dataclass(frozen=True)
class AffineFamily:
    """Control interval (lo, hi) with cost c0 + c1*t and per-successor
    transition probability p0[x'] + p1[x']*t."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool
    c0: float
    c1: float
    p0: np.ndarray
    p1: np.ndarray
    name: str = "family"

    def __post_init__(self):
        object.__setattr__(self, "p0", _frozen(self.p0))
        object.__setattr__(self, "p1", _frozen(self.p1))

    def cost_at(self, t: float) -> float:
        return self.c0 + self.c1 * t

    def probs_at(self, t: float) -> np.ndarray:
        return self.p0 + self.p1 * t


@dataclass(frozen=True)
class TotalCostModel:
    regime: str
    discount: float
    controls: tuple[tuple[AtomicControl, ...], ...]
    families: tuple[tuple[AffineFamily, ...], ...] = None  # type: ignore[assignment]
    state_names: tuple[str, ...] = None  # type: ignore[assignment]
    cost_bound: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(tuple(cs) for cs in self.controls))
        fams = self.families
        if fams is None:
            fams = tuple(() for _ in self.controls)
        object.__setattr__(self, "families", tuple(tuple(fs) for fs in fams))
        names = self.state_names
        if names is None:
            names = tuple(str(i) for i in range(len(self.controls)))
        object.__setattr__(self, "state_names", tuple(names))

    @property
    def num_states(self) -> int:
        return len(self.controls)

    @cached_property
    def atomic_only(self) -> bool:
        return all(len(fs) == 0 for fs in self.families)

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All (state, control index) pairs, state-major."""
        return tuple((x, i) for x in range(self.num_states)
                     for i in range(len(self.controls[x])))

    @cached_property
    def pair_slices(self) -> tuple[slice, ...]:
        """Per-state slice into the pair axis."""
        out, start = [], 0
        for x in range(self.num_states):
            n = len(self.controls[x])
            out.append(slice(start, start + n))
            start += n
        return tuple(out)

    @cached_property
    def pair_starts(self) -> np.ndarray:
        """Index of each state's first pair: state x owns the segment
        pair_starts[x] : pair_starts[x + 1] of every pair-axis array."""
        counts = np.array([len(cs) for cs in self.controls], dtype=np.intp)
        starts = np.cumsum(counts) - counts
        starts.setflags(write=False)
        return starts

    @cached_property
    def pair_state(self) -> np.ndarray:
        """State of every pair, so J[pair_state] lifts J onto the pair axis."""
        counts = [len(cs) for cs in self.controls]
        state = np.repeat(np.arange(self.num_states, dtype=np.intp), counts)
        state.setflags(write=False)
        return state

    @cached_property
    def pair_labels(self) -> tuple[str, ...]:
        """"x:i" for every pair, in pair-axis order: a choice-backed
        policy's descriptor joins the labels of its chosen pairs."""
        return tuple(f"{x}:{i}" for x, i in self.pairs)

    @cached_property
    def pair_ids(self) -> np.ndarray:
        """0, 1, ..., num_pairs - 1: the index of every pair, read-only."""
        ids = np.arange(self.num_pairs(), dtype=np.intp)
        ids.setflags(write=False)
        return ids

    @cached_property
    def control_width(self) -> int:
        """m when every state has the same number m of atomic controls,
        so that a pair-axis array reshapes to (num_states, m); else 0."""
        counts = {len(cs) for cs in self.controls}
        return counts.pop() if len(counts) == 1 else 0

    @cached_property
    def state_set(self) -> frozenset[int]:
        """Every state, as one frozenset per model."""
        return frozenset(range(self.num_states))

    def pair_counts(self) -> np.ndarray:
        """Number of atomic controls of each state."""
        return np.diff(self.pair_starts, append=self.num_pairs())

    @cached_property
    def pair_costs(self) -> np.ndarray:
        g = np.array([self.controls[x][i].cost for x, i in self.pairs], dtype=float)
        g.setflags(write=False)
        return g

    @cached_property
    def pair_costs_finite(self) -> bool:
        """Whether every pair cost is finite, so that adding the costs to
        any vector can never meet opposite infinities."""
        return bool(np.isfinite(self.pair_costs).all())

    @cached_property
    def pair_probs(self) -> np.ndarray:
        """Transition matrix over atomic pairs, shape (num pairs, num states)."""
        if not self.pairs:
            P = np.zeros((0, self.num_states))
        else:
            P = np.stack([self.controls[x][i].probs for x, i in self.pairs])
        P.setflags(write=False)
        return P

    def num_pairs(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class AtomicMix:
    """Randomized choice over a state's atomic controls."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(self.weights))


@dataclass(frozen=True)
class FamilyChoice:
    """Deterministic parameter choice inside one affine family."""

    family: int
    t: float


PolicyAction = Union[AtomicMix, FamilyChoice]


class Policy:
    """Stationary policy: one action per state.

    A policy built by `Policy.deterministic` keeps the pair index of each
    state's chosen control and builds per-state `AtomicMix` actions only
    when `actions` is read.  Policies are immutable: the arrays they hand
    out are read-only, and the descriptor is rendered once per policy.
    """

    def __init__(self, actions: Sequence[PolicyAction]):
        self._actions: tuple[PolicyAction, ...] | None = tuple(actions)
        self._chosen: np.ndarray | None = None  # chosen pair index per state
        self._starts: np.ndarray | None = None  # pair_starts of the choices' model
        self._labels: tuple[str, ...] = ()       # pair_labels of that model
        self._num_pairs = 0
        self._descriptor: str | None = None

    @staticmethod
    def deterministic(model: TotalCostModel, choices: Sequence[int]) -> "Policy":
        """The policy that takes control choices[x] at every state x."""
        raw = np.asarray(choices)
        if raw.shape != (model.num_states,):
            raise ValueError(f"need one choice per state, got shape {raw.shape}")
        if raw.dtype.kind not in "biu":
            as_float = raw.astype(float)
            if not (np.isfinite(as_float) & (as_float == np.floor(as_float))).all():
                raise ValueError("a choice is not an integer control index")
        choices = raw.astype(np.intp)
        chosen = model.pair_starts + choices
        if ((choices < 0) | (chosen >= model.num_pairs())).any() \
                or (model.pair_state[chosen] != np.arange(model.num_states)).any():
            raise ValueError("a choice is not a control index of its state")
        return Policy._of_pairs(model, chosen)

    @staticmethod
    def _of_pairs(model: TotalCostModel, chosen: np.ndarray) -> "Policy":
        """The deterministic policy whose control at state x is the pair
        chosen[x], unchecked: each entry must lie in its state's segment."""
        chosen.setflags(write=False)
        policy = Policy.__new__(Policy)
        policy._actions = None
        policy._chosen = chosen
        policy._starts = model.pair_starts
        policy._labels = model.pair_labels
        policy._num_pairs = model.num_pairs()
        policy._descriptor = None
        return policy

    @staticmethod
    def uniform(model: TotalCostModel) -> "Policy":
        acts = []
        for x in range(model.num_states):
            n = len(model.controls[x])
            acts.append(AtomicMix(np.full(n, 1.0 / n)))
        return Policy(tuple(acts))

    @property
    def chosen_pairs(self) -> np.ndarray | None:
        """The pair index of each state's control when the policy was
        built from choices, else None."""
        return self._chosen

    @property
    def actions(self) -> tuple[PolicyAction, ...]:
        if self._actions is None:
            counts = np.diff(self._starts, append=self._num_pairs)
            acts = []
            for i, n in zip((self._chosen - self._starts).tolist(), counts.tolist()):
                w = np.zeros(n)
                w[i] = 1.0
                acts.append(AtomicMix(w))
            self._actions = tuple(acts)
        return self._actions

    @property
    def atomic(self) -> bool:
        return (self._chosen is not None
                or all(isinstance(a, AtomicMix) for a in self.actions))

    @cached_property
    def pair_weights(self) -> np.ndarray:
        """The policy as one weight per atomic pair, in pair-axis order."""
        if self._chosen is not None:
            w = np.zeros(self._num_pairs)
            w[self._chosen] = 1.0
        elif not self.atomic:
            raise ValueError("only atomic-distribution policies have pair weights")
        elif self.actions:
            w = np.concatenate([a.weights for a in self.actions])
        else:
            w = np.zeros(0)
        w.setflags(write=False)
        return w

    def is_deterministic(self) -> bool:
        if self._chosen is not None:
            return True
        return all(isinstance(a, FamilyChoice) or _point_mass(a) for a in self.actions)

    def action_index(self, x: int) -> int:
        """Chosen control index at x for a deterministic atomic action."""
        if self._chosen is not None:
            return int(self._chosen[x] - self._starts[x])
        a = self.actions[x]
        if not isinstance(a, AtomicMix):
            raise ValueError(f"state {x} uses a family parameter, not an atomic control")
        return int(np.argmax(a.weights))

    def descriptor(self) -> str:
        """The policy as "x:i" per state ("x:t=..." for a family
        parameter, "x:mix" for a randomized mix), comma-separated;
        rendered on the first call and kept."""
        if self._descriptor is not None:
            return self._descriptor
        if self._chosen is not None:
            labels = self._labels
            text = ",".join([labels[k] for k in self._chosen.tolist()])
        else:
            parts = []
            for x, a in enumerate(self.actions):
                if isinstance(a, FamilyChoice):
                    parts.append(f"{x}:t={a.t:g}")
                elif _point_mass(a):
                    parts.append(f"{x}:{int(np.argmax(a.weights))}")
                else:
                    parts.append(f"{x}:mix")
            text = ",".join(parts)
        self._descriptor = text
        return text


def _point_mass(a: AtomicMix) -> bool:
    """Whether the mix puts all but PROB_TOL of its mass on one control."""
    return abs(float(a.weights.max(initial=0.0)) - 1.0) <= PROB_TOL


def _atomic_suspects(model: TotalCostModel) -> list[bool] | None:
    """Which atomic pairs break an invariant, by one pass over the pair
    arrays: a transition entry below -PROB_TOL, a row sum off 1 by more
    than PROB_TOL (or NaN), or a cost that is NaN or breaks the regime's
    sign or bound.  A row's sum over the (pairs, states) matrix is bit for
    bit its own ``probs.sum()``.  None when some row is not n entries
    long, so that the matrix cannot be formed; every pair is then
    checked on its own."""
    n = model.num_states
    if any(c.probs.shape != (n,) for cs in model.controls for c in cs):
        return None
    P, g = model.pair_probs, model.pair_costs
    bad = (P < -PROB_TOL).any(axis=1) | ~(np.abs(P.sum(axis=1) - 1.0) <= PROB_TOL)
    if model.regime == "D":
        bad |= ~np.isfinite(g)
        if model.cost_bound is not None:
            bad |= np.abs(g) > model.cost_bound + PROB_TOL
    else:
        bad |= np.isnan(g) | (g > 0.0 if model.regime == "N" else g < 0.0)
    return bad.tolist()


def validate_model(model: TotalCostModel) -> list[str]:
    """Check every model invariant; returns [] when the model is valid.

    Violations are data, not exceptions: each entry names the broken
    invariant and where it is broken.
    """
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

    suspect = _atomic_suspects(model)
    pair = 0
    for x in range(n):
        controls = model.controls[x]
        if not controls and not model.families[x]:
            bad.append(f"state {x} has no atomic control and no affine family")
        for i, c in enumerate(controls):
            if suspect is not None and not suspect[pair + i]:
                continue
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
        pair += len(controls)
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


_LAYOUT_MISMATCH = "policy choices do not match the model's pairs"


def _built_for(model: TotalCostModel, policy: Policy) -> bool:
    """Whether a policy built from choices was built for the model's
    control layout, so that its chosen pairs index the model's pair axis."""
    return (policy._starts is model.pair_starts
            or (policy._num_pairs == model.num_pairs()
                and np.array_equal(policy._starts, model.pair_starts)))


def _chosen_pairs(model: TotalCostModel, policy: Policy) -> np.ndarray | None:
    """The chosen pairs of a policy built from choices, checked to be
    built for the model's control layout; None for any other policy."""
    chosen = policy._chosen
    if chosen is not None and not _built_for(model, policy):
        raise ValueError(_LAYOUT_MISMATCH)
    return chosen


def validate_policy(model: TotalCostModel, policy: Policy) -> list[str]:
    if policy._chosen is not None:
        # Its actions fit the model exactly when its control layout does.
        return [] if _built_for(model, policy) else [_LAYOUT_MISMATCH]
    bad: list[str] = []
    if len(policy.actions) != model.num_states:
        return [f"policy has {len(policy.actions)} actions for {model.num_states} states"]
    for x, a in enumerate(policy.actions):
        if isinstance(a, AtomicMix):
            n = len(model.controls[x])
            if a.weights.shape != (n,):
                bad.append(f"state {x}: weight vector shape {a.weights.shape}, want ({n},)")
                continue
            if (a.weights < -PROB_TOL).any():
                bad.append(f"state {x}: negative control weight")
            if abs(float(a.weights.sum()) - 1.0) > PROB_TOL:
                bad.append(f"state {x}: weights sum to {float(a.weights.sum())!r}")
        else:
            if not (0 <= a.family < len(model.families[x])):
                bad.append(f"state {x}: no affine family {a.family}")
                continue
            f = model.families[x][a.family]
            if not (f.lo < a.t < f.hi
                    or (f.lo_closed and a.t == f.lo)
                    or (f.hi_closed and a.t == f.hi)):
                bad.append(f"state {x}: parameter {a.t} outside family interval")
    return bad


def policy_mix(model: TotalCostModel, policy: Policy, V: np.ndarray) -> np.ndarray:
    """Per-state mix of a pair-axis vector V under an atomic policy:
    entry x is sum_u mu(u|x) V(x, u), where a zero-weighted infinity
    contributes nothing.

    A policy built from choices is read by gathering V at its chosen
    pairs; any other atomic policy by the weighted segment sum
    (`expect_segments`) over its pair weights.  Given the same policy as
    one-hot mixes, the segment sum adds the products of the zero-weighted
    pairs, each a signed zero, to the chosen entry, and +0.0 added to a
    chosen -0.0 gives +0.0: on NaN-free V the two reads differ only in
    the sign of a zero.
    """
    chosen = _chosen_pairs(model, policy)
    if chosen is not None:
        return V[chosen]
    w = policy.pair_weights
    if w.shape != (model.num_pairs(),):
        raise ValueError("policy weights do not match the model's pairs")
    return expect_segments(w, V, model.pair_starts)


def _atomic_rows(model: TotalCostModel, policy: Policy,
                 costs: np.ndarray | None = None, keep: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Kernel rows and expected one-stage costs of the policy's atomic
    actions; rows of states whose action is a family choice are left zero.

    ``costs`` replaces the pair costs, and a pair mask ``keep`` leaves
    out of the rows the mass of the pairs outside it (the stop-rule
    engine's chain, whose stopping pairs leave for its terminal).  A
    policy built from choices gathers its chosen pairs' rows and costs,
    which are the floats of the one-hot segment sums up to the sign of a
    zero (`policy_mix`); any other policy takes segment sums over the
    pair axis.
    """
    costs = model.pair_costs if costs is None else costs
    chosen = _chosen_pairs(model, policy)
    if chosen is not None:
        P = model.pair_probs[chosen]
        if keep is not None:
            P[~keep[chosen]] = 0.0
        return P, costs[chosen]
    n = model.num_states
    if policy.atomic:
        w = policy.pair_weights
    else:
        w = np.concatenate([a.weights if isinstance(a, AtomicMix)
                            else np.zeros(len(model.controls[x]))
                            for x, a in enumerate(policy.actions)])
    P = np.zeros((n, n))
    g = np.zeros(n)
    live = model.pair_counts() > 0
    if w.size:
        starts = model.pair_starts[live]
        kept = w if keep is None else w * keep
        P[live] = np.add.reduceat(kept[:, None] * model.pair_probs, starts)
        g[live] = expect_segments(w, costs, starts)
    return P, g


def _family_actions(model: TotalCostModel, policy: Policy):
    """(state, family, parameter) for every family choice of the policy."""
    if policy.atomic:
        return []
    return [(x, model.families[x][a.family], a.t)
            for x, a in enumerate(policy.actions) if isinstance(a, FamilyChoice)]


def induced_kernel(model: TotalCostModel, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Markov kernel and expected one-stage cost under a stationary policy."""
    P, g = _atomic_rows(model, policy)
    for x, f, t in _family_actions(model, policy):
        g[x] = f.cost_at(t)
        P[x] = f.probs_at(t)
    return P, g


def induced_complement(model: TotalCostModel, policy: Policy,
                       kernel: tuple[np.ndarray, np.ndarray] | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """I minus the policy kernel, assembled from the control pieces.

    Subtracting the identity from each piece before applying affine
    parameters avoids the cancellation in 1 - (p0 + t*p1) when p0 has
    0/1 entries, which keeps deterministic-chain evaluations exact; an
    atomic row of a deterministic policy is e_x minus one transition row,
    exactly.  ``kernel`` is the policy's `induced_kernel`, when the
    caller already has it.
    """
    P, g = kernel if kernel is not None else induced_kernel(model, policy)
    A = np.eye(model.num_states) - P
    for x, f, t in _family_actions(model, policy):
        row = np.zeros(model.num_states)
        row[x] = 1.0
        A[x] = row - f.p0 - t * f.p1
    return A, g


def regime_conforming(model: TotalCostModel, J: np.ndarray) -> bool:
    """Whether J satisfies the regime's sign/boundedness constraint."""
    J = np.asarray(J, dtype=float)
    if model.regime == "D":
        return bool(np.isfinite(J).all())
    if model.regime == "N":
        return bool((J <= 0.0).all())
    return bool((J >= 0.0).all())

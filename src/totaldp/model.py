"""Finite total-cost MDP model types and validation.

A model carries finitely many states, per-state atomic controls, and
optionally per-state affine control families: one-parameter control
intervals whose one-stage cost and transition probabilities are affine in
the parameter.  Affine families are the finite representation of interval
control sets such as U(x) = (0, 1).

A model stores its atomic controls as pair arrays, one entry or row per
(state, control) pair, built by `TotalCostModel.from_arrays` or, from
`AtomicControl`s, by the constructor; `TotalCostModel.controls` is a
view rebuilt from them on each read.

Three problem regimes are supported:

    D   discounted, alpha < 1, costs bounded
    N   undiscounted, alpha = 1, costs <= 0
    P   undiscounted, alpha = 1, costs >= 0

All types are immutable after construction; operations elsewhere in the
package are pure functions of their inputs and safe to call concurrently.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence, Union

import numpy as np

from .extreal import expect_segments, xadd_vec

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


def _g_plus(alpha: float, scale: np.ndarray, costs: np.ndarray, finite: bool,
            cont: np.ndarray) -> np.ndarray:
    """g + alpha * cont over all atomic pairs, for a fresh expectation
    array cont, which is scaled and summed in place: the one copy of the
    backup's arithmetic, which every backup applies as its model's
    `TotalCostModel._g_plus` (`operators.pair_backup` and
    `operators._plain_backup` differ only in how they take the
    expectation).  With every pair cost finite (``finite``) no opposite
    infinities can meet and the sum is plain; otherwise `xadd_vec`
    resolves them.  ``scale`` is alpha as a 0-d array: its product is
    the float's bit for bit and spares numpy converting a Python scalar
    on every backup."""
    if alpha != 1.0:
        if alpha == 0.0:
            cont.fill(0.0)
        else:
            np.multiply(cont, scale, out=cont)
    if finite:
        return np.add(cont, costs, out=cont)
    return xadd_vec(costs, cont)


class TotalCostModel:
    """A finite total-cost MDP, stored as pair arrays: the per-state
    counts (`pair_counts()`), `pair_costs`, the dense (pairs, n)
    `pair_probs` and `control_names`, state-major, stored by one packer
    (`_pack`).  `from_arrays` hands it copies of given arrays, checked
    against the counts; the constructor is an adapter that hands it the
    arrays of each state's `AtomicControl`s and keeps no control object.
    State and control names are stored as their str(), as a model file
    names them.

    Packing also binds what every backup reads of the model: whether
    every pair cost is finite (`pair_costs_finite`), so that adding the
    costs to any vector can never meet opposite infinities, and the map
    cont -> g + alpha * cont (`_g_plus`, the module's `_g_plus` with the
    model's alpha and costs bound)."""

    def __init__(self, regime: str, discount: float,
                 controls: Sequence[Sequence[AtomicControl]],
                 families: Sequence[Sequence[AffineFamily]] | None = None,
                 state_names: Sequence | None = None, cost_bound: float | None = None):
        controls = tuple(tuple(cs) for cs in controls)
        n = len(controls)
        pairs = [(x, c) for x, cs in enumerate(controls) for c in cs]
        for x, c in pairs:
            if c.probs.shape != (n,):
                raise ValueError(f"state {x} control {c.name!r}: transition row has "
                                 f"shape {c.probs.shape}, want ({n},)")
        self._pack(regime, discount, np.array([len(cs) for cs in controls], dtype=np.intp),
                   np.array([c.cost for _, c in pairs], dtype=float),
                   np.stack([c.probs for _, c in pairs]) if pairs else np.zeros((0, n)),
                   tuple([str(c.name) for _, c in pairs]), families, state_names, cost_bound)

    @classmethod
    def from_arrays(cls, regime: str, discount: float, counts, pair_costs, pair_probs,
                    control_names: Sequence,
                    families: Sequence[Sequence[AffineFamily]] | None = None,
                    state_names: Sequence | None = None,
                    cost_bound: float | None = None) -> "TotalCostModel":
        """The model whose state x has counts[x] atomic controls, given
        state-major as pair arrays: one cost, one transition row of the
        (pairs, n) ``pair_probs`` and one name per (state, control) pair.
        The arrays are copied, and refused when they do not fit the
        counts."""
        counts = np.array(counts, dtype=np.intp)
        costs = np.array(pair_costs, dtype=float)
        probs = np.array(pair_probs, dtype=float)
        names = tuple(map(str, control_names))
        m = int(counts.sum())
        if counts.ndim != 1 or (counts < 0).any() or costs.shape != (m,) \
                or len(names) != m or probs.shape != (m, counts.size):
            raise ValueError(f"pair arrays do not fit the counts {counts.tolist()}: "
                             f"{costs.size} costs, {len(names)} names, transition "
                             f"rows of shape {probs.shape}")
        model = cls.__new__(cls)
        model._pack(regime, discount, counts, costs, probs, names, families, state_names,
                    cost_bound)
        return model

    def _pack(self, regime, discount, counts: np.ndarray, costs: np.ndarray,
              probs: np.ndarray, control_names: tuple[str, ...], families, state_names,
              cost_bound) -> None:
        """Store pair arrays that fit one another and that the model now
        owns: it freezes them."""
        n = counts.size
        families = (((),) * n if families is None
                    else tuple(tuple(fs) for fs in families))
        names = (tuple(str(i) for i in range(n)) if state_names is None
                 else tuple(str(s) for s in state_names))
        for what, given in (("state_names", names), ("families", families)):
            if len(given) != n:
                raise ValueError(f"{what} has length {len(given)}, want one entry "
                                 f"per state: {n}")
        for arr in (counts, costs, probs):
            arr.setflags(write=False)
        finite = bool(np.isfinite(costs).all())
        self.__dict__.update(regime=regime, discount=discount, families=families,
                             state_names=names, cost_bound=cost_bound, _counts=counts,
                             pair_costs=costs, pair_probs=probs,
                             control_names=control_names, pair_costs_finite=finite,
                             _g_plus=partial(_g_plus, discount, np.array(discount), costs,
                                             finite))

    def __setattr__(self, name, value):
        raise AttributeError(f"a TotalCostModel is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    @property
    def controls(self) -> tuple[tuple[AtomicControl, ...], ...]:
        """Each state's atomic controls, rebuilt from the pair arrays on
        every read: a derived view that the model does not keep."""
        g, P, names = self.pair_costs.tolist(), self.pair_probs, self.control_names
        return tuple(tuple(AtomicControl(names[k], g[k], P[k]) for k in range(s, s + m))
                     for s, m in zip(self.pair_starts.tolist(), self._counts.tolist()))

    @property
    def num_states(self) -> int:
        return self._counts.size

    @cached_property
    def atomic_only(self) -> bool:
        return all(len(fs) == 0 for fs in self.families)

    @cached_property
    def pair_starts(self) -> np.ndarray:
        """Index of each state's first pair: state x owns the segment
        pair_starts[x] : pair_starts[x + 1] of every pair-axis array."""
        starts = np.cumsum(self._counts) - self._counts
        starts.setflags(write=False)
        return starts

    @cached_property
    def pair_state(self) -> np.ndarray:
        """State of every pair, so J[pair_state] lifts J onto the pair axis."""
        state = np.repeat(np.arange(self.num_states, dtype=np.intp), self._counts)
        state.setflags(write=False)
        return state

    @cached_property
    def pair_labels(self) -> tuple[str, ...]:
        """"x:i" for every pair, in pair-axis order: a choice-backed
        policy's descriptor joins the labels of its chosen pairs."""
        return tuple(f"{x}:{i}" for x, n in enumerate(self._counts.tolist())
                     for i in range(n))

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
        counts = set(self._counts.tolist())
        return counts.pop() if len(counts) == 1 else 0

    @cached_property
    def state_set(self) -> frozenset[int]:
        """Every state, as one frozenset per model."""
        return frozenset(range(self.num_states))

    def pair_counts(self) -> np.ndarray:
        """Number of atomic controls of each state, read-only."""
        return self._counts

    @cached_property
    def max_successors(self) -> int:
        """The most nonzero entries of one pair_probs row: the most
        products any pair's expectation sums, zeros adding exactly."""
        return int(np.count_nonzero(self.pair_probs, axis=1).max(initial=0))

    @cached_property
    def infinite_optimum(self) -> np.ndarray:
        """Mask of the states where J* is the regime-signed infinity,
        decided once from the model's graph (`chains.infinite_optimum`);
        read-only."""
        from .chains import infinite_optimum
        infinite = infinite_optimum(self)
        infinite.setflags(write=False)
        return infinite

    def num_pairs(self) -> int:
        return self.pair_costs.size


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

    A policy built by `Policy.deterministic` keeps the model it was built
    for and the pair index of each state's chosen control, and builds
    per-state `AtomicMix` actions only when `actions` is read.  Policies
    are immutable: the arrays they hand out are read-only, and the
    descriptor and the control-index bytes are made once per policy.
    """

    def __init__(self, actions: Sequence[PolicyAction]):
        self._actions: tuple[PolicyAction, ...] | None = tuple(actions)
        self._chosen: np.ndarray | None = None  # chosen pair index per state
        self._model: TotalCostModel | None = None  # the model they index
        self._descriptor: str | None = None
        self._controls: bytes | None = None

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
        policy._model = model
        policy._descriptor = None
        policy._controls = None
        return policy

    @staticmethod
    def uniform(model: TotalCostModel) -> "Policy":
        """The policy that mixes each state's atomic controls with equal
        weights; refused when a state has none to mix (its controls are
        all affine families)."""
        counts = model.pair_counts()
        if not counts.all():
            empty = model.state_names[int(np.argmin(counts))]
            raise ValueError(f"state {empty} has no atomic control to mix uniformly")
        return Policy(tuple(AtomicMix(np.full(n, 1.0 / n)) for n in counts.tolist()))

    @property
    def chosen_pairs(self) -> np.ndarray | None:
        """The pair index of each state's control when the policy was
        built from choices, else None."""
        return self._chosen

    @property
    def actions(self) -> tuple[PolicyAction, ...]:
        if self._actions is None:
            model = self._model
            acts = []
            for i, n in zip((self._chosen - model.pair_starts).tolist(),
                            model.pair_counts().tolist()):
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
            w = np.zeros(self._model.num_pairs())
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
            return int(self._chosen[x] - self._model.pair_starts[x])
        a = self.actions[x]
        if not isinstance(a, AtomicMix):
            raise ValueError(f"state {x} uses a family parameter, not an atomic control")
        return int(np.argmax(a.weights))

    def _control_bytes(self) -> bytes:
        """For a policy built from choices, the control index of each
        state's choice (its chosen pair less the state's first pair) as
        intp bytes: what a row-wise argmin over a uniform layout gives.
        Computed on the first call and kept."""
        if self._controls is None:
            starts = self._model.pair_starts
            self._controls = np.subtract(self._chosen, starts, dtype=np.intp).tobytes()
        return self._controls

    def descriptor(self) -> str:
        """The policy as "x:i" per state ("x:t=..." for a family
        parameter, "x:mix" for a randomized mix), comma-separated;
        rendered on the first call and kept."""
        if self._descriptor is not None:
            return self._descriptor
        if self._chosen is not None:
            labels = self._model.pair_labels
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


def _atomic_suspects(model: TotalCostModel) -> np.ndarray:
    """Which atomic pairs break an invariant, by one pass over the pair
    arrays: a transition entry below -PROB_TOL, a row sum off 1 by more
    than PROB_TOL (or NaN), or a cost that is NaN or breaks the regime's
    sign or bound.  A row's sum over the (pairs, states) matrix is bit for
    bit the sum of that row alone."""
    P, g = model.pair_probs, model.pair_costs
    bad = (P < -PROB_TOL).any(axis=1) | ~(np.abs(P.sum(axis=1) - 1.0) <= PROB_TOL)
    if model.regime == "D":
        bad |= ~np.isfinite(g)
        if model.cost_bound is not None:
            bad |= np.abs(g) > model.cost_bound + PROB_TOL
    else:
        bad |= np.isnan(g) | (g > 0.0 if model.regime == "N" else g < 0.0)
    return bad


def validate_model(model: TotalCostModel) -> list[str]:
    """Check every model invariant; returns [] when the model is valid.

    Violations are data, not exceptions: each entry names the broken
    invariant and where it is broken.  The atomic pairs are checked by
    one array pass (`_atomic_suspects`); messages are rendered for the
    pairs it flags, the states without controls and the affine families,
    state by state.
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
    for name, times in Counter(model.state_names).items():
        if times > 1:
            bad.append(f"state name {name!r} is listed {times} times")

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

    flagged: dict[int, list[int]] = {}
    suspects = np.flatnonzero(_atomic_suspects(model))
    for k, x in zip(suspects.tolist(), model.pair_state[suspects].tolist()):
        flagged.setdefault(x, []).append(k)
    empty = np.flatnonzero(model.pair_counts() == 0).tolist()
    with_families = [x for x, fs in enumerate(model.families) if fs]
    P, g, names = model.pair_probs, model.pair_costs.tolist(), model.control_names
    for x in sorted({*flagged, *empty, *with_families}):
        if not model.pair_counts()[x] and not model.families[x]:
            bad.append(f"state {x} has no atomic control and no affine family")
        for k in flagged.get(x, ()):
            where = f"state {x} control {names[k]!r}"
            if (P[k] < -PROB_TOL).any():
                bad.append(f"{where}: negative transition probability")
            total = float(P[k].sum())
            if not abs(total - 1.0) <= PROB_TOL:  # NaN entries make the sum NaN
                bad.append(f"{where}: distribution sum {total!r} != 1")
            check_cost(g[k], where)
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
    """Whether a policy built from choices was built for the model, or
    for one with the same pair layout, so that its chosen pairs index the
    model's pair axis."""
    built = policy._model
    return built is model or np.array_equal(built._counts, model._counts)


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
    counts = model.pair_counts().tolist()
    for x, a in enumerate(policy.actions):
        if isinstance(a, AtomicMix):
            n = counts[x]
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
        w = np.concatenate([a.weights if isinstance(a, AtomicMix) else np.zeros(n)
                            for a, n in zip(policy.actions, model.pair_counts().tolist())])
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

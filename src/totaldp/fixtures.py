"""Fixture models with known ground truth, a seeded random-model
generator with self-checking oracles, and a countable-state value
iteration demonstrator over tail-constant vectors.

The named fixtures are small models whose optimal costs are forced by
inspection (absorbing chains, one-transition detours, interval-control
counterexamples where value iteration from zero undershoots and policy
iteration stalls).  Each fixture's ground truth is verified as a
fixed point of the optimal-cost backup at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .extreal import INF, sup_dist
from .model import (
    AffineFamily,
    AtomicControl,
    Policy,
    TotalCostModel,
    validate_model,
)
from .operators import bellman_T, h_backup


@dataclass(frozen=True)
class Fixture:
    name: str
    model: TotalCostModel
    Jstar: np.ndarray
    Qstar: np.ndarray | None
    note: str

    def __post_init__(self):
        J = np.array(self.Jstar, dtype=float)
        J.setflags(write=False)
        object.__setattr__(self, "Jstar", J)
        if self.Qstar is not None:
            Q = np.array(self.Qstar, dtype=float)
            Q.setflags(write=False)
            object.__setattr__(self, "Qstar", Q)

    def ground_truth(self) -> tuple[np.ndarray, np.ndarray | None]:
        return self.Jstar, self.Qstar


def _absorbing_row(n: int, x: int) -> np.ndarray:
    row = np.zeros(n)
    row[x] = 1.0
    return row


def _fx_n2() -> Fixture:
    # Two states, nonpositive costs.  State 1 can loop at cost 0 or pay
    # -1 once and absorb at state 0.  The loop policy satisfies the
    # greedy condition at the optimum yet collects nothing.
    model = TotalCostModel(
        regime="N", discount=1.0,
        controls=(
            (AtomicControl("loop", 0.0, _absorbing_row(2, 0)),),
            (AtomicControl("stay", 0.0, _absorbing_row(2, 1)),
             AtomicControl("go", -1.0, _absorbing_row(2, 0))),
        ),
    )
    return Fixture("FX-N2", model, np.array([0.0, -1.0]),
                   np.array([0.0, -1.0, -1.0]),
                   "zero-cost trap beside a one-shot reward: greedy-at-the-"
                   "optimum does not imply optimal")


def _fx_p2() -> Fixture:
    # Two states, nonnegative costs.  State 1 can loop free or pay 1 to
    # absorb.  Exact policy iteration started from the paying policy is
    # stuck: its value function is a fixed point of the scheme.
    model = TotalCostModel(
        regime="P", discount=1.0,
        controls=(
            (AtomicControl("loop", 0.0, _absorbing_row(2, 0)),),
            (AtomicControl("stay", 0.0, _absorbing_row(2, 1)),
             AtomicControl("go", 1.0, _absorbing_row(2, 0))),
        ),
    )
    Jstar = np.array([0.0, 0.0])
    return Fixture("FX-P2", model, Jstar, np.array([0.0, 0.0, 1.0]),
                   "free self-loop beside a unit-cost exit: policy iteration "
                   "stalls on the exit policy")


def _fx_p3a() -> Fixture:
    # Interval controls at state 2 route to an infinite-cost trap with
    # probability t and to the free state otherwise; the atomic escape
    # costs 1.  Value iteration from zero never sees the trap (every
    # finite iterate is beaten by small t), so its limit undershoots.
    fam = AffineFamily(
        lo=0.0, hi=1.0, lo_closed=False, hi_closed=False,
        c0=0.0, c1=0.0,
        p0=np.array([1.0, 0.0, 0.0]),
        p1=np.array([-1.0, 1.0, 0.0]),
        name="mix",
    )
    model = TotalCostModel(
        regime="P", discount=1.0,
        controls=(
            (AtomicControl("loop", 0.0, _absorbing_row(3, 0)),),
            (AtomicControl("stay", 1.0, _absorbing_row(3, 1)),),
            (AtomicControl("t", 1.0, _absorbing_row(3, 0)),),
        ),
        families=((), (), (fam,)),
    )
    return Fixture("FX-P3a", model, np.array([0.0, INF, 1.0]), None,
                   "interval-control gap: the value-iteration limit from "
                   "zero misses the optimal cost at the mixing state")


def _fx_p3b() -> Fixture:
    # State 1 pays t per step to leave with probability t; every fixed
    # parameter accumulates exactly cost 1 before absorbing, yet shrinking
    # the parameter stage by stage drives the total to zero.  Every
    # stationary value function is a fixed point of the optimal backup.
    fam = AffineFamily(
        lo=0.0, hi=1.0, lo_closed=False, hi_closed=False,
        c0=0.0, c1=1.0,
        p0=np.array([0.0, 1.0, 0.0]),
        p1=np.array([1.0, -1.0, 0.0]),
        name="leave",
    )
    model = TotalCostModel(
        regime="P", discount=1.0,
        controls=(
            (AtomicControl("loop", 0.0, _absorbing_row(3, 0)),),
            (),
            (AtomicControl("down", 1.0, _absorbing_row(3, 1)),),
        ),
        families=((), (fam,), ()),
    )
    return Fixture("FX-P3b", model, np.array([0.0, 0.0, 1.0]), None,
                   "no stationary policy is nearly optimal; stationary "
                   "values (0, 1, 2) are fixed points off the optimum")


def _fx_p4() -> Fixture:
    # Deterministic unit-cost chain 2 -> 1 -> 0 with absorbing 0.
    model = TotalCostModel(
        regime="P", discount=1.0,
        controls=(
            (AtomicControl("loop", 0.0, _absorbing_row(3, 0)),),
            (AtomicControl("step", 1.0, _absorbing_row(3, 0)),),
            (AtomicControl("step", 1.0, _absorbing_row(3, 1)),),
        ),
    )
    Jstar = np.array([0.0, 1.0, 2.0])
    return Fixture("FX-P4", model, Jstar, h_backup(model, Jstar),
                   "unit-cost chain with strictly positive optimal costs "
                   "away from the absorbing state")


def _fx_d() -> Fixture:
    # Three states, two controls each, discount 0.9.  Ground truth: value iteration
    # from zero to residual 1e-14, written out; the suite checks it by policy iteration.
    model = TotalCostModel(
        regime="D", discount=0.9,
        controls=(
            (AtomicControl("a", 1.0, np.array([0.5, 0.5, 0.0])),
             AtomicControl("b", 2.0, np.array([0.0, 0.2, 0.8]))),
            (AtomicControl("a", 0.5, np.array([0.1, 0.6, 0.3])),
             AtomicControl("b", 1.5, np.array([1.0, 0.0, 0.0]))),
            (AtomicControl("a", 0.0, np.array([0.3, 0.3, 0.4])),
             AtomicControl("b", 1.0, np.array([0.0, 1.0, 0.0]))),
        ),
        cost_bound=2.0,
    )
    Jstar = np.array([5.79239302694128, 4.857369255150471, 4.492868462757445])
    return Fixture("FX-D", model, Jstar, h_backup(model, Jstar),
                   "discounted three-state model; ground truth is the "
                   "value-iteration oracle at machine residual")


_BUILDERS = {
    "FX-N2": _fx_n2,
    "FX-P2": _fx_p2,
    "FX-P3a": _fx_p3a,
    "FX-P3b": _fx_p3b,
    "FX-P4": _fx_p4,
    "FX-D": _fx_d,
}


@lru_cache(maxsize=None)
def fixture(name: str) -> Fixture:
    """Named fixture with a validated model and verified ground truth."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown fixture {name!r}; known: {sorted(_BUILDERS)}")
    fx = _BUILDERS[name]()
    errs = validate_model(fx.model)
    if errs:
        raise AssertionError(f"fixture {name} failed validation: {errs}")
    gap = sup_dist(bellman_T(fx.model, fx.Jstar), fx.Jstar)
    if gap > 1e-12:
        raise AssertionError(f"fixture {name}: declared optimum is not a "
                             f"fixed point (gap {gap:g})")
    if fx.Qstar is not None:
        qgap = sup_dist(h_backup(fx.model, fx.Jstar), fx.Qstar)
        if qgap > 1e-12:
            raise AssertionError(f"fixture {name}: declared Q optimum is off "
                                 f"by {qgap:g}")
    return fx


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


# ---------------------------------------------------------------------------
# Seeded random models with oracles


def random_model(seed: int, num_states: int = 5, controls_per_state: int = 2,
                 regime: str = "P", cost_range: tuple[float, float] | None = None,
                 absorbing: bool = True, discount: float = 0.9,
                 pull: float = 0.3) -> tuple[TotalCostModel, np.ndarray]:
    """Seeded random model plus its oracle optimal cost vector.

    With ``absorbing`` set (always on for undiscounted regimes), every
    control at every state mixes a ``pull`` fraction of its transition
    mass uniformly over strictly lower-indexed states, and state 0 is
    cost-free and absorbing.  Every policy then reaches state 0 with
    probability one, so undiscounted optimal costs are finite and value
    iteration from zero converges to them geometrically.

    Oracle: exact policy iteration (`_policy_iteration_optimum`).
    """
    if regime not in ("D", "N", "P"):
        raise ValueError(f"unknown regime {regime!r}")
    if num_states < 2:
        raise ValueError("need at least two states")
    if controls_per_state < 1:
        raise ValueError("need at least one control per state")
    if regime != "D":
        absorbing = True
    if cost_range is None:
        cost_range = (-2.0, 0.0) if regime == "N" else (0.0, 2.0)
    lo, hi = cost_range
    if regime == "P" and lo < 0.0:
        raise ValueError("nonnegative regime needs cost_range >= 0")
    if regime == "N" and hi > 0.0:
        raise ValueError("nonpositive regime needs cost_range <= 0")

    rng = np.random.default_rng(seed)
    n = num_states
    rows, costs = [_absorbing_row(n, 0)], [0.0]
    for x in range(1, n):
        for _ in range(controls_per_state):
            probs = rng.dirichlet(np.ones(n))
            if absorbing:
                toward = np.zeros(n)
                toward[:x] = 1.0 / x
                probs = (1.0 - pull) * probs + pull * toward
            rows.append(probs / probs.sum())
            costs.append(float(rng.uniform(lo, hi)))
    model = TotalCostModel.from_arrays(
        regime=regime,
        discount=discount if regime == "D" else 1.0,
        counts=[1] + [controls_per_state] * (n - 1),
        pair_costs=costs,
        pair_probs=np.stack(rows),
        control_names=["absorb"] + [f"u{i}" for i in range(controls_per_state)] * (n - 1),
        cost_bound=max(abs(lo), abs(hi)) if regime == "D" else None,
    )
    return model, _policy_iteration_optimum(model)


def _policy_iteration_optimum(model: TotalCostModel) -> np.ndarray:
    """J* of a `random_model` by policy iteration from the cheapest
    controls.  Every policy is discounted or reaches the cost-free
    absorbing state 0, so each evaluation is one linear solve (off state
    0 when undiscounted).  A state moves to its first best control only
    on a gain beyond 1e-12 (1 + |best|), so round-off cannot cycle."""
    g, P, starts = model.pair_costs, model.pair_probs, model.pair_starts
    live = np.arange(int(model.discount == 1.0), model.num_states)

    def first_min(v):
        return starts + np.array([np.argmin(seg) for seg in np.split(v, starts[1:])])

    rows = first_min(g)
    for _ in range(1000):
        J = np.zeros(model.num_states)
        A = np.eye(live.size) - model.discount * P[np.ix_(rows[live], live)]
        J[live] = np.linalg.solve(A, g[rows[live]])
        Q = h_backup(model, J)
        best = np.minimum.reduceat(Q, starts)
        worse = Q[rows] > best + 1e-12 * (1.0 + np.abs(best))
        if not worse.any():
            return J
        rows = np.where(worse, first_min(Q), rows)
    raise RuntimeError("policy iteration did not terminate")


def random_policy(seed: int, model: TotalCostModel,
                  deterministic: bool = False) -> Policy:
    """Seeded random stationary policy over atomic controls."""
    rng = np.random.default_rng(seed)
    counts = model.pair_counts().tolist()
    if deterministic:
        return Policy.deterministic(model, [int(rng.integers(n)) for n in counts])
    from .model import AtomicMix
    return Policy(tuple(AtomicMix(rng.dirichlet(np.ones(n))) for n in counts))


def random_subset(seed: int, model: TotalCostModel) -> frozenset[int]:
    """Seeded subset of the states, each kept with probability 1/2."""
    rng = np.random.default_rng(seed)
    return frozenset(int(x) for x in range(model.num_states) if rng.random() < 0.5)


# ---------------------------------------------------------------------------
# Countable-state demonstrator over tail-constant vectors


@dataclass(frozen=True)
class TailConstantVector:
    """Function on {0, 1, 2, ...} with a finite prefix and constant tail.

    Canonical form: the last prefix entry differs from the tail value,
    so representations are unique.  Entries are exact integers or the
    float infinity.
    """

    prefix: tuple
    tail: object  # int or math.inf

    @staticmethod
    def of(prefix, tail) -> "TailConstantVector":
        prefix = list(prefix)
        while prefix and prefix[-1] == tail:
            prefix.pop()
        return TailConstantVector(tuple(prefix), tail)

    @staticmethod
    def constant(value) -> "TailConstantVector":
        return TailConstantVector.of((), value)

    def get(self, i: int):
        return self.prefix[i] if i < len(self.prefix) else self.tail

    def head(self, m: int) -> tuple:
        return tuple(self.get(i) for i in range(m))

    def min_from(self, start: int):
        """Minimum of the entries at indices >= start."""
        vals = [self.tail]
        vals.extend(self.prefix[start:])
        return min(vals)

    def plus(self, c) -> "TailConstantVector":
        return TailConstantVector.of(tuple(v + c for v in self.prefix),
                                     self.tail + c)

    def __len__(self) -> int:
        return len(self.prefix)


def example51_T(J: TailConstantVector) -> TailConstantVector:
    """Optimal backup of the countable demonstrator.

    State 0 may jump anywhere at no cost, so its backup is the minimum
    of J over states >= 1; state x >= 1 steps down deterministically to
    x - 1, paying 1 exactly when leaving state 1.  Arithmetic is exact.
    """
    if any(v < 0 for v in J.prefix) or J.tail < 0:
        raise ValueError("entries must be nonnegative")
    new0 = J.min_from(1)
    m = len(J.prefix)
    # Positions 1 .. m+1 can differ from the tail (position 1 carries the
    # unit cost; positions <= m+1 read prefix entries of J); beyond that
    # the backup copies the tail.
    prefix = [new0]
    for x in range(1, m + 2):
        prefix.append((1 if x == 1 else 0) + J.get(x - 1))
    return TailConstantVector.of(tuple(prefix), J.tail)


def example51_limit(J: TailConstantVector) -> TailConstantVector:
    """Pointwise limit of repeated backups from J, detected exactly.

    On this model the iterates stabilize a growing prefix while a
    propagating front inserts one constant value per step; once the
    front pattern repeats, the limit is the stabilized prefix with the
    inserted value as tail.  Immediate fixed points are returned as-is.
    No pattern within 100 000 backups raises RuntimeError.
    """
    cur = J
    front_val = None
    front_pos = None
    streak = 0
    for _ in range(100_000):
        nxt = example51_T(cur)
        if nxt == cur:
            return cur
        # Locate the changed positions between cur and nxt.
        span = max(len(cur.prefix), len(nxt.prefix)) + 2
        changed = [i for i in range(span) if cur.get(i) != nxt.get(i)]
        if len(changed) == 1:
            pos = changed[0]
            val = nxt.get(pos)
            if front_val == val and front_pos is not None and pos == front_pos + 1:
                streak += 1
            else:
                streak = 1
            front_val, front_pos = val, pos
            if streak >= 3:
                return TailConstantVector.of(nxt.head(pos), val)
        else:
            front_val = front_pos = None
            streak = 0
        cur = nxt
    raise RuntimeError("no stabilization pattern within the iteration cap")


def example51_transfinite_level(m: int) -> TailConstantVector:
    """Level-m limit of the nested value-iteration ladder.

    Level 0 is the limit of backups from the zero function; each next
    level restarts the backup iteration from the previous limit.  The
    results are exact integer vectors of the form (m, m+1, m+1, ...).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    cur = example51_limit(TailConstantVector.constant(0))
    for _ in range(m):
        cur = example51_limit(cur)
    return cur

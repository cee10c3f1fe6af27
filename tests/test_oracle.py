"""The solvers against J* by policy enumeration.

`reference_ops.optimal_cost` takes the least exact cost, state by state,
over every deterministic stationary policy, and reads no solver and no
chain routine of the library.  Each solver runs from a start its
convergence results cover: value iteration from zero in every regime
(in N and P with finitely many controls, T^k(0) tends to J*); mixed
iteration from zero in D and N (zero lies above J* in N), and from 2 J*
in P (between J* and a finite multiple of it, zero where J* is zero,
+inf where J* is); policy iteration from each state's first control.
Value and mixed iteration must end "converged" at J* (and mixed at
Q* = H(J*)), with every infinity in place, also under a round-robin
mask schedule with nk of 1 and 2: from zero in N and P both pin the
states where J* is infinite, which the model's graph decides
(`TotalCostModel.infinite_optimum`), and that decision must equal the
infinite entries of the enumeration, on `tiny_models` and on models
with a planted infinity or slow exit (`planted_models`).  Every
value policy iteration evaluates bounds J* from above.  In D and P it
stops where its value is a fixed point of T: that is J* in D, while in
P it may be a larger fixed point, the stall that FX-P2 documents.  In N
improvement need not lower the value, so it may also return to an
earlier policy ("cycle"); where it stops at a fixed point of T, that is
J* (the largest fixed point at or below zero).

`reference_ops.exact_optimal_cost` prices the same policies with no
round-off, in rationals, and `exact_optimal_q` backs it up to Q*.  They
agree with the float enumeration and its backup, with the fixtures' Q*,
with the F_theta fixed point at J* under a greedy policy and B = S,
and with the Q of converged mixed runs.  The exact J*
judges the error bound of a discounted run: value iteration, optimistic
policy iteration and mixed iteration (nk of 1, 10 and "exact", clamped,
epsilon-greedy, from an initial policy) stop on the MacQueen-Porteus
bracket, and the J they return (its upper end) is within their
`error_bound` of the exact J*, a bound within tol; the Q of a mixed run
is within alpha times it, plus the rounding of its one backup, and the
policy of an optimistic or mixed run costs at most twice the bound above
J*.  The bound must hold at the edges of float arithmetic too: from a
start near the largest float, whose first bracket is one cancellation,
and with costs large enough that the allowance must be taken over the
products a row sums, not over every state.  A tol below what a row's
rounding allowance can certify keeps the residual stop: the run ends
where that stop ends it, with no bound, and never turns a tol the
residual reaches into a cap.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_ops as ref
from test_trace_pins import _configs
from totaldp.extreal import INF
from totaldp.fixtures import fixture, fixture_names
from totaldp.ftheta import Theta, q_fixed_point
from totaldp.model import AtomicControl, Policy, TotalCostModel
from totaldp.operators import greedy_select, h_backup
from totaldp.solvers import (
    SolverCapError,
    SolverConfig,
    mixed_vpi,
    policy_iteration,
    round_robin_masks,
    run,
    value_iteration,
    verify_certificates,
)

ATOMIC_FIXTURES = [name for name in fixture_names() if fixture(name).model.atomic_only]
# (nk, whether the run follows the round-robin mask schedule)
MIXED_RUNS = ((1, False), (10, False), ("exact", False), (1, True), (2, True))

# Few distinct values, so that ties and zero-cost cycles are common;
# costs in N are negated.
COSTS = {"D": (-1.0, 0.0, 0.5, 1.0), "N": (0.0, 0.0, -0.5, -1.0),
         "P": (0.0, 0.0, 0.5, 1.0)}


def _random_row(draw, n: int, regime: str, name: str) -> AtomicControl:
    """A control over 1-3 of n successors with small integer weights."""
    support = draw(st.lists(st.integers(0, n - 1), min_size=1,
                            max_size=min(n, 3), unique=True))
    probs = np.zeros(n)
    probs[support] = draw(st.lists(st.integers(1, 4), min_size=len(support),
                                   max_size=len(support)))
    return AtomicControl(name, draw(st.sampled_from(COSTS[regime])), probs / probs.sum())


@st.composite
def tiny_models(draw, regimes=("D", "N", "P")):
    """1-5 states with 1-3 controls each, in D, N or P: rows over 1-3
    successors with small integer weights, so traps, zero-cost cycles,
    exact ties and infinite optima of either sign are common."""
    regime = draw(st.sampled_from(regimes))
    n = draw(st.integers(1, 5))
    controls = [tuple(_random_row(draw, n, regime, f"u{i}")
                      for i in range(draw(st.integers(1, 3))))
                for _ in range(n)]
    alpha = draw(st.sampled_from([0.5, 0.9])) if regime == "D" else 1.0
    return TotalCostModel(regime=regime, discount=alpha, controls=tuple(controls))


def _row(n: int, weights: dict) -> np.ndarray:
    probs = np.zeros(n)
    for y, w in weights.items():
        probs[y] = w
    return probs / probs.sum()


@st.composite
def planted_models(draw):
    """A gadget of 2-3 states planted among 0-3 states drawn as
    `tiny_models` draws them, whose rows may step into the gadget:
    - "trap" (P): a free self-loop 0, a trap 1 paying 0.5, 1 or +inf
      forever, and a state 2 that steps to both with positive
      probability, with or without a unit-cost exit to 0;
    - "negative loop" (N): a free self-loop 0, a loop 1 paying -0.5, -1
      or -inf forever, and a state 2 that steps to both;
    - "period two" (N or P): 0 steps to 1 for free, 1 steps back to 0
      paying c, so J* is c inf on both;
    - "slow exit" (N or P): 0 is a free self-loop, and 1 pays c and
      leaves for 0 with probability 1/2, 1/10 or 1/100, so J*(1) = c/p
      is finite however slowly value iteration reaches it.
    The gadget's states keep their own controls, so its infinity (or
    its finite slow value) stays planted."""
    kind = draw(st.sampled_from(["trap", "negative loop", "period two", "slow exit"]))
    regime = {"trap": "P", "negative loop": "N"}.get(kind) or draw(st.sampled_from("NP"))
    sign = -1.0 if regime == "N" else 1.0
    c = sign * draw(st.sampled_from([0.5, 1.0]))
    extra = draw(st.integers(0, 3))
    g = 2 if kind in ("period two", "slow exit") else 3
    n = g + extra
    if kind in ("trap", "negative loop"):
        loop = sign * draw(st.sampled_from([0.5, 1.0, INF]))
        both = {0: draw(st.integers(1, 4)), 1: draw(st.integers(1, 4))}
        gadget = [[AtomicControl("rest", 0.0, _row(n, {0: 1}))],
                  [AtomicControl("loop", loop, _row(n, {1: 1}))],
                  [AtomicControl("risk", 0.0, _row(n, both))]]
        if kind == "trap" and draw(st.booleans()):
            gadget[2].append(AtomicControl("exit", 1.0, _row(n, {0: 1})))
    elif kind == "period two":
        gadget = [[AtomicControl("go", 0.0, _row(n, {1: 1}))],
                  [AtomicControl("back", c, _row(n, {0: 1}))]]
    else:
        stay = draw(st.sampled_from([1, 9, 99]))
        gadget = [[AtomicControl("rest", 0.0, _row(n, {0: 1}))],
                  [AtomicControl("go", c, _row(n, {0: 1, 1: stay}))]]
    rest = [[_random_row(draw, n, regime, f"u{i}") for i in range(draw(st.integers(1, 3)))]
            for _ in range(extra)]
    return TotalCostModel(regime, 1.0, tuple(map(tuple, gadget + rest)))


def assert_close(got, want, what: str) -> None:
    """The same infinities, and finite entries within 1e-8 relative."""
    got, want = np.asarray(got), np.asarray(want)
    for side in (np.isposinf, np.isneginf):
        assert np.array_equal(side(got), side(want)), (what, got, want)
    finite = np.isfinite(want)
    err = np.abs(got[finite] - want[finite])
    assert (err <= 1e-8 * (1.0 + np.abs(want[finite]))).all(), (what, got, want)


def assert_above(J, Jstar, what: str) -> None:
    """J >= J* up to round-off (a policy's cost bounds the optimum)."""
    finite = np.isfinite(J) & np.isfinite(Jstar)
    assert not (J[~finite] < Jstar[~finite]).any(), (what, J, Jstar)
    assert (J[finite] >= Jstar[finite] - 1e-9 * (1.0 + np.abs(Jstar[finite]))).all(), \
        (what, J, Jstar)


def mixed_start(model: TotalCostModel, Jstar: np.ndarray) -> np.ndarray:
    """2 J* in P, else zero: from zero in N the run pins J* = -inf
    (`test_mixed_from_zero_reaches_minus_infinity`)."""
    if model.regime == "P":
        return 2.0 * Jstar
    return np.zeros(model.num_states)


def check_solvers(model: TotalCostModel, Jstar: np.ndarray) -> None:
    n = model.num_states
    res = value_iteration(model, np.zeros(n),
                          SolverConfig(algorithm="vi", tol=1e-12, max_iter=100_000))
    assert res.termination == "converged"
    assert_close(res.J, Jstar, "vi")

    J0 = mixed_start(model, Jstar)
    Qstar = ref.h_backup(model, Jstar)
    for nk, masked in MIXED_RUNS:
        what = f"{'masked ' if masked else ''}mixed nk={nk}"
        res = mixed_vpi(model, SolverConfig(
            algorithm="mixed", J0=J0, Q0=ref.h_backup(model, J0), nk=nk,
            masks=round_robin_masks(model) if masked else None,
            tol=1e-12, max_iter=100_000))
        assert res.termination == "converged", what
        assert_close(res.J, Jstar, what)
        assert_close(res.Q, Qstar, f"{what} Q")

    res = policy_iteration(model, Policy.deterministic(model, [0] * n),
                           SolverConfig(algorithm="pi", max_iter=1000))
    for J in res.values:
        assert_above(J, Jstar, "pi")
    if res.termination == "cycle":
        # Only in N can a greedy policy for J_mu cost more than mu: at a
        # tie of -inf Q-factors the lowest index may be a free loop.
        assert model.regime == "N"
        return
    assert res.termination == "stuck"
    assert_close(ref.bellman_T(model, res.J), res.J, "pi: T J = J")
    if model.regime != "P":
        assert_close(res.J, Jstar, "pi")


@pytest.mark.parametrize("name", ATOMIC_FIXTURES)
def test_enumeration_gives_each_fixture_its_optimum(name):
    fx = fixture(name)
    assert_close(ref.optimal_cost(fx.model), fx.Jstar, name)


@pytest.mark.parametrize("name", ATOMIC_FIXTURES)
def test_solvers_reach_the_enumerated_optimum_on_fixtures(name):
    model = fixture(name).model
    check_solvers(model, ref.optimal_cost(model))


@given(tiny_models())
def test_solvers_reach_the_enumerated_optimum(model):
    check_solvers(model, ref.optimal_cost(model))


@given(planted_models())
def test_solvers_reach_a_planted_optimum(model):
    check_solvers(model, ref.optimal_cost(model))


@pytest.mark.parametrize("name", fixture_names())
def test_the_graph_decides_each_fixture_s_infinities(name):
    fx = fixture(name)
    assert np.array_equal(fx.model.infinite_optimum, np.isinf(fx.Jstar))
    if fx.model.atomic_only:
        assert np.array_equal(fx.model.infinite_optimum, np.isinf(ref.optimal_cost(fx.model)))


@settings(max_examples=1200)
@given(st.one_of(tiny_models(regimes=("N", "P")), planted_models()))
def test_the_graph_decides_the_enumerated_infinities(model):
    assert np.array_equal(model.infinite_optimum, np.isinf(ref.optimal_cost(model)))


# A two-state cycle that pays c every second step: J* = (c inf, c inf).
# The increments of value iteration from zero alternate between 0 and c;
# the graph sees the cycle, and the run pins both states from row 1.  Row
# 1's residual shows the pins' move from zero, row 2's is 0.
@pytest.mark.parametrize("regime, cost", [("N", -1.0), ("P", 1.0)])
def test_value_iteration_on_a_cycle_of_period_two(regime, cost):
    model = TotalCostModel(regime, 1.0, ((AtomicControl("go", 0.0, np.array([0.0, 1.0])),),
                                         (AtomicControl("back", cost, np.array([1.0, 0.0])),)))
    Jstar = ref.optimal_cost(model)
    assert np.array_equal(Jstar, np.full(2, cost * np.inf))
    res = value_iteration(model, np.zeros(2), SolverConfig(algorithm="vi", tol=1e-12,
                                                           max_iter=100_000))
    assert_close(res.J, Jstar, f"vi on the {regime} cycle")
    assert res.divergent == frozenset({0, 1}) and len(res.trace.rows) == 2


# From a finite start, a finite number of powers moves J(x) by a finite
# step per row, so no row reaches J* = -inf on its own; the exact fixed
# point prices the -inf at once, and a finite nk reaches it because the
# run pins it in J0 and Q0, as the model's graph decides.
@pytest.mark.parametrize("nk", [1, 10, "exact"])
def test_mixed_from_zero_reaches_minus_infinity(nk):
    # One state that pays -1 and stays: J* = -inf.
    model = TotalCostModel("N", 1.0, ((AtomicControl("pay", -1.0, np.array([1.0])),),))
    assert ref.optimal_cost(model)[0] == -np.inf
    J0 = np.zeros(1)
    res = mixed_vpi(model, SolverConfig(algorithm="mixed", J0=J0, Q0=ref.h_backup(model, J0),
                                        nk=nk, max_iter=1000))
    assert res.termination == "converged" and res.J[0] == -np.inf


# The pinned mixed-masked runs (nk = 2, round-robin masks) end
# "converged" at J = (1, 1) on FX-P2 and (1, 2, 3) on FX-P4, not at J*.
# Their start 1.5 J* + 1 is 1 where J* is 0, outside P's convergence
# cone, and the unmasked run ends at the same J: the start, not the
# masks, is at fault, and the certificate replay says so.  From 2 J*
# the masked runs reach J* (`check_solvers`).
@pytest.mark.parametrize("name", ["FX-P2", "FX-P4"])
def test_masked_mixed_in_p_ends_where_the_unmasked_run_does(name):
    fx = fixture(name)
    configs = _configs(fx)
    masked = run(fx.model, configs["mixed-masked"])
    plain = run(fx.model, configs["mixed-nk1"])
    assert masked.termination == plain.termination == "converged"
    assert_close(masked.J, plain.J, f"{name} masked vs unmasked")
    assert not np.allclose(masked.J, fx.Jstar)
    checks = {c.name: c for c in verify_certificates(fx.model, masked.trace,
                                                     fx.ground_truth()).checks}
    assert not checks["cone-membership"].passed


# ---------------------------------------------------------------------------
# The exact oracle and the discounted error bound


@given(tiny_models())
def test_exact_enumeration_agrees_with_the_float_one(model):
    exact = ref.exact_optimal_cost(model)
    assert_close([float(v) for v in exact], ref.optimal_cost(model), "exact vs float")


def assert_exact(got, exact, what: str) -> None:
    """The same infinities as the exact values, and finite entries within
    1e-9 relative of them, measured in rationals."""
    got = np.asarray(got, dtype=float)
    assert_close(got, [float(v) for v in exact], what)
    for v, e in zip(got.tolist(), exact):
        if np.isfinite(v):
            assert abs(Fraction(v) - e) <= Fraction(1, 10**9) * (1 + abs(e)), (what, got)


@given(st.one_of(tiny_models(), planted_models()))
def test_exact_q_agrees_with_the_float_backup_of_the_float_optimum(model):
    # the Q* that `check_solvers` judges mixed runs by
    assert_exact(ref.h_backup(model, ref.optimal_cost(model)), ref.exact_optimal_q(model),
                 "H(J*) in floats")


@pytest.mark.parametrize("name", [name for name in ATOMIC_FIXTURES if fixture(name).Qstar
                                  is not None])
def test_exact_q_agrees_with_each_fixture_s_q(name):
    fx = fixture(name)
    assert_exact(fx.Qstar, ref.exact_optimal_q(fx.model), name)


@given(st.one_of(tiny_models(), planted_models()))
def test_the_f_theta_fixed_point_at_the_optimum_is_the_exact_q(model):
    # B = S and a policy greedy for Q*: Q* = H(J*) is then a fixed point
    # of F_theta(.; J*), and the stopping solve finds it.
    Jstar = ref.optimal_cost(model)
    greedy = greedy_select(model, h_backup(model, Jstar))
    Q, _ = q_fixed_point(model, Theta(greedy, model.state_set), Jstar)
    assert_exact(Q, ref.exact_optimal_q(model), "q_fixed_point at J*")


@settings(max_examples=50)
@given(st.one_of(tiny_models(), planted_models()), st.sampled_from([1, 10, "exact"]))
def test_converged_mixed_runs_end_at_the_exact_q(model, nk):
    J0 = mixed_start(model, ref.optimal_cost(model))
    res = mixed_vpi(model, SolverConfig(algorithm="mixed", J0=J0, Q0=ref.h_backup(model, J0),
                                        nk=nk, tol=1e-12, max_iter=100_000))
    assert res.termination == "converged"
    assert_exact(res.Q, ref.exact_optimal_q(model), f"mixed nk={nk}")


@st.composite
def discounted_models(draw):
    """1-4 discounted states with 1-3 controls each: costs in [-2, 2]
    and rows over 1-4 successors, with small integer weights (ties and
    exact values) or with full-precision random ones."""
    n = draw(st.integers(1, 4))
    alpha = draw(st.sampled_from([0.0, 0.5, 0.9, 0.95]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coarse = draw(st.booleans())
    controls = []
    for _ in range(n):
        row = []
        for i in range(draw(st.integers(1, 3))):
            support = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            probs = np.zeros(n)
            probs[support] = (rng.integers(1, 5, support.size) if coarse
                              else rng.random(support.size) + 0.01)
            cost = float(rng.integers(-4, 5) / 2 if coarse else rng.uniform(-2.0, 2.0))
            row.append(AtomicControl(f"u{i}", cost, probs / probs.sum()))
        controls.append(tuple(row))
    return TotalCostModel("D", alpha, tuple(controls))


BOUND_TOL = 1e-9


def _exact_error(values: np.ndarray, exact) -> Fraction:
    """max |values - exact| with no round-off."""
    return max(abs(Fraction(v) - e) for v, e in zip(values.tolist(), exact))


def _check_bound(model, config, exact, floats, what: str):
    """The run ends on the bracket: its J within its error bound of the
    exact J*, a bound within tol, and within the bound of the float
    enumeration too, up to that oracle's own round-off; a mixed run's Q
    within alpha times the bound of the exact Q*, plus Higham's bound on
    the backup H(J) that formed it."""
    res = run(model, config)
    assert res.termination == "converged", what
    bound = res.error_bound
    assert bound is not None and 0.0 <= bound <= config.tol, (what, bound)
    assert _exact_error(res.J, exact) <= Fraction(bound), (what, bound)
    assert (np.abs(res.J - floats) <= bound + 1e-12 * (1.0 + np.abs(floats))).all(), what
    if res.Q is not None:
        alpha = Fraction(model.discount)
        Qstar = [Fraction(g) + alpha * sum(Fraction(p) * j for p, j in zip(row, exact))
                 for g, row in zip(model.pair_costs.tolist(), model.pair_probs.tolist())]
        m = model.num_states + 2
        gamma = m * 2.0 ** -53 / (1.0 - m * 2.0 ** -53)
        scale = float(np.max(np.abs(model.pair_costs) + model.discount
                             * (np.abs(model.pair_probs) @ np.abs(res.J))))
        slack = alpha * Fraction(bound) + Fraction(gamma) * Fraction(scale) * Fraction(1 + 1e-12)
        assert _exact_error(res.Q, Qstar) <= slack, (what, bound)
    if res.policy is not None:
        _check_policy(model, res.policy, exact, 2.0 * bound, what)
    return res


def _check_policy(model, policy, exact, within: float, what: str):
    """The policy is deterministic and costs at most ``within`` above the
    exact J*.  In exact arithmetic a policy greedy for J costs at most
    the bracket's upper end; the floats of its selection may pick a
    control whose backup is up to about one more allowance above the
    least, hence twice the bound."""
    assert policy.chosen_pairs is not None, what
    choices = (policy.chosen_pairs - model.pair_starts).tolist()
    cost = ref.exact_policy_cost(model, choices)
    assert max(c - e for c, e in zip(cost, exact)) <= Fraction(within), (what, within)


@settings(max_examples=60)
@given(discounted_models(), st.data())
def test_discounted_answers_lie_within_their_error_bound(model, data):
    draw = data.draw
    exact = ref.exact_optimal_cost(model)
    floats = ref.optimal_cost(model)
    n = model.num_states
    start = draw(st.sampled_from(["zero", "above", "below", "random"]))
    J0 = {"zero": np.zeros(n), "above": 1.5 * np.abs(floats) + 1.0,
          "below": -1.5 * np.abs(floats) - 1.0,
          "random": np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
          }[start]
    policy = Policy.deterministic(model, [draw(st.integers(0, m - 1))
                                          for m in model.pair_counts().tolist()])
    common = dict(J0=J0, tol=BOUND_TOL, max_iter=5000)
    _check_bound(model, SolverConfig(algorithm="vi", **common), exact, floats, "vi")
    nk = draw(st.sampled_from([1, 10]))
    _check_bound(model, SolverConfig(algorithm="mpi", nk=nk, initial_policy=policy, **common),
                 exact, floats, f"mpi nk={nk}")
    mixed = dict(algorithm="mixed", Q0=h_backup(model, J0),
                 nk=draw(st.sampled_from([1, 10, "exact"])),
                 epsilon=draw(st.sampled_from([0.0, 0.0, 0.25])),
                 initial_policy=draw(st.sampled_from([None, policy])), **common)
    if draw(st.booleans()):
        mixed.update(clamp_lo=floats - draw(st.sampled_from([0.0, 0.5, 3.0])),
                     clamp_hi=floats + draw(st.sampled_from([0.0, 0.5, 3.0])))
    _check_bound(model, SolverConfig(**mixed), exact, floats, f"mixed {mixed}")


# One state that pays 1 and stays, discount 0.5: J* = 2.
ONE_STATE = TotalCostModel("D", 0.5, ((AtomicControl("stay", 1.0, np.array([1.0])),),))


def _one_config(algorithm, J0, **kw):
    return SolverConfig(algorithm=algorithm, J0=J0, Q0=h_backup(ONE_STATE, J0),
                        initial_policy=Policy.deterministic(ONE_STATE, [0]), **kw)


@pytest.mark.parametrize("algorithm", ["vi", "mpi", "mixed"])
def test_a_start_near_the_largest_float_stops_only_once_the_floats_can_show_it(algorithm):
    # span(d) is 0 on every row of a one-state model, and from 1.5e308 the
    # first answer T(J) + c d is a cancellation of two numbers near
    # 0.75e308: without a rounding allowance the run would stop there,
    # with an error near 2.  It stops only once |J| is small enough for
    # the bracket's rounding to fit in tol.
    J0 = np.array([1.5e308])
    res = run(ONE_STATE, _one_config(algorithm, J0, tol=1e-9, max_iter=5000))
    assert res.termination == "converged" and len(res.trace.rows) > 100
    assert _exact_error(res.J, [Fraction(2)]) <= Fraction(res.error_bound) <= 1e-9


def _quiet_row(res) -> bool:
    """Whether the last row meets the residual stop at tol."""
    row = res.trace.rows[-1]
    return max(row.residual, row.extra.get("residual_Q", 0.0)) <= res.trace.config["tol"]


# Where each run of the next test ends at tol 1e-300: the residual stop
# is met only at a float fixed point, which FX-D's vi and mixed do not
# reach in 300 rows (every row's residual stays above 1e-300).
BELOW_ROUND_OFF = {("FX-D", "vi"): "cap", ("FX-D", "mpi"): "converged",
                   ("FX-D", "mixed"): "cap", ("one-state", "vi"): "converged",
                   ("one-state", "mpi"): "converged", ("one-state", "mixed"): "converged"}


@pytest.mark.parametrize("algorithm", ["vi", "mpi", "mixed"])
@pytest.mark.parametrize("name", ["FX-D", "one-state"])
def test_a_tolerance_below_round_off_keeps_the_residual_stop(algorithm, name):
    # At tol 1e-300 the gap reaches exactly 0 in floats, but the rounding
    # allowance of a row never fits: no run stops on its bracket, and
    # each ends where the residual stop ends it, with no error bound.
    model = fixture(name).model if name == "FX-D" else ONE_STATE
    J0 = np.zeros(model.num_states)
    config = SolverConfig(algorithm=algorithm, J0=J0, Q0=h_backup(model, J0),
                          initial_policy=Policy.deterministic(model, [0] * model.num_states),
                          tol=1e-300, max_iter=300)
    try:
        res = run(model, config)
    except SolverCapError as err:
        res = err.result
    assert res.termination == BELOW_ROUND_OFF[name, algorithm]
    assert res.error_bound is None and "error_bound" not in res.trace.config
    if res.termination == "converged":
        assert _quiet_row(res) and res.trace.final_residual == 0.0


def _sparse_model(seed: int, n: int, width: int, alpha: float, cost_hi: float):
    """n discounted states with 3 controls each, every row over ``width``
    random successors with Dirichlet weights, costs uniform in
    [0, cost_hi]."""
    rng = np.random.default_rng(seed)
    controls = []
    for _ in range(n):
        row = []
        for i in range(3):
            probs = np.zeros(n)
            probs[rng.choice(n, size=width, replace=False)] = rng.dirichlet(np.ones(width))
            row.append(AtomicControl(f"u{i}", float(rng.uniform(0.0, cost_hi)),
                                     probs / probs.sum()))
        controls.append(tuple(row))
    return TotalCostModel("D", alpha, tuple(controls))


def _from_zero(model, algorithm):
    n = model.num_states
    J0 = np.zeros(n)
    return run(model, SolverConfig(algorithm=algorithm, J0=J0, Q0=h_backup(model, J0), nk=10,
                                   initial_policy=Policy.deterministic(model, [0] * n),
                                   tol=BOUND_TOL, max_iter=20000))


@pytest.mark.parametrize("algorithm", ["vi", "mpi", "mixed"])
def test_large_costs_on_sparse_rows_stop_on_the_bracket(algorithm):
    # 32 states, 5 successors a row, alpha 0.95 and costs up to 2000:
    # J* reaches about 1.3e4.  An allowance taken over all 32 states,
    # 20 gamma_36 1.3e4 = 1e-9, never fit in tol, and each run reached
    # its cap; over the 5 products a row sums, 20 gamma_9 1.3e4 =
    # 2.6e-10, it does, and the run stops on the bracket with its answer
    # within the bound of the exact J*.
    model = _sparse_model(1, 32, 5, 0.95, 2000.0)
    res = _from_zero(model, algorithm)
    assert res.termination == "converged"
    assert res.error_bound is not None and res.error_bound <= BOUND_TOL
    pi = policy_iteration(model, Policy.deterministic(model, [0] * 32),
                          SolverConfig(algorithm="pi", max_iter=100))
    exact = ref.exact_policy_cost(model, (pi.policy.chosen_pairs - model.pair_starts).tolist())
    alpha = Fraction(model.discount)
    # exact is J*: no pair's exact backup of it lies below it.
    for g, row, x in zip(model.pair_costs.tolist(), model.pair_probs.tolist(),
                         model.pair_state.tolist()):
        assert Fraction(g) + alpha * sum(Fraction(p) * j for p, j in zip(row, exact)
                                         if p) >= exact[x]
    assert _exact_error(res.J, exact) <= Fraction(res.error_bound)
    if res.policy is not None:
        _check_policy(model, res.policy, exact, 2.0 * res.error_bound, algorithm)


@pytest.mark.parametrize("algorithm", ["vi", "mpi", "mixed"])
def test_a_tolerance_the_allowance_cannot_certify_keeps_the_residual_stop(algorithm):
    # 10 states, dense rows, alpha 0.99 and costs up to 1000: J* is about
    # 1.9e4, so the rounding allowance, about 100 gamma_14 1.9e4 = 3e-9,
    # is above tol, though the residual reaches 1e-9.  Each run stops on
    # its first row that meets the residual stop, with no error bound,
    # where a bracket-only stop would run to its cap.
    model = _sparse_model(3, 10, 10, 0.99, 1000.0)
    res = _from_zero(model, algorithm)
    assert res.termination == "converged" and res.error_bound is None
    assert _quiet_row(res)
    assert not any(max(row.residual, row.extra.get("residual_Q", 0.0)) <= BOUND_TOL
                   for row in res.trace.rows[:-1])

"""Stop-rule policy iteration against independent oracles.

`solve_stopping`, `q_fixed_point` and `lp_upper_bound` solve the
stopping problem of theta = (mu, B) and stopping costs J by policy
iteration over pair-level stop rules.  Here, on tiny D, N and P problems
with traps, zero-cost loops, exact ties, infinite stop costs, mixed
policies with zero weights and partial or empty B:

- the start from "continue everywhere" must equal the minimum over all
  2^m stop rules, each priced by the recurrent-class classification of
  `reference_ops` (not the library's pricing), and the sweep from zero
  of `reference_ops`, with the enumerated infinities pinned, wherever
  that sweep ends within its cap;
- the start from "stop everywhere" must equal the downward iteration of
  the constraint map, for deterministic policies in P.

On problems of up to 12 states with 3 controls each, too many rules to
enumerate, the engine, which prices each rule on the states plus a
terminal, must match the pair-level engine of `reference_ops` from both
starts: the same rules priced, the same divergent pairs and infinities,
and the same finite values up to 1e-12 (1 + |v|).
"""

import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_ops as ref
from totaldp.chains import _stop_rule_iteration
from totaldp.extreal import INF
from totaldp.fixtures import fixture
from totaldp.ftheta import Theta, _pairs_in_B, f_theta_power, q_fixed_point
from totaldp.model import AtomicControl, AtomicMix, Policy, TotalCostModel
from totaldp.stopping import (
    StoppingProblem,
    build_stopping,
    lp_upper_bound,
    solve_stopping,
)

# Few distinct values, so that ties are common; costs in N are negated.
MODEL_COSTS = {"D": (-1.0, 0.0, 0.5, 1.0), "N": (0.0, 0.0, -0.5, -1.0),
               "P": (0.0, 0.0, 0.5, 1.0)}
STOP_COSTS = {"D": (-1.0, 0.0, 0.5, 1.0, 3.0), "N": (0.0, -0.5, -1.0, -3.0, -INF, INF),
              "P": (0.0, 0.5, 1.0, 3.0, INF)}
MAX_PAIRS = 7


@st.composite
def stopping_problems(draw, regime=None, deterministic=None, finite_on_b=False,
                      large=False):
    """(model, theta, J): 1-4 states, 1-2 controls, sparse rows with small
    integer weights (so self-loops, traps and zero-cost loops are
    common), and at most MAX_PAIRS pairs, so that every rule can be
    enumerated.  In D, J is finite or +inf everywhere.  ``large`` draws
    up to 12 states with 1-3 controls each instead, and makes about one
    control in four a trap (a self-loop with probability one)."""
    regime = regime or draw(st.sampled_from(["D", "N", "P"]))
    if large:
        n = draw(st.integers(1, 12))
        counts = [draw(st.integers(1, 3)) for _ in range(n)]
    else:
        n = draw(st.integers(1, 4))
        counts = [draw(st.sampled_from([1, 2, 2])) for _ in range(n)]
        while sum(counts) > MAX_PAIRS:
            counts[counts.index(2)] = 1
    controls = []
    for x, k in enumerate(counts):
        row = []
        for i in range(k):
            if large and draw(st.integers(0, 3)) == 0:
                support = [x]
            else:
                support = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                        max_size=min(n, 3), unique=True))
            probs = np.zeros(n)
            probs[support] = draw(st.lists(st.integers(1, 4), min_size=len(support),
                                           max_size=len(support)))
            row.append(AtomicControl(f"u{i}", draw(st.sampled_from(MODEL_COSTS[regime])),
                                     probs / probs.sum()))
        controls.append(tuple(row))
    alpha = draw(st.sampled_from([0.5, 0.9])) if regime == "D" else 1.0
    model = TotalCostModel(regime=regime, discount=alpha, controls=tuple(controls))
    if deterministic is None:
        deterministic = draw(st.sampled_from([True, False, False]))
    if deterministic:
        policy = Policy.deterministic(model, [draw(st.integers(0, k - 1)) for k in counts])
    else:
        acts = []
        for k in counts:
            w = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0]),
                                       min_size=k, max_size=k)))
            if w.sum() == 0.0:
                w[draw(st.integers(0, k - 1))] = 1.0
            acts.append(AtomicMix(w / w.sum()))
        policy = Policy(tuple(acts))
    B = frozenset(x for x in range(n) if draw(st.sampled_from([True, True, False])))
    if regime == "D" and draw(st.integers(0, 4)) == 0:
        J = np.full(n, INF)
    else:
        J = np.array([draw(st.sampled_from(STOP_COSTS[regime])) for _ in range(n)])
        if finite_on_b:
            J[list(B)] = np.where(np.isfinite(J[list(B)]), J[list(B)], 1.0)
    return model, Theta(policy, B), J


def _loop_kernel(model, policy):
    """K[r, r'] = q(x'|r) mu(u'|x'), pair by pair."""
    m = model.num_pairs()
    K = np.zeros((m, m))
    for r in range(m):
        for s, x in enumerate(model.pair_state.tolist()):
            i = s - model.pair_starts[x]
            K[r, s] = model.pair_probs[r, x] * policy.actions[x].weights[i]
    return K


def _chain_values(regime, P, c):
    """Total cost of the chain (P, c) by the recurrent-class reference; in
    D and N, the states that can reach a +inf cost are +inf, and the rest
    is priced by a solve (D) or by the classification (N)."""
    n = len(c)
    if regime == "D":
        up = ref.can_reach(P, {x for x in range(n) if c[x] == INF})
        V = np.full(n, INF)
        fin = sorted(set(range(n)) - up)
        V[fin] = np.linalg.solve((np.eye(n) - P)[np.ix_(fin, fin)], c[fin])
        return V
    # In N a +inf stop cost is paid once: the states that can reach one
    # are +inf, and the rest, which is closed, is classified on its own.
    up = ref.can_reach(P, {x for x in range(n) if c[x] == INF}) if regime == "N" else set()
    rest = sorted(set(range(n)) - up)
    P, c = P[np.ix_(rest, rest)], c[rest]
    sign = 1.0 if regime == "P" else -1.0
    rec = ref.recurrent_states(P)
    divergent = ref._divergent_states(regime, P, c, rec)
    V = np.full(n, INF)
    V[rest] = ref._solve_on_finite_part(np.eye(len(rest)) - P, c, rec, divergent, sign)
    return V


def oracle_values(model, theta, J):
    """The minimum over all stop rules of the rule's pair values.  A rule
    is a Markov chain on the pairs plus a terminal that absorbs at no
    cost: a continuing pair pays g and moves by K, every other pair pays
    J(x) and moves to the terminal."""
    m = model.num_pairs()
    K = _loop_kernel(model, theta.policy)
    stop = J[model.pair_state]
    in_b = [r for r, x in enumerate(model.pair_state.tolist()) if x in theta.B]
    best = np.full(m, INF)
    for choice in itertools.product([False, True], repeat=len(in_b)):
        cont = {r for r, c in zip(in_b, choice) if c}
        P = np.zeros((m + 1, m + 1))
        c = np.zeros(m + 1)
        for r in range(m):
            if r in cont:
                P[r, :m], c[r] = K[r], model.pair_costs[r]
            else:
                P[r, m], c[r] = 1.0, stop[r]
        P[m, m] = 1.0
        best = np.minimum(best, _chain_values(model.regime, model.discount * P, c)[:m])
    return best


def assert_close(got, want, tol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert not np.isnan(got).any()
    assert np.array_equal(got == INF, want == INF)
    assert np.array_equal(got == -INF, want == -INF)
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= tol * (1.0 + np.abs(want[fin])))


@given(stopping_problems())
def test_continue_everywhere_start_is_the_least_rule_value(case):
    model, theta, J = case
    want = oracle_values(model, theta, J)
    prob = StoppingProblem(model=model, theta=theta, J=J)
    sol = solve_stopping(prob)
    assert_close(sol.V, want, 1e-9)
    assert sol.certificate.divergent == frozenset(np.flatnonzero(np.isinf(want)).tolist())
    Q, cert = q_fixed_point(model, theta, J)
    assert_close(Q, ref._continuation_values(prob, want), 1e-9)
    assert cert.iterations == sol.certificate.iterations
    try:
        swept, _ = ref._monotone_limit(
            partial(ref.t_o_apply, prob), model.num_pairs(), model.regime, model.discount,
            ref.FixedPointOptions(tol=1e-12, max_iter=20_000), want)
    except ref.FixedPointError:
        return
    assert_close(sol.V, swept, 1e-8)


@given(stopping_problems(regime="P", deterministic=True, finite_on_b=True))
def test_stop_everywhere_start_is_the_maximal_solution(case):
    model, theta, J = case
    out = lp_upper_bound(model, theta, J)
    assert_close(out.W, ref.downward_W(model, theta, J), 1e-9)


@settings(max_examples=300)
@given(stopping_problems(large=True), st.sampled_from(["continue", "stop"]))
def test_state_chain_matches_the_pair_chain(case, start):
    # "stop" is the start of `lp_upper_bound`; the engine takes it in
    # every regime and for every policy.
    model, theta, J = case
    stop = J[model.pair_state]
    b = _pairs_in_B(model, theta)
    cont = b.copy() if start == "continue" else np.zeros_like(b)
    outcomes = []
    for engine in (_stop_rule_iteration, ref.stop_rule_iteration_pairs):
        try:
            outcomes.append(engine(model, theta.policy, stop, b, cont))
        except RuntimeError as err:
            outcomes.append(repr(err))
    got, want = outcomes
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert got[1] == want[1]
    assert np.array_equal(got[2], want[2])
    assert_close(got[0], want[0], 1e-12)


def _loop(regime, stay):
    """Two states in a zero-cost loop: state 0 stays with probability
    `stay` and otherwise moves to state 1, which moves back to 0."""
    return TotalCostModel(regime=regime, discount=1.0, controls=(
        (AtomicControl("a", 0.0, np.array([stay, 1.0 - stay])),),
        (AtomicControl("b", 0.0, np.array([1.0, 0.0])),),
    ))


def test_tie_slack_keeps_equal_stop_costs():
    # Continuing at state 0 reads 0.2 * -3 + 0.8 * -3, one ulp below the
    # stop cost -3; without the slack the rules cycle between stopping
    # and continuing there.
    model = _loop("N", 0.2)
    theta = Theta(Policy.deterministic(model, [0, 0]), frozenset({0, 1}))
    J = np.array([-3.0, -3.0])
    sol = solve_stopping(build_stopping(model, theta, J))
    assert np.array_equal(sol.V, J)
    # continue everywhere (the loop is free, 0), then stop everywhere
    assert sol.certificate.iterations == 2
    Q, _ = q_fixed_point(model, theta, J)
    assert np.allclose(Q, -3.0, rtol=0.0, atol=1e-15)


def test_the_two_starts_bracket_a_free_loop():
    # In P a zero-cost loop whose stop costs are equal: never stopping
    # costs 0, the least fixed point; stopping everywhere is the
    # constraint program's maximal solution, 1.
    model = _loop("P", 0.5)
    theta = Theta(Policy.deterministic(model, [0, 0]), frozenset({0, 1}))
    J = np.ones(2)
    Q, cert = q_fixed_point(model, theta, J)
    assert np.array_equal(Q, np.zeros(2)) and cert.iterations == 1
    out = lp_upper_bound(model, theta, J)
    assert np.array_equal(out.W, J) and out.certificate.iterations == 1
    assert np.array_equal(out.Qbar, J)


@pytest.mark.parametrize("B", [frozenset(), frozenset({1})])
def test_empty_and_partial_b(B):
    # Pairs outside B stop at J(x), whatever their continuation costs.
    model = _loop("P", 0.5)
    theta = Theta(Policy.deterministic(model, [0, 0]), B)
    J = np.array([2.0, 5.0])
    sol = solve_stopping(build_stopping(model, theta, J))
    assert sol.V[0] == 2.0
    assert sol.V[1] == (2.0 if B else 5.0)


def test_plus_inf_stop_cost_in_n_is_paid_once():
    # FX-N2 with B = {1}: state 1 moves to state 0 at cost -1, and state 0,
    # off B, stops at J(0) = +inf, so every pair is worth +inf.  The
    # pricing used to solve for the +inf stop cost and return NaN.
    model = fixture("FX-N2").model
    theta = Theta(Policy.deterministic(model, [0, 1]), frozenset({1}))
    J = np.full(2, INF)
    sol = solve_stopping(build_stopping(model, theta, J))
    assert np.array_equal(sol.V, np.full(3, INF))
    Q, _ = q_fixed_point(model, theta, J)
    assert np.array_equal(Q, f_theta_power(model, theta, np.zeros(3), J, 50)[0])
    assert np.array_equal(Q, np.full(3, INF))

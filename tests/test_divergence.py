"""Infinite and slowly converging values, run through every route.

Value iteration decides which coordinates of its monotone undiscounted
iteration are infinite with its window rule; the F_theta fixed point and
the stopping solve price stop rules exactly and decide them by
reachability.  Each case here is a two-state chain whose state 0 is an
absorbing cost-free exit, run through all three routes: VI from J0, and
the fixed-point routes with stopping costs J under the only policy,
trusted on every state (one control per state, so pair x is state x).

The last test checks the window rule itself: the library's rule, which
keeps one threshold per row, against `reference_ops.IterateWindowRule`,
which kept the iterates and differenced them again, on drawn sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_ops as ref
from totaldp.extreal import INF
from totaldp.ftheta import Theta, q_fixed_point
from totaldp.model import AtomicControl, Policy, TotalCostModel
from totaldp.solvers import DivergenceRule, SolverConfig, value_iteration
from totaldp.stopping import build_stopping, reconstruct_q, solve_stopping

ROUTES = ("vi", "q_fixed_point", "solve_stopping")


def _two_state(regime, cost, stay):
    """State 1 pays `cost` per step and stays with probability `stay`."""
    return TotalCostModel(regime=regime, discount=1.0, controls=(
        (AtomicControl("rest", 0.0, np.array([1.0, 0.0])),),
        (AtomicControl("go", cost, np.array([1.0 - stay, stay])),),
    ))


def _theta(model):
    return Theta(Policy.deterministic(model, [0, 0]), frozenset({0, 1}))


def _run(route, model, J0, J, tol=1e-10):
    """The values one route reports and the coordinates it put at
    infinity; tol is VI's, the fixed-point routes are exact."""
    if route == "vi":
        res = value_iteration(model, np.array(J0, dtype=float),
                              SolverConfig(algorithm="vi", tol=tol, max_iter=50_000))
        assert res.converged
        return res.J, res.divergent
    J = np.array(J, dtype=float)
    if route == "q_fixed_point":
        Q, cert = q_fixed_point(model, _theta(model), J)
    else:
        prob = build_stopping(model, _theta(model), J)
        sol = solve_stopping(prob)
        Q, cert = reconstruct_q(prob, sol.V), sol.certificate
    return Q, cert.divergent


@pytest.mark.parametrize("route", ROUTES)
def test_p_trap_is_plus_infinity(route):
    model = _two_state("P", 1.0, 1.0)
    values, divergent = _run(route, model, [0.0, 0.0], [0.0, INF])
    assert values[1] == INF and values[0] == 0.0
    assert divergent == frozenset({1})


@pytest.mark.parametrize("route", ROUTES)
def test_n_negative_cycle_is_minus_infinity(route):
    model = _two_state("N", -1.0, 1.0)
    values, divergent = _run(route, model, [0.0, 0.0], [0.0, 0.0])
    assert values[1] == -INF and values[0] == 0.0
    assert divergent == frozenset({1})


@pytest.mark.parametrize("route", ROUTES)
def test_large_cost_trap_is_plus_infinity(route):
    # VI flags it through the window at k = 80; the exact routes by
    # reachability
    model = _two_state("P", 1e12, 1.0)
    values, divergent = _run(route, model, [0.0, 0.0], [0.0, INF])
    assert values[1] == INF and divergent == frozenset({1})


@pytest.mark.parametrize("route", ROUTES)
def test_finite_values_beyond_the_cap_stay_finite(route):
    # exact J(1) = 1e12 / 0.01 = 1e14, where floats are 2**-6 apart; so
    # VI's tol = 1.0 is reachable, and no value cap may send J(1) to +inf
    model = _two_state("P", 1e12, 0.99)
    values, _ = _run(route, model, [0.0, 0.0], [0.0, INF], tol=1.0)
    assert values[1] == pytest.approx(1e14, rel=1e-9)


@pytest.mark.parametrize("route", ROUTES)
def test_slow_exit_at_p_1e2_stays_finite(route):
    p = 1e-2
    model = _two_state("P", 1.0, 1.0 - p)
    values, divergent = _run(route, model, [0.0, 1.5 / p], [0.0, 1.5 / p])
    assert values[1] == pytest.approx(1.0 / p, abs=1e-6)
    assert divergent == frozenset()


@pytest.mark.parametrize("route", [
    pytest.param("vi", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP item 2")),
    "q_fixed_point", "solve_stopping"])
def test_slow_exit_at_p_1e3_stays_finite(route):
    p = 1e-3
    model = _two_state("P", 1.0, 1.0 - p)
    values, _ = _run(route, model, [0.0, 1.5 / p], [0.0, 1.5 / p])
    assert values[1] == pytest.approx(1.0 / p, abs=1e-6)


@st.composite
def window_sequences(draw):
    """A sequence of 130 to 200 iterates after its start, monotone but
    for its infinities and NaN, as a (rows + 1, n) array of 1 to 4
    coordinates.  Each coordinate moves by
    steps a * r**k (some overflowing to infinity), by a every second or
    third row, or by whole numbers held for blocks of 39 to 41 rows, so
    that its increments are exact and an increment 40 rows on can equal
    the threshold 0.9 * 10 = 9 exactly.  From a drawn row on, or at
    that row and every 40th after it, a coordinate may sit at +inf,
    -inf or NaN.  Also whether flagged coordinates are pinned, whether
    a pinned coordinate stays at infinity in later iterates, and whether
    the caller hands the rule the increments it finds finite."""
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(130, 200))
    sign = draw(st.sampled_from([1.0, -1.0]))
    k = np.arange(1, rows + 1)
    X = np.empty((rows + 1, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for x in range(n):
            a = draw(st.sampled_from([0.0, 1e-12, 1e-9, 0.5, 1.0, 1e307]))
            shape = draw(st.sampled_from(["geometric", "every 2", "every 3", "blocks"]))
            if shape == "geometric":
                r = draw(st.sampled_from([1.0, 0.999, 0.9 ** (1 / 40), 0.99, 0.5, 1.05]))
                steps = a * r ** k
            elif shape == "blocks":
                length = draw(st.integers(39, 41))
                held = draw(st.lists(st.sampled_from([0.0, 8.0, 9.0, 10.0, 11.0, 1000.0]),
                                     min_size=rows // length + 1, max_size=rows // length + 1))
                steps = np.repeat(held, length)[:rows]
            else:
                steps = np.where(k % int(shape[-1]) == 0, a, 0.0)
            X[0, x] = draw(st.sampled_from([0.0, 1.0, -3.0]))
            X[1:, x] = X[0, x] + sign * np.cumsum(steps)
            event = draw(st.sampled_from([None, None, None, INF, -INF, np.nan]))
            if event is not None:
                at = draw(st.integers(0, rows))
                X[at::40 if draw(st.booleans()) else 1, x] = event
    return X, sign, draw(st.booleans()), draw(st.booleans()), draw(st.booleans())


@settings(max_examples=300)
@given(window_sequences())
def test_window_rule_flags_what_the_iterate_window_flagged(case):
    # Both rules see the same iterates, each handed over before the pin
    # writes the flagged coordinates into it, as value iteration does;
    # the cumulative flagged sets must agree at every row, and the rule
    # must keep no array that the caller handed it.
    X, sign, pin, stay, hand_inc = case
    rule, want = DivergenceRule(), ref.IterateWindowRule(X[0].copy())
    flagged, want_flagged = np.zeros(X.shape[1], dtype=bool), np.zeros(X.shape[1], dtype=bool)
    prev = X[0].copy()
    for k in range(1, len(X)):
        x = X[k].copy()
        if pin and stay:
            x[want_flagged] = sign * INF
        with np.errstate(invalid="ignore", over="ignore"):
            inc = np.abs(x - prev)
        given_inc = inc if hand_inc and np.isfinite(inc).all() else None
        want_flagged |= want(k, x)
        new = rule(k, x, prev, given_inc)
        if new is not None:
            flagged |= new
        assert flagged.tolist() == want_flagged.tolist(), f"row {k}"
        assert not any(np.shares_memory(kept, handed) for kept in rule._ring
                       for handed in (x, prev, inc))
        if pin:
            x[want_flagged] = sign * INF
        prev = x

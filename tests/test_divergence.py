"""The divergence rule, run through every route that uses it.

Value iteration, the F_theta fixed point and the stopping solve all decide
which coordinates of a monotone undiscounted iteration are infinite with
the same rule.  Each case here is a two-state chain whose state 0 is an
absorbing cost-free exit, run through all three routes: VI from J0, and
the fixed-point routes with stopping costs J under the only policy,
trusted on every state (one control per state, so pair x is state x).
"""

import numpy as np
import pytest

from totaldp.extreal import INF
from totaldp.ftheta import FixedPointError, FixedPointOptions, Theta, q_fixed_point
from totaldp.model import AtomicControl, Policy, TotalCostModel
from totaldp.solvers import SolverConfig, value_iteration
from totaldp.stopping import build_stopping, lp_upper_bound, reconstruct_q, solve_stopping

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
    """The values one route reports and the coordinates it sent to infinity."""
    if route == "vi":
        res = value_iteration(model, np.array(J0, dtype=float),
                              SolverConfig(algorithm="vi", tol=tol, max_iter=50_000))
        assert res.converged
        return res.J, res.divergent
    J = np.array(J, dtype=float)
    opts = FixedPointOptions(tol=tol)
    if route == "q_fixed_point":
        Q, cert = q_fixed_point(model, _theta(model), J, opts)
    else:
        sol = solve_stopping(build_stopping(model, _theta(model), J), opts)
        Q, cert = reconstruct_q(sol.problem, sol.V), sol.certificate
    return Q, cert.promoted


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
def test_values_beyond_the_cap_are_infinite(route):
    model = _two_state("P", 1e12, 1.0)
    values, divergent = _run(route, model, [0.0, 0.0], [0.0, INF])
    assert values[1] == INF and divergent == frozenset({1})


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize("route", ROUTES)
def test_finite_values_beyond_the_cap_stay_finite(route):
    # exact J(1) = 1e12 / 0.01 = 1e14, where floats are 2**-6 apart; so
    # tol = 1.0 is reachable, yet the cap sends J(1) to +inf
    model = _two_state("P", 1e12, 0.99)
    values, _ = _run(route, model, [0.0, 0.0], [0.0, INF], tol=1.0)
    assert values[1] == pytest.approx(1e14, rel=1e-9)


def test_vi_flags_the_cap_before_the_window_warms_up():
    # J_k(1) = k * 1e12 passes the 1e13 cap at k = 11
    res = value_iteration(_two_state("P", 1e12, 1.0), np.zeros(2),
                          SolverConfig(algorithm="vi", tol=1e-10))
    assert [row.extra["divergent"] for row in res.trace.rows[9:11]] == [[], [1]]
    assert len(res.trace.rows) < 80


@pytest.mark.parametrize("route", ROUTES)
def test_slow_exit_at_p_1e2_stays_finite(route):
    p = 1e-2
    model = _two_state("P", 1.0, 1.0 - p)
    values, divergent = _run(route, model, [0.0, 1.5 / p], [0.0, 1.5 / p])
    assert values[1] == pytest.approx(1.0 / p, abs=1e-6)
    assert divergent == frozenset()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize("route", ROUTES)
def test_slow_exit_at_p_1e3_stays_finite(route):
    p = 1e-3
    model = _two_state("P", 1.0, 1.0 - p)
    values, _ = _run(route, model, [0.0, 1.5 / p], [0.0, 1.5 / p])
    assert values[1] == pytest.approx(1.0 / p, abs=1e-6)


def test_fixed_point_routes_raise_at_their_cap():
    model = _two_state("P", 1.0, 0.99)
    J = np.array([0.0, 150.0])
    opts = FixedPointOptions(max_iter=3)
    with pytest.raises(FixedPointError) as err:
        q_fixed_point(model, _theta(model), J, opts)
    assert err.value.bound == "lower"
    with pytest.raises(FixedPointError) as err:
        solve_stopping(build_stopping(model, _theta(model), J), opts)
    assert err.value.bound == "lower"
    with pytest.raises(FixedPointError) as err:
        lp_upper_bound(model, _theta(model), J, max_iter=3)
    assert err.value.bound == "upper" and err.value.last[1] < 150.0

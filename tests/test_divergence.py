"""Infinite and slowly converging values, run through every route.

Value iteration pins the states where J* is infinite, decided on the
model's graph, unless its start bounds J*; the F_theta fixed point and
the stopping solve price stop rules exactly and decide them by
reachability.  Each case here is a two-state chain whose state 0 is an
absorbing cost-free exit, run through all three routes: VI from J0, and
the fixed-point routes with stopping costs J under the only policy,
trusted on every state (one control per state, so pair x is state x).
The slow exits, whose J(1) = 1/p is finite however slowly VI reaches
it, are checked against `reference_ops.optimal_cost`.  The last case,
value iteration on a model with an affine family, is a known wrong
answer, kept as a strict xfail.
"""

import numpy as np
import pytest

import reference_ops as ref
from totaldp.extreal import INF
from totaldp.fixtures import fixture
from totaldp.ftheta import Theta, q_fixed_point
from totaldp.model import AffineFamily, AtomicControl, Policy, TotalCostModel
from totaldp.solvers import SolverCapError, SolverConfig, value_iteration
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
    # VI pins it from its first row, the exact routes price it: both by
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


def _slow_exit(route, p):
    """The slow exit's J(1) by one route, against the enumeration's 1/p."""
    model = _two_state("P", 1.0, 1.0 - p)
    Jstar = ref.optimal_cost(model)
    assert Jstar[1] == pytest.approx(1.0 / p, rel=1e-12)
    values, divergent = _run(route, model, [0.0, 1.5 / p], [0.0, 1.5 / p])
    assert values[1] == pytest.approx(Jstar[1], abs=1e-6)
    assert divergent == frozenset()


@pytest.mark.parametrize("route", ROUTES)
def test_slow_exit_at_p_1e2_stays_finite(route):
    _slow_exit(route, 1e-2)


@pytest.mark.parametrize("route", ROUTES)
def test_slow_exit_at_p_1e3_stays_finite(route):
    _slow_exit(route, 1e-3)


@pytest.mark.parametrize("start", ["above", "zero"])
def test_slow_exit_at_p_1e4_ends_at_the_cap_not_at_infinity(start):
    # J(1) = 1e4 is finite; 50,000 rows leave VI about 34 (from above)
    # or 67 (from zero) away from it, and the run says so: it ends at
    # its cap on the side it came from, and never reports +inf.
    p = 1e-4
    model = _two_state("P", 1.0, 1.0 - p)
    assert np.isfinite(ref.optimal_cost(model)).all()
    J0 = np.array([0.0, 1.5 / p if start == "above" else 0.0])
    with pytest.raises(SolverCapError) as err:
        value_iteration(model, J0, SolverConfig(algorithm="vi", tol=1e-10,
                                                max_iter=50_000))
    result = err.value.result
    assert err.value.bound == ("upper" if start == "above" else "lower")
    assert np.isfinite(result.J).all() and result.divergent == frozenset()
    assert result.trace.columns.entries("extra")[-1]["divergent"] == []


def test_fx_p3a_from_zero_reports_the_trap_from_row_1_and_keeps_the_gap():
    # Affine family at state 2: the graph puts J*(1) = inf (the trap
    # that every interior parameter reaches) and keeps state 2 finite
    # (its unit-cost exit).  The iterate stays unpinned, so the family's
    # infimum sees finite J(1) and value iteration keeps its limit 0 at
    # state 2, below J*(2) = 1: the paper's gap.
    fx = fixture("FX-P3a")
    assert fx.model.infinite_optimum.tolist() == [False, True, False]
    res = value_iteration(fx.model, np.zeros(3), SolverConfig(algorithm="vi", tol=1e-12,
                                                              max_iter=400))
    assert res.termination == "converged" and res.divergent == frozenset({1})
    assert res.J.tolist() == [0.0, INF, 0.0]
    assert all(row.extra["divergent"] == [1] for row in res.trace.rows)


@pytest.mark.xfail(strict=True, reason=(
    "value iteration with an affine family stops on a quiet row of a period-two chain "
    "and leaves J(3) = 0 below J*(3) = 5; what the loop does on family models waits on "
    "ROADMAP item 9"))
def test_vi_with_a_family_state_is_not_stopped_by_a_periodic_chain():
    # State 0 is a cost-free exit; 1 -> 2 costs 0 and 2 -> 1 costs 1, so
    # J*(1) = J*(2) = inf while T^k(0) on them moves only every second
    # row.  State 3 takes the risk into that chain for free or exits at
    # cost 5: J*(3) = 5, and 200 plain T rows from zero give 5 there.
    # State 4's open family goes to 0 w.p. 1 - t and to 1 w.p. t.
    e = np.eye(5)
    family = AffineFamily(lo=0.0, hi=1.0, lo_closed=False, hi_closed=False, c0=0.0,
                          c1=0.0, p0=e[0], p1=e[1] - e[0])
    model = TotalCostModel("P", 1.0, (
        (AtomicControl("rest", 0.0, e[0]),),
        (AtomicControl("go", 0.0, e[2]),),
        (AtomicControl("back", 1.0, e[1]),),
        (AtomicControl("risk", 0.0, e[1]), AtomicControl("exit", 5.0, e[0])),
        ()), families=((), (), (), (), (family,)))
    res = value_iteration(model, np.zeros(5), SolverConfig(algorithm="vi"))
    assert res.J[3] == 5.0

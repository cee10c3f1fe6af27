"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with ``pytest -s`` or on failure).  Most criteria delegate to
the scripted scenarios shared with the command-line ``reproduce``
command; the policy-extraction and asynchronous criteria are exercised
directly here.
"""

import numpy as np

from totaldp.extreal import sup_dist
from totaldp.chains import evaluate_policy
from totaldp.solvers import (
    FullB,
    SolverConfig,
    extract_policy_discounted,
    mixed_vpi,
    round_robin_masks,
)
from totaldp.fixtures import fixture
from totaldp import scenarios


def _check(criterion: str, passed: bool, detail: str = ""):
    mark = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {mark}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def _scenario(criterion: str, name: str):
    rep = scenarios.run_scenario(name)
    failing = [c.label for c in rep.checks if not c.passed]
    _check(criterion, rep.passed, "; ".join(failing) if failing else "")


def test_01_footnote8_nonpositive_trap():
    _scenario("01 footnote-8 model (N)", "footnote8")


def test_02_footnote9_policy_iteration_stalls():
    _scenario("02 footnote-9 model (P)", "footnote9")


def test_03_interval_control_value_iteration_gap():
    _scenario("03 interval-control gap", "cor51-gap")


def test_04_stationary_fixed_points_off_the_optimum():
    _scenario("04 stationary fixed points", "prop51-fixedpoints")


def test_05_discounted_geometric_rate_both_rules():
    _scenario("05 discounted rate (D)", "theorem41-rate")


def test_06_nonpositive_convergence_with_sandwich():
    _scenario("06 nonpositive convergence (N)", "theorem42")


def test_07_downward_value_iteration_and_cone_flags():
    _scenario("07 downward value iteration (P)", "theorem51")


def test_08_convergence_from_zero_set_starts():
    _scenario("08 zero-set starts (P)", "cor51-vi")


def test_09a_mixed_iteration_from_scaled_optimum():
    _scenario("09a mixed from 1.5x optimum (P)", "theorem52")


def test_09b_constraint_program_variant():
    _scenario("09b constraint-program variant (P)", "theorem53")


def test_10_stopping_oracle_suite():
    _scenario("10 stopping-route oracle", "lemmaA1-oracle")


def test_11_program_bound_sandwich():
    _scenario("11 program-bound sandwich", "lemmaA2-bound")


def test_12_optimistic_policy_iteration_equivalence():
    _scenario("12 optimistic-PI equivalence", "footnote5-equiv")


def test_13_countable_state_patterns_and_ladder():
    _scenario("13 countable-state demonstrator", "example51")


def test_14_extracted_policy_bounds():
    fx = fixture("FX-D")
    model = fx.model
    eps = 0.01
    alpha = model.discount
    cfg = SolverConfig(algorithm="mixed", J0=np.zeros(3), Q0=np.zeros(6),
                       nk=5, bstrategy=FullB(), tol=1e-15, max_iter=100,
                       stop_on_tol=False, ground_truth=fx.ground_truth())
    out = mixed_vpi(model, cfg)
    delta = out.trace.dist0
    worst = -np.inf
    last_gap = None
    for row in out.trace.rows:
        Q_k = np.array(row.extra["Q_snapshot"])
        nu, bound = extract_policy_discounted(model, Q_k, epsilon=eps,
                                              delta=delta, k=row.k)
        gap = sup_dist(evaluate_policy(model, nu).J, fx.Jstar)
        worst = max(worst, gap - bound)
        last_gap = gap
    ok_all = worst <= 1e-9
    ok_limsup = last_gap <= eps / (1.0 - alpha) + 1e-9
    _check("14 extracted-policy bounds (D)", ok_all and ok_limsup,
           f"worst bound violation {worst:g}, gap at k=100 {last_gap:g} "
           f"vs {eps / (1.0 - alpha):g}")


def test_15_expected_optimum_vanishes_along_policies():
    _scenario("15 vanishing expected optimum", "lemmaE1")


def test_16_asynchronous_round_robin_masks():
    fx = fixture("FX-D")
    model = fx.model
    cfg = SolverConfig(algorithm="mixed", J0=np.zeros(3), Q0=np.zeros(6),
                       nk=1, bstrategy=FullB(), masks=round_robin_masks(model),
                       tol=1e-12, max_iter=20_000,
                       ground_truth=fx.ground_truth())
    out = mixed_vpi(model, cfg)
    dist = max(sup_dist(out.J, fx.Jstar), sup_dist(out.Q, fx.Qstar))
    _check("16 asynchronous masked updates", out.converged and dist <= 1e-9,
           f"dist={dist:g} after {len(out.trace.rows)} singleton sweeps")

import math

import numpy as np
import pytest

import reference_ops as ref
from totaldp.extreal import INF, sup_dist
from totaldp.model import Policy
from totaldp.operators import bellman_T
from totaldp.chains import evaluate_policy
from totaldp.solvers import SolverConfig, policy_iteration, value_iteration
from totaldp.fixtures import (
    TailConstantVector,
    example51_T,
    example51_limit,
    example51_transfinite_level,
    fixture,
    fixture_names,
    random_model,
    random_policy,
)
from totaldp.modelio import render_model


class TestNamedFixtures:
    def test_declared_optima(self):
        assert np.array_equal(fixture("FX-N2").Jstar, [0.0, -1.0])
        assert np.array_equal(fixture("FX-P2").Jstar, [0.0, 0.0])
        assert np.array_equal(fixture("FX-P3b").Jstar, [0.0, 0.0, 1.0])
        assert np.array_equal(fixture("FX-P4").Jstar, [0.0, 1.0, 2.0])
        p3a = fixture("FX-P3a").Jstar
        assert p3a[0] == 0.0 and p3a[1] == INF and p3a[2] == 1.0

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            fixture("FX-NOPE")
        assert "FX-D" in fixture_names()

    def test_every_optimum_is_a_fixed_point(self):
        for name in fixture_names():
            fx = fixture(name)
            assert sup_dist(bellman_T(fx.model, fx.Jstar), fx.Jstar) <= 1e-12

    def test_discounted_fixture_oracle_cross_check(self):
        fx = fixture("FX-D")
        out = policy_iteration(fx.model, Policy.deterministic(fx.model, [0, 0, 0]),
                               SolverConfig(algorithm="pi", tol=1e-9,
                                            ground_truth=fx.ground_truth()))
        assert out.termination == "optimal-certified"
        assert sup_dist(out.values[-1], fx.Jstar) <= 1e-9


class TestRandomModels:
    def test_same_seed_same_bytes(self):
        a, Ja = random_model(5, regime="P")
        b, Jb = random_model(5, regime="P")
        assert render_model(a) == render_model(b)
        assert np.array_equal(Ja, Jb)

    def test_oracle_is_near_fixed_point(self):
        for regime in ("D", "N", "P"):
            for seed in (0, 1, 2):
                model, Jstar = random_model(seed, regime=regime)
                assert sup_dist(bellman_T(model, Jstar), Jstar) <= 1e-10

    @pytest.mark.parametrize("regime", ["D", "N", "P"])
    def test_oracle_matches_policy_enumeration(self, regime):
        # J* by plain policy iteration against the minimum over every
        # deterministic policy, on 30 draws of 2-6 states and 1-3 controls
        for seed in range(30):
            model, Jstar = random_model(seed, num_states=2 + seed % 5,
                                        controls_per_state=1 + seed % 3, regime=regime)
            assert np.all(np.abs(Jstar - ref.optimal_cost(model)) <= 1e-12)

    def test_discounted_oracle_agrees_with_policy_iteration(self):
        for seed in (3, 4, 5):
            model, Jstar = random_model(seed, regime="D")
            out = policy_iteration(model, random_policy(seed, model,
                                                        deterministic=True),
                                   SolverConfig(algorithm="pi", tol=1e-9,
                                                ground_truth=(Jstar, None)))
            assert sup_dist(out.values[-1], Jstar) <= 1e-9

    def test_absorbing_guarantee_makes_all_policies_finite(self):
        for seed in (6, 7):
            model, _ = random_model(seed, regime="P")
            for pseed in range(4):
                mu = random_policy(pseed, model)
                J = evaluate_policy(model, mu).J
                assert np.isfinite(J).all()

    def test_two_starts_share_a_limit(self):
        for seed in (8, 9):
            model, Jstar = random_model(seed, regime="P")
            lo = value_iteration(model, np.zeros(model.num_states),
                                 SolverConfig(algorithm="vi", tol=1e-13,
                                              max_iter=3000)).J
            hi = value_iteration(model, 2.0 * Jstar,
                                 SolverConfig(algorithm="vi", tol=1e-13,
                                              max_iter=3000)).J
            assert sup_dist(lo, hi) <= 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_model(0, num_states=1)
        with pytest.raises(ValueError):
            random_model(0, regime="P", cost_range=(-1.0, 1.0))
        with pytest.raises(ValueError):
            random_model(0, regime="X")


class TestTailConstantVectors:
    def test_canonical_form(self):
        v = TailConstantVector.of((0, 1, 1, 1), 1)
        assert v.prefix == (0,) and v.tail == 1
        assert v.get(0) == 0 and v.get(3) == 1 and v.get(100) == 1

    def test_backup_patterns_from_zero(self):
        J = TailConstantVector.constant(0)
        for k in range(1, 9):
            J = example51_T(J)
            assert J == TailConstantVector.of((0,) + (1,) * k, 0)

    def test_backup_of_all_infinite_is_fixed(self):
        J = TailConstantVector.constant(math.inf)
        assert example51_T(J) == J
        assert example51_limit(J) == J

    def test_first_limit(self):
        lim = example51_limit(TailConstantVector.constant(0))
        assert lim == TailConstantVector.of((0,), 1)

    def test_ladder_steps_are_plus_one(self):
        levels = [example51_transfinite_level(m) for m in range(11)]
        for m in range(10):
            assert levels[m + 1] == levels[m].plus(1)
            assert levels[m] == TailConstantVector.of((m,), m + 1)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            example51_T(TailConstantVector.of((-1,), 0))


def test_interval_fixture_gap_between_limit_and_optimum():
    fx = fixture("FX-P3a")
    res = value_iteration(fx.model, np.zeros(3),
                          SolverConfig(algorithm="vi", tol=1e-12, max_iter=400))
    assert res.J[2] == 0.0 and fx.Jstar[2] == 1.0

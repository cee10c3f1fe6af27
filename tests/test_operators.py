import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from totaldp.extreal import INF, sup_dist
from totaldp.model import Policy
from totaldp.operators import (
    affine_infimum,
    bellman_T,
    bellman_T_mu,
    greedy_select,
    h_backup,
    m_minimize,
)
from totaldp.fixtures import fixture, random_model, random_policy


class TestAffineInfimum:
    def test_positive_slope_open_interval(self):
        out = affine_infimum(0.5, 2.0, 0.0, 1.0, False, False)
        assert out.value == 0.5 and not out.attained and out.at == 0.0

    def test_infinite_slope_open_interval(self):
        out = affine_infimum(0.0, INF, 0.0, 1.0, False, False)
        assert out.value == INF and not out.attained and out.at is None

    def test_infinite_slope_closed_zero_endpoint(self):
        out = affine_infimum(3.0, INF, 0.0, 1.0, True, False)
        assert out.value == 3.0 and out.attained and out.at == 0.0

    def test_negative_slope_open_interval(self):
        out = affine_infimum(1.0, -3.0, 0.0, 1.0, False, False)
        assert out.value == -2.0 and not out.attained and out.at == 1.0

    def test_closed_endpoint_attains(self):
        out = affine_infimum(1.0, -3.0, 0.0, 1.0, False, True)
        assert out.value == -2.0 and out.attained and out.at == 1.0

    def test_flat_map(self):
        out = affine_infimum(4.0, 0.0, 0.25, 0.75, False, False)
        assert out.value == 4.0 and out.attained

    def test_opposite_infinities_rejected(self):
        with pytest.raises(ValueError):
            affine_infimum(-INF, INF, 0.0, 1.0, False, False)

    def test_negative_infinite_slope(self):
        out = affine_infimum(0.0, -INF, 0.0, 1.0, False, False)
        assert out.value == -INF and out.attained


class TestBellman:
    def test_nonpositive_fixture_backup_from_zero(self):
        fx = fixture("FX-N2")
        assert np.array_equal(bellman_T(fx.model, np.zeros(2)),
                              np.array([0.0, -1.0]))

    def test_interval_state_stays_zero_along_the_whole_run(self):
        fx = fixture("FX-P3a")
        J = np.zeros(3)
        for _ in range(20):
            assert bellman_T(fx.model, J)[2] == 0.0
            J = bellman_T(fx.model, J)

    def test_interval_fixture_optimum_is_fixed(self):
        fx = fixture("FX-P3a")
        assert np.array_equal(bellman_T(fx.model, fx.Jstar), fx.Jstar)

    def test_fixed_policy_backup_agrees_at_optimum(self):
        fx = fixture("FX-N2")
        stay = Policy.deterministic(fx.model, [0, 0])
        assert bellman_T_mu(fx.model, stay, fx.Jstar)[1] == \
            bellman_T(fx.model, fx.Jstar)[1] == -1.0

    def test_suboptimal_policy_fixed_point(self):
        fx = fixture("FX-P2")
        go = Policy.deterministic(fx.model, [0, 1])
        J_go = np.array([0.0, 1.0])
        assert np.array_equal(bellman_T_mu(fx.model, go, J_go), J_go)

    def test_uniform_policy_zero_continuation(self):
        model, _ = random_model(7, regime="D")
        uni = Policy.uniform(model)
        expected = np.array([
            np.mean([c.cost for c in model.controls[x]])
            for x in range(model.num_states)
        ])
        assert np.allclose(bellman_T_mu(model, uni, np.zeros(model.num_states)),
                           expected)


class TestQBackups:
    def test_q_at_optimum(self):
        fx = fixture("FX-P2")
        assert np.array_equal(h_backup(fx.model, fx.Jstar),
                              np.array([0.0, 0.0, 1.0]))

    def test_zero_continuation_returns_costs(self):
        model, _ = random_model(3, regime="D")
        assert np.array_equal(h_backup(model, np.zeros(model.num_states)),
                              model.pair_costs)

    def test_nonpositive_fixture_q(self):
        fx = fixture("FX-N2")
        Q = h_backup(fx.model, fx.Jstar)
        assert Q[fx.model.pair_starts[1] + 0] == -1.0
        assert Q[fx.model.pair_starts[1] + 1] == -1.0

    def test_minimization_recovers_optimum(self):
        fx = fixture("FX-P2")
        assert np.array_equal(m_minimize(fx.model, fx.Qstar), fx.Jstar)

    def test_minimization_rejects_interval_models(self):
        fx = fixture("FX-P3a")
        with pytest.raises(ValueError):
            m_minimize(fx.model, np.zeros(3))

    def test_min_of_backup_is_optimal_backup(self):
        model, _ = random_model(11, regime="D")
        rng = np.random.default_rng(2)
        J = rng.normal(size=model.num_states)
        assert np.allclose(m_minimize(model, h_backup(model, J)),
                           bellman_T(model, J))


class TestGreedy:
    def test_exact_argmin_with_tie_break(self):
        fx = fixture("FX-P2")
        mu = greedy_select(fx.model, fx.Qstar, epsilon=0.0)
        assert mu.action_index(1) == 0  # stay beats go

    def test_equal_values_take_lowest_index(self):
        fx = fixture("FX-N2")
        mu = greedy_select(fx.model, np.array([0.0, -1.0, -1.0]), epsilon=0.0)
        assert mu.action_index(1) == 0

    def test_large_slack_takes_lowest_index(self):
        model, _ = random_model(5, regime="D")
        Q = h_backup(model, np.zeros(model.num_states))
        mu = greedy_select(model, Q, epsilon=1e9)
        assert all(mu.action_index(x) == 0 for x in range(model.num_states))

    @pytest.mark.parametrize("eps", [np.nan, -1.0])
    def test_nan_or_negative_epsilon_is_refused(self, eps):
        fx = fixture("FX-P2")
        with pytest.raises(ValueError, match="epsilon"):
            greedy_select(fx.model, fx.Qstar, epsilon=eps)

    def test_interval_models_are_refused(self):
        fx = fixture("FX-P3a")
        with pytest.raises(ValueError, match="atomic-only"):
            greedy_select(fx.model, np.zeros(fx.model.num_pairs()))

    def test_nan_or_misshapen_q_is_refused(self):
        fx = fixture("FX-P2")
        with pytest.raises(ValueError, match="NaN"):
            greedy_select(fx.model, np.array([0.0, np.nan, 1.0]))
        with pytest.raises(ValueError, match="shape"):
            greedy_select(fx.model, np.zeros(4))

    def test_epsilon_guarantee(self):
        model, _ = random_model(13, regime="D")
        rng = np.random.default_rng(3)
        Q = rng.normal(size=model.num_pairs())
        eps = 0.3
        mu = greedy_select(model, Q, epsilon=eps)
        m = m_minimize(model, Q)
        for x in range(model.num_states):
            assert Q[model.pair_starts[x] + mu.action_index(x)] <= m[x] + eps


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_monotonicity_of_backups(seed):
    model, _ = random_model(17, regime="D")
    rng = np.random.default_rng(seed)
    J = rng.normal(size=model.num_states)
    Jp = J + rng.uniform(0.0, 2.0, size=model.num_states)
    assert np.all(bellman_T(model, J) <= bellman_T(model, Jp) + 1e-12)
    mu = random_policy(seed, model)
    assert np.all(bellman_T_mu(model, mu, J) <= bellman_T_mu(model, mu, Jp) + 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_discounted_contraction(seed):
    model, _ = random_model(19, regime="D", discount=0.9)
    rng = np.random.default_rng(seed)
    J = rng.normal(size=model.num_states)
    Jp = rng.normal(size=model.num_states)
    lhs = sup_dist(bellman_T(model, J), bellman_T(model, Jp))
    assert lhs <= 0.9 * sup_dist(J, Jp) + 1e-12


def test_fixture_optima_are_fixed_points():
    for name in ("FX-N2", "FX-P2", "FX-P3a", "FX-P3b", "FX-P4", "FX-D"):
        fx = fixture(name)
        assert sup_dist(bellman_T(fx.model, fx.Jstar), fx.Jstar) <= 1e-12
        if fx.Qstar is not None:
            assert sup_dist(h_backup(fx.model, fx.Jstar), fx.Qstar) <= 1e-12

import dataclasses

import numpy as np
import pytest

from totaldp import ftheta
from totaldp.extreal import INF, sup_dist
from totaldp.chains import evaluate_policy
from totaldp.model import AtomicControl, Policy, TotalCostModel
from totaldp.operators import bellman_T, h_backup, m_minimize
from totaldp.ftheta import (
    Theta,
    f_theta_apply,
    f_theta_power,
    masked_update,
    q_fixed_point,
)
from totaldp.solvers import SolverConfig, mixed_vpi
from totaldp.stopping import StoppingProblem, build_stopping, lp_upper_bound
from totaldp.fixtures import fixture, random_model, random_policy, random_subset


def _theta(seed, model, full=False):
    policy = random_policy(seed, model)
    B = frozenset(range(model.num_states)) if full else random_subset(seed + 1, model)
    return Theta(policy, B)


class TestApply:
    def test_empty_b_reduces_to_plain_backup(self):
        fx = fixture("FX-P2")
        theta = Theta(random_policy(0, fx.model), frozenset())
        rng = np.random.default_rng(1)
        J = rng.uniform(0, 2, size=2)
        Q = rng.uniform(0, 2, size=3)
        assert np.array_equal(f_theta_apply(fx.model, theta, Q, J),
                              h_backup(fx.model, J))

    def test_optimal_pair_is_fixed(self):
        fx = fixture("FX-P2")
        go = Policy.deterministic(fx.model, [0, 1])
        theta = Theta(go, frozenset({0, 1}))
        out = f_theta_apply(fx.model, theta, fx.Qstar, fx.Jstar)
        assert np.array_equal(out, fx.Qstar)

    def test_deterministic_full_b_form(self):
        model, _ = random_model(41, regime="D")
        mu = random_policy(3, model, deterministic=True)
        theta = Theta(mu, frozenset(range(model.num_states)))
        rng = np.random.default_rng(4)
        J = rng.normal(size=model.num_states)
        Q = rng.normal(size=model.num_pairs())
        out = f_theta_apply(model, theta, Q, J)
        # explicit min{J(x'), Q(x', mu(x'))} form
        w = np.array([min(J[x], Q[model.pair_starts[x] + mu.action_index(x)])
                      for x in range(model.num_states)])
        expected = model.pair_costs + model.discount * (model.pair_probs @ w)
        assert sup_dist(out, expected) <= 1e-14

    def test_rejects_interval_models(self):
        fx = fixture("FX-P3a")
        with pytest.raises(ValueError):
            f_theta_apply(fx.model, Theta(Policy.deterministic(fx.model, [0, 0, 0]),
                                          frozenset()),
                          np.zeros(3), np.zeros(3))

    # {0, 2} and {-1, 1} have as many states as the model: a size test
    # alone would read them as every state.
    @pytest.mark.parametrize("B", [{-1}, {99}, {0, 2}, {-1, 1}],
                             ids=["-1", "99", "0,2", "-1,1"])
    def test_rejects_b_outside_the_states(self, B):
        fx = fixture("FX-P2")
        theta = Theta(Policy.deterministic(fx.model, [0, 1]), frozenset(B))
        with pytest.raises(ValueError, match="B must lie in 0..1"):
            f_theta_apply(fx.model, theta, np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError, match="B must lie in 0..1"):
            f_theta_power(fx.model, theta, np.zeros(3), np.zeros(2), 3)
        with pytest.raises(ValueError, match="B must lie in 0..1"):
            q_fixed_point(fx.model, theta, np.zeros(2))
        with pytest.raises(ValueError, match="B must lie in 0..1"):
            build_stopping(fx.model, theta, np.zeros(2))
        with pytest.raises(ValueError, match="B must lie in 0..1"):
            StoppingProblem(fx.model, theta, np.zeros(2))
        with pytest.raises(ValueError, match="B must lie in 0..1"):
            lp_upper_bound(fx.model, theta, np.zeros(2))


class TestCheckedOncePerModel:
    """A Theta is checked against a model once (Theta, its policy and the
    model are immutable), and afresh against any other model."""

    @staticmethod
    def _count(monkeypatch):
        calls = []
        real = ftheta.validate_policy

        def counting(model, policy):
            calls.append(model)
            return real(model, policy)

        monkeypatch.setattr(ftheta, "validate_policy", counting)
        return calls

    def test_a_mixed_run_validates_each_policy_once(self, monkeypatch):
        calls = self._count(monkeypatch)
        fx = fixture("FX-D")
        J0 = np.zeros(3)
        res = mixed_vpi(fx.model, SolverConfig(algorithm="mixed", J0=J0,
                                               Q0=h_backup(fx.model, J0), nk=3,
                                               tol=1e-10, max_iter=500))
        policies = [row.policy for row in res.trace.rows]
        runs = 1 + sum(a != b for a, b in zip(policies, policies[1:]))
        assert len(policies) > runs  # the run repeats a policy
        assert len(calls) == runs

    def test_another_model_is_checked_afresh(self, monkeypatch):
        calls = self._count(monkeypatch)
        fx = fixture("FX-P2")
        theta = Theta(Policy.deterministic(fx.model, [0, 1]), frozenset({0}))
        Q0, J = np.zeros(3), np.zeros(2)
        for _ in range(3):
            f_theta_power(fx.model, theta, Q0, J, 2)
        q_fixed_point(fx.model, theta, J)
        assert len(calls) == 1
        twin = dataclasses.replace(fx.model)  # the same layout, another object
        Q = f_theta_power(twin, theta, Q0, J, 2)[0]
        assert len(calls) == 2 and calls[1] is twin
        # only the last model that fitted is kept: back to the first, checked again
        assert f_theta_power(fx.model, theta, Q0, J, 2)[0].tobytes() == Q.tobytes()
        assert len(calls) == 3 and calls[2] is fx.model
        other = fixture("FX-P4").model
        for _ in range(2):  # a refusal is not kept: the check runs again
            with pytest.raises(ValueError, match="invalid policy"):
                f_theta_power(other, theta, np.zeros(3), np.zeros(3), 2)
        assert len(calls) == 5 and calls[3] is calls[4] is other
        f_theta_power(fx.model, theta, Q0, J, 2)  # the last model it fitted
        assert len(calls) == 5


class TestFullB:
    """B = S is the model's `state_set`, recognized by identity; a B
    built apart from it gives the same bytes."""

    def test_the_state_set_is_kept_by_identity(self):
        model, _ = random_model(72, regime="D")
        theta = Theta(random_policy(3, model), model.state_set)
        assert theta.B is model.state_set

    @pytest.mark.parametrize("regime", ["D", "N", "P"])
    @pytest.mark.parametrize("deterministic", [True, False])
    def test_a_fresh_full_set_gives_the_same_bytes(self, regime, deterministic):
        model, Jstar = random_model(73, regime=regime)
        fresh = frozenset(range(model.num_states))
        assert fresh is not model.state_set
        policy = random_policy(4, model, deterministic=deterministic)
        Q0 = h_backup(model, 1.5 * Jstar)
        J = 1.5 * Jstar
        results = []
        for B in (model.state_set, fresh):
            theta = Theta(policy, B)
            Q, cert = q_fixed_point(model, theta, J)
            out = [f_theta_power(model, theta, Q0, J, 5)[0].tobytes(), Q.tobytes(), repr(cert)]
            if regime == "P" and deterministic:
                bound = lp_upper_bound(model, theta, J)
                out += [bound.W.tobytes(), bound.Qbar.tobytes(), bound.B_order,
                        repr(bound.certificate)]
            results.append(out)
        assert results[0] == results[1]


class TestPowerAndMonotonicity:
    def test_power_one_is_single_application(self):
        model, _ = random_model(53, regime="D")
        theta = _theta(12, model)
        rng = np.random.default_rng(13)
        J = rng.normal(size=model.num_states)
        Q = rng.normal(size=model.num_pairs())
        Q1, applied = f_theta_power(model, theta, Q, J, 1)
        assert applied == 1
        assert np.array_equal(Q1, f_theta_apply(model, theta, Q, J))

    @pytest.mark.parametrize("regime", ["D", "N", "P"])
    def test_monotone_in_both_arguments(self, regime):
        model, _ = random_model(59, regime=regime)
        theta = _theta(14, model)
        rng = np.random.default_rng(15)
        for n in (1, 3):
            if regime == "D":
                J = rng.normal(size=model.num_states)
                Q = rng.normal(size=model.num_pairs())
            elif regime == "N":
                J = -rng.uniform(0, 3, size=model.num_states)
                Q = -rng.uniform(0, 3, size=model.num_pairs())
            else:
                J = rng.uniform(0, 3, size=model.num_states)
                Q = rng.uniform(0, 3, size=model.num_pairs())
            Jp = J + rng.uniform(0, 1, size=model.num_states)
            Qp = Q + rng.uniform(0, 1, size=model.num_pairs())
            lo, _ = f_theta_power(model, theta, Q, J, n)
            hi, _ = f_theta_power(model, theta, Qp, Jp, n)
            assert np.all(lo <= hi + 1e-12)

    def test_discounted_joint_contraction(self):
        model, _ = random_model(97, regime="D", discount=0.9)
        theta = _theta(33, model)
        rng = np.random.default_rng(34)
        for _ in range(20):
            J = rng.normal(size=model.num_states)
            Jp = rng.normal(size=model.num_states)
            Q = rng.normal(size=model.num_pairs())
            Qp = rng.normal(size=model.num_pairs())
            lhs = sup_dist(f_theta_apply(model, theta, Q, J),
                           f_theta_apply(model, theta, Qp, Jp))
            rhs = 0.9 * max(sup_dist(J, Jp), sup_dist(Q, Qp))
            assert lhs <= rhs + 1e-12

    def test_upper_bound_by_plain_backup(self):
        for regime in ("D", "N", "P"):
            model, Jstar = random_model(61, regime=regime)
            theta = _theta(16, model)
            rng = np.random.default_rng(17)
            sign = -1.0 if regime == "N" else 1.0
            J = sign * rng.uniform(0, 2, size=model.num_states)
            if regime == "D":
                J = rng.normal(size=model.num_states)
            Q = J[model.pair_state]
            F = f_theta_apply(model, theta, Q, J)
            assert np.all(F <= h_backup(model, J) + 1e-12)
            assert np.all(m_minimize(model, F) <= bellman_T(model, J) + 1e-12)


class TestFixedPoint:
    @pytest.mark.parametrize("regime", ["D", "N", "P"])
    def test_optimal_inputs_return_optimal_q(self, regime):
        model, Jstar = random_model(67, regime=regime)
        theta = _theta(18, model)
        Q, cert = q_fixed_point(model, theta, Jstar)
        assert sup_dist(Q, h_backup(model, Jstar)) <= 1e-10

    def test_residual_certificate(self):
        model, Jstar = random_model(71, regime="D")
        theta = _theta(19, model)
        rng = np.random.default_rng(20)
        J = rng.normal(size=model.num_states)
        Q, cert = q_fixed_point(model, theta, J)
        again = f_theta_apply(model, theta, Q, J)
        assert sup_dist(again, Q) <= cert.residual + 1e-15
        assert cert.bound == "two-sided" and cert.error_bound <= 1e-11

    @pytest.mark.parametrize("name", ["FX-N2", "FX-P4"])
    def test_undiscounted_bound_is_infinite_at_zero_residual(self, name):
        # No a-posteriori bound exists in N or P: an exact zero residual
        # must not read as a zero error.
        fx = fixture(name)
        theta = Theta(Policy.deterministic(fx.model, [0] * fx.model.num_states),
                      fx.model.state_set)
        _, cert = q_fixed_point(fx.model, theta, fx.Jstar)
        assert cert.residual == 0.0
        assert cert.error_bound == INF

    def test_monotone_in_stopping_costs(self):
        model, Jstar = random_model(73, regime="P")
        theta = _theta(21, model)
        base, _ = q_fixed_point(model, theta, Jstar)
        above, _ = q_fixed_point(model, theta, Jstar + 0.5)
        assert np.all(above >= base - 1e-12)

    def test_discounted_distance_bound(self):
        fx = fixture("FX-D")
        theta = _theta(22, fx.model)
        rng = np.random.default_rng(23)
        J = fx.Jstar + rng.uniform(-1, 1, size=3)
        Q, _ = q_fixed_point(fx.model, theta, J)
        assert sup_dist(Q, fx.Qstar) <= 0.9 * sup_dist(J, fx.Jstar) + 1e-10

    def test_power_contracts_toward_fixed_point(self):
        fx = fixture("FX-D")
        theta = _theta(24, fx.model)
        rng = np.random.default_rng(25)
        J = fx.Jstar + rng.uniform(-1, 1, size=3)
        Qfix, _ = q_fixed_point(fx.model, theta, J)
        Q = rng.normal(size=fx.model.num_pairs())
        d0 = sup_dist(Q, Qfix)
        Q3, _ = f_theta_power(fx.model, theta, Q, J, 3)
        assert sup_dist(Q3, Qfix) <= 0.9 ** 3 * d0 + 1e-10

    def test_footnote_form_with_unbounded_stopping_costs(self):
        fx = fixture("FX-D")
        mu = Policy.deterministic(fx.model, [1, 0, 1])
        theta = Theta(mu, frozenset({0, 1, 2}))
        rng = np.random.default_rng(26)
        Q = rng.normal(size=fx.model.num_pairs())
        Jinf = np.full(3, INF)
        out = f_theta_apply(fx.model, theta, Q, Jinf)
        w = np.array([Q[fx.model.pair_starts[x] + mu.action_index(x)]
                      for x in range(3)])
        expected = fx.model.pair_costs + 0.9 * (fx.model.pair_probs @ w)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("regime", ["D", "N", "P"])
    def test_all_infinite_stop_costs_give_the_fixed_policy_q(self, regime):
        # No pair ever stops at +inf, in any regime: the fixed point is
        # the policy's own Q-vector.
        model, _ = random_model(97, regime=regime)
        theta = Theta(random_policy(33, model), frozenset(range(model.num_states)))
        Q, cert = q_fixed_point(model, theta, np.full(model.num_states, INF))
        J_mu = evaluate_policy(model, theta.policy).J
        assert sup_dist(Q, h_backup(model, J_mu)) <= 1e-12
        assert cert.iterations == 1 and cert.divergent == frozenset()

    @pytest.mark.parametrize("regime, J, cost", [
        ("P", [-INF, -INF], 0.0), ("P", [INF, -1.0], 0.0), ("N", [0.5, INF], 0.0),
        ("D", [-INF, 0.0], 0.0), ("D", [np.nan, 1.0], 0.0), ("P", [INF, 0.0], -INF)])
    def test_rejects_costs_that_break_the_regime(self, regime, J, cost):
        # J = [-inf, -inf] in P once gave Q = [nan, nan] (f_theta_power
        # gives [-inf, -inf]); a -inf cost in P gave NaN or a rule cycle
        model = TotalCostModel(regime, 0.9 if regime == "D" else 1.0, (
            (AtomicControl("leave", 0.0, np.array([0.73, 0.27])),),
            (AtomicControl("stay", cost, np.array([0.0, 1.0])),)))
        theta = Theta(Policy.deterministic(model, [0, 0]), frozenset({0, 1}))
        with pytest.raises(ValueError, match="conform to the model regime"):
            q_fixed_point(model, theta, np.array(J))


class TestMaskedUpdate:
    @staticmethod
    def _case(model_seed, theta_seed):
        model, _ = random_model(model_seed, regime="D")
        theta = _theta(theta_seed, model)
        rng = np.random.default_rng(theta_seed + 1)
        return (model, theta, rng.normal(size=model.num_states),
                rng.normal(size=model.num_pairs()))

    def test_full_masks_match_one_step(self):
        model, theta, J, Q = self._case(79, 27)
        newQ, newJ, applied = masked_update(model, theta, Q, J,
                                            np.ones(model.num_pairs(), dtype=bool),
                                            np.ones(model.num_states, dtype=bool), n=1)
        fullQ = f_theta_apply(model, theta, Q, J)
        assert applied == 1
        assert np.array_equal(newQ, fullQ)
        assert np.array_equal(newJ, m_minimize(model, fullQ))

    def test_empty_masks_are_identity(self):
        model, theta, J, Q = self._case(83, 29)
        newQ, newJ, applied = masked_update(model, theta, Q, J,
                                            np.zeros(model.num_pairs(), dtype=bool),
                                            np.zeros(model.num_states, dtype=bool), n=2)
        assert 1 <= applied <= 2
        assert np.array_equal(newQ, Q) and newQ is not Q
        assert np.array_equal(newJ, J) and newJ is not J

    def test_partial_mask_touches_only_masked_entries(self):
        model, theta, J, Q = self._case(89, 31)
        pair_mask = np.zeros(model.num_pairs(), dtype=bool)
        pair_mask[2] = True
        state_mask = np.zeros(model.num_states, dtype=bool)
        state_mask[0] = True
        newQ, newJ, _ = masked_update(model, theta, Q, J, pair_mask, state_mask, n=1)
        fullQ = f_theta_apply(model, theta, Q, J)
        assert newQ[2] == fullQ[2]
        assert np.array_equal(newQ[~pair_mask], Q[~pair_mask])
        assert newJ[0] == m_minimize(model, newQ)[0]
        assert np.array_equal(newJ[1:], J[1:])

    @pytest.mark.parametrize("which", ["pair-short", "state-long", "state-one",
                                       "index-list", "int-array"])
    def test_rejects_masks_that_do_not_fit_the_model(self, which):
        # A one-entry mask would broadcast in np.where, and an index list
        # would be cast: both are refused.
        model, theta, J, Q = self._case(89, 31)
        pair_mask = np.ones(model.num_pairs(), dtype=bool)
        state_mask = np.ones(model.num_states, dtype=bool)
        bad = {"pair-short": ("pair", pair_mask[:-1]),
               "state-long": ("state", np.ones(model.num_states + 1, dtype=bool)),
               "state-one": ("state", np.ones(1, dtype=bool)),
               "index-list": ("state", [0]),
               "int-array": ("pair", np.ones(model.num_pairs(), dtype=int))}
        what, mask = bad[which]
        if what == "pair":
            pair_mask = mask
        else:
            state_mask = mask
        with pytest.raises(ValueError, match=f"the {what} mask must be a 1-D boolean array"):
            masked_update(model, theta, Q, J, pair_mask, state_mask)

import numpy as np
import pytest

import reference_ops as ref
from totaldp.extreal import INF, sup_dist, xdiff
from totaldp.model import AtomicControl, Policy, TotalCostModel, _atomic_rows, policy_mix
from totaldp.operators import bellman_T, h_backup
from totaldp.ftheta import Theta, f_theta_apply, q_fixed_point
from totaldp.stopping import (
    AssumptionError,
    StoppingProblem,
    build_stopping,
    lp_upper_bound,
    reconstruct_q,
    solve_stopping,
)
from totaldp.fixtures import fixture, random_model, random_policy, random_subset


def _go_theta(fx, B=None):
    go = Policy.deterministic(fx.model, [0, 1])
    return Theta(go, frozenset({0, 1}) if B is None else frozenset(B))


class TestBuild:
    def test_keeps_a_read_only_copy_of_the_stop_costs(self):
        fx = fixture("FX-P2")
        J = np.array([0.0, 0.5])
        prob = build_stopping(fx.model, _go_theta(fx), J)
        J[1] = 9.0
        assert np.array_equal(prob.J, [0.0, 0.5])
        assert not prob.J.flags.writeable

    def test_kernel_rows_sum_to_one(self):
        # A stop rule's chain on the states: each state's continuing mass
        # (the kept pairs' rows) and its stopping mass, which leaves for
        # the terminal, make up the policy's whole mass.
        model, _ = random_model(101, regime="P")
        policy = random_policy(1, model)
        rng = np.random.default_rng(7)
        for keep in (np.ones(model.num_pairs(), bool), np.zeros(model.num_pairs(), bool),
                     rng.random(model.num_pairs()) < 0.5):
            rows, _ = _atomic_rows(model, policy, None, keep)
            stopping = policy_mix(model, policy, np.where(keep, 0.0, 1.0))
            assert np.allclose(rows.sum(axis=1) + stopping, 1.0)
            if not keep.any():
                assert not rows.any()

    def test_kernel_spans_only_admissible_pairs(self):
        # control name sets differ across states, so B x C holds combos
        # (0, "right") and (1, "left") that are not pairs of the model
        model = TotalCostModel(
            regime="P", discount=1.0,
            controls=(
                (AtomicControl("left", 0.0, np.array([1.0, 0.0])),),
                (AtomicControl("right", 1.0, np.array([1.0, 0.0])),),
            ),
        )
        theta = Theta(Policy.deterministic(model, [0, 0]), frozenset({0, 1}))
        J = np.array([5.0, 5.0])
        prob = build_stopping(model, theta, J)
        sol = solve_stopping(prob)
        Q = reconstruct_q(prob, sol.V)
        assert sol.V.shape == Q.shape == (2,)
        # Pair (0, "left") loops for free; pair (1, "right") pays 1 and
        # joins it: both continue.
        assert np.array_equal(sol.V, [0.0, 1.0])
        assert not (J[model.pair_state] <= Q).any()
        b = np.ones(2, bool)
        want, _, _ = ref.stop_rule_iteration_pairs(model, theta.policy, J, b, b)
        assert np.array_equal(sol.V, want)

    def test_empty_b_makes_everything_stop_only(self):
        fx = fixture("FX-P2")
        prob = build_stopping(fx.model, _go_theta(fx, B=set()), fx.Jstar)
        sol = solve_stopping(prob)
        assert np.array_equal(sol.V, fx.Jstar[fx.model.pair_state])

    def test_rejects_nonconforming_costs(self):
        fx = fixture("FX-P2")
        with pytest.raises(ValueError):
            build_stopping(fx.model, _go_theta(fx), np.array([-1.0, 0.0]))


# (regime, J, cost of the second pair): stop costs and pair costs that
# break the regime, and +inf entries that every regime admits.
ADMISSION = [
    ("P", [-INF, -INF], 0.0), ("P", [INF, -1.0], 0.0), ("N", [0.5, INF], 0.0),
    ("D", [-INF, 0.0], 0.0), ("D", [np.nan, 1.0], 0.0), ("P", [INF, 0.0], -INF),
    ("N", [0.0, -1.0], 2.0), ("P", [np.nan, 0.0], 0.0),
    ("D", [INF, INF], 0.0), ("N", [INF, INF], 0.0), ("P", [INF, INF], 0.0),
    ("D", [INF, 1.0], 0.0), ("N", [-INF, INF], -1.0), ("P", [INF, 0.5], INF),
    ("N", [0.0, -2.0], -INF), ("D", [0.0, 1.0], 0.5),
]


class TestAdmission:
    """build_stopping, a StoppingProblem built directly and q_fixed_point
    admit by one rule: J and the pair costs conform to the regime, +inf
    entries aside."""

    @pytest.mark.parametrize("regime, J, cost", ADMISSION)
    def test_both_routes_accept_and_refuse_alike(self, regime, J, cost):
        model = TotalCostModel(regime, 0.9 if regime == "D" else 1.0, (
            (AtomicControl("leave", 0.0, np.array([0.73, 0.27])),),
            (AtomicControl("stay", cost, np.array([0.0, 1.0])),)))
        theta = Theta(Policy.deterministic(model, [0, 0]), frozenset({0, 1}))
        J = np.array(J)
        outcomes = []
        for route in (lambda: build_stopping(model, theta, J),
                      lambda: StoppingProblem(model, theta, J),
                      lambda: q_fixed_point(model, theta, J)):
            try:
                outcomes.append(route())
            except ValueError as err:
                assert "conform to the model regime" in str(err)
                outcomes.append(None)
        problem, direct, fixed = outcomes
        assert (problem is None) == (direct is None) == (fixed is None)
        if problem is not None:
            q_route = reconstruct_q(problem, solve_stopping(problem).V)
            assert q_route.tobytes() == fixed[0].tobytes()


# (B, J) on FX-P4 under its only policy: a NaN stop cost off B, a stop
# cost of the wrong sign, and a B outside the states.
REFUSED = [({2}, [0.0, np.nan, 2.0], "conform to the model regime"),
           ({0, 1, 2}, [0.0, -1.0, 2.0], "conform to the model regime"),
           ({3}, [0.0, 1.0, 2.0], "B must lie in 0..2")]


@pytest.mark.parametrize("B, J, reason", REFUSED, ids=["nan-off-B", "wrong-sign", "B-outside"])
def test_the_three_entries_refuse_alike(B, J, reason):
    # The fixed point, the stopping problem and the constraint bound run
    # one admitted solve, so they refuse the same inputs with the same
    # ValueError.
    fx = fixture("FX-P4")
    theta = Theta(Policy.deterministic(fx.model, [0, 0, 0]), frozenset(B))
    errors = []
    for entry in (q_fixed_point, build_stopping, lp_upper_bound):
        with pytest.raises(ValueError) as err:
            entry(fx.model, theta, np.array(J))
        errors.append((type(err.value), str(err.value)))
    assert errors[0][0] is ValueError and reason in errors[0][1]
    assert errors[1] == errors[0] and errors[2] == errors[0]


class TestBackup:
    def test_capped_by_stop_costs(self):
        model, _ = random_model(103, regime="P")
        theta = Theta(random_policy(4, model), random_subset(5, model))
        J = np.random.default_rng(6).uniform(0, 3, size=model.num_states)
        prob = build_stopping(model, theta, J)
        V = J[model.pair_state]
        out = ref.t_o_apply(prob, V)
        assert np.all(out <= V + 1e-15)

    def test_matches_two_action_model_backup(self):
        # materialize the stopping problem as a plain model over pair
        # states plus a terminal state and compare one optimal backup
        model, _ = random_model(107, regime="P")
        theta = Theta(random_policy(7, model), random_subset(8, model))
        rng = np.random.default_rng(9)
        J = rng.uniform(0, 3, size=model.num_states)
        prob = build_stopping(model, theta, J)
        npairs = model.num_pairs()
        K = ref.pair_kernel_one_hot(model, theta.policy)
        controls = []
        for r, (x, i) in enumerate(model.pairs):
            acts = [AtomicControl("stop", J[x],
                                  np.eye(npairs + 1)[npairs])]
            if x in theta.B:
                row = np.concatenate([K[r], [0.0]])
                acts.append(AtomicControl("continue", model.pair_costs[r], row))
            controls.append(tuple(acts))
        controls.append((AtomicControl("rest", 0.0, np.eye(npairs + 1)[npairs]),))
        as_model = TotalCostModel(regime="P", discount=1.0,
                                  controls=tuple(controls))
        rng2 = np.random.default_rng(10)
        V = rng2.uniform(0, 2, size=npairs)
        direct = ref.t_o_apply(prob, V)
        via_model = bellman_T(as_model, np.concatenate([V, [0.0]]))[:-1]
        assert sup_dist(direct, via_model) <= 1e-12

    def test_known_value_on_paying_fixture(self):
        fx = fixture("FX-P2")
        prob = build_stopping(fx.model, _go_theta(fx), fx.Jstar)
        V1 = ref.t_o_apply(prob, np.zeros(3))
        assert V1[fx.model.pair_starts[1] + 0] == 0.0


class TestSolveAndReconstruct:
    @pytest.mark.parametrize("regime", ["D", "N", "P"])
    def test_continuation_values_are_fixed(self, regime):
        model, _ = random_model(109, regime=regime)
        theta = Theta(random_policy(11, model), random_subset(12, model))
        rng = np.random.default_rng(13)
        sign = -1.0 if regime == "N" else 1.0
        J = sign * rng.uniform(0, 2, size=model.num_states)
        if regime == "D":
            J = rng.normal(size=model.num_states)
        prob = build_stopping(model, theta, J)
        fstar = reconstruct_q(prob, solve_stopping(prob).V)
        again = f_theta_apply(model, theta, fstar, J)
        b = np.isin(model.pair_state, sorted(theta.B))
        assert sup_dist(again[b], fstar[b]) <= 1e-9

    def test_reconstruction_agrees_with_direct_fixed_point(self):
        for seed in range(10):
            model, _ = random_model(113 + seed, regime="P")
            theta = Theta(random_policy(seed, model), random_subset(seed + 99, model))
            J = np.random.default_rng(seed).uniform(0, 2, size=model.num_states)
            prob = build_stopping(model, theta, J)
            sol = solve_stopping(prob)
            direct, _ = q_fixed_point(model, theta, J)
            assert sup_dist(reconstruct_q(prob, sol.V), direct) <= 1e-9

    def test_empty_b_reconstruction_is_plain_backup(self):
        model, _ = random_model(127, regime="P")
        theta = Theta(random_policy(14, model), frozenset())
        J = np.random.default_rng(15).uniform(0, 2, size=model.num_states)
        prob = build_stopping(model, theta, J)
        sol = solve_stopping(prob)
        assert sup_dist(reconstruct_q(prob, sol.V), h_backup(model, J)) <= 1e-12

    def test_stop_rule_is_optimal_under_nonnegative_costs(self):
        # evaluate the extracted stationary stop/continue rule in the
        # materialized two-action model and compare to the solved values
        from totaldp.chains import evaluate_policy
        for seed in (5, 6, 7):
            model, _ = random_model(131 + seed, regime="P")
            theta = Theta(random_policy(seed, model), random_subset(seed + 7, model))
            J = np.random.default_rng(seed).uniform(0, 2, size=model.num_states)
            prob = build_stopping(model, theta, J)
            sol = solve_stopping(prob)
            # stop on B where J(x) <= the continuation value; off B always
            stop_rule = J[model.pair_state] <= reconstruct_q(prob, sol.V)
            npairs = model.num_pairs()
            K = ref.pair_kernel_one_hot(model, theta.policy)
            controls = []
            choices = []
            for r, (x, i) in enumerate(model.pairs):
                acts = [AtomicControl("stop", J[x], np.eye(npairs + 1)[npairs])]
                if x in theta.B:
                    acts.append(AtomicControl(
                        "continue", model.pair_costs[r],
                        np.concatenate([K[r], [0.0]])))
                controls.append(tuple(acts))
                choices.append(0 if stop_rule[r] or len(acts) == 1 else 1)
            controls.append((AtomicControl("rest", 0.0, np.eye(npairs + 1)[npairs]),))
            as_model = TotalCostModel(regime="P", discount=1.0,
                                      controls=tuple(controls))
            rule = Policy.deterministic(as_model, choices + [0])
            value = evaluate_policy(as_model, rule).J[:-1]
            assert sup_dist(value, sol.V) <= 1e-9


class TestProgramBound:
    def test_hand_solved_bound_on_paying_fixture(self):
        fx = fixture("FX-P2")
        theta = _go_theta(fx, B={1})
        out = lp_upper_bound(fx.model, theta, np.zeros(2))
        assert np.array_equal(out.W, np.zeros(1))
        assert np.array_equal(out.Qbar, np.array([0.0, 0.0, 1.0]))

    def test_empty_b_gives_plain_backup(self):
        fx = fixture("FX-P2")
        theta = _go_theta(fx, B=set())
        J = np.array([0.5, 1.5])
        out = lp_upper_bound(fx.model, theta, J)
        assert np.array_equal(out.Qbar, h_backup(fx.model, J))

    def test_sandwich_inequalities(self):
        for seed in range(10):
            model, _ = random_model(139 + seed, regime="P")
            theta = Theta(random_policy(seed, model, deterministic=True),
                          random_subset(seed + 3, model))
            J = np.random.default_rng(seed).uniform(0, 3, size=model.num_states)
            out = lp_upper_bound(model, theta, J)
            assert out.certificate.upper_margin >= -1e-10
            # Lemma A.2: Qbar >= Q_theta, the fixed point by the stopping route
            prob = build_stopping(model, theta, J)
            Qtheta = reconstruct_q(prob, solve_stopping(prob).V)
            assert xdiff(out.Qbar, Qtheta).min(initial=0.0) >= -1e-10

    def test_maximality_of_the_solution(self):
        model, _ = random_model(149, regime="P")
        theta = Theta(random_policy(16, model, deterministic=True),
                      frozenset(range(model.num_states)))
        J = np.random.default_rng(17).uniform(0.5, 3, size=model.num_states)
        out = lp_upper_bound(model, theta, J)
        B = list(out.B_order)
        rows = np.stack([model.controls[x][theta.policy.action_index(x)].probs
                         for x in B])
        g_mu = np.array([model.controls[x][theta.policy.action_index(x)].cost
                         for x in B])
        in_B = np.zeros(model.num_states, dtype=bool)
        in_B[B] = True
        const = g_mu + rows[:, ~in_B] @ J[~in_B]

        def feasible(W):
            return (np.all(W <= J[B] + 1e-12)
                    and np.all(W <= const + rows[:, B] @ W + 1e-12))

        assert feasible(out.W)
        for i in range(len(B)):
            bumped = out.W.copy()
            bumped[i] += 1e-6
            assert not feasible(bumped)

    def test_downward_iterates_dominate_every_feasible_point(self):
        model, _ = random_model(151, regime="P")
        theta = Theta(random_policy(18, model, deterministic=True),
                      frozenset(range(model.num_states)))
        rng = np.random.default_rng(19)
        J = rng.uniform(0.5, 3, size=model.num_states)
        out = lp_upper_bound(model, theta, J)
        B = list(out.B_order)
        rows = np.stack([model.controls[x][theta.policy.action_index(x)].probs
                         for x in B])
        g_mu = np.array([model.controls[x][theta.policy.action_index(x)].cost
                         for x in B])
        const = g_mu  # B is everything, no off-B term
        # random feasible points: scale down the maximal solution, then
        # re-apply the constraint map once (keeps feasibility)
        for _ in range(20):
            W = out.W * rng.uniform(0.0, 1.0)
            W = np.minimum(J[B], const + rows[:, B] @ W)
            assert np.all(W <= out.W + 1e-10)

    def test_infinite_stop_cost_on_b_is_rejected(self):
        fx = fixture("FX-P3a")  # has an infinite optimal entry
        model, _ = random_model(157, regime="P")
        theta = Theta(random_policy(20, model, deterministic=True),
                      frozenset({1}))
        J = np.zeros(model.num_states)
        J[1] = INF
        with pytest.raises(AssumptionError) as err:
            lp_upper_bound(model, theta, J)
        assert "state 1" in str(err.value)

    def test_randomized_policy_rejected(self):
        model, _ = random_model(167, regime="P")
        theta = Theta(random_policy(24, model), frozenset({0}))
        if theta.policy.is_deterministic():
            pytest.skip("seed produced a deterministic policy")
        with pytest.raises(ValueError):
            lp_upper_bound(model, theta, np.zeros(model.num_states))

import dataclasses
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference_ops as ref
from totaldp import solvers
from totaldp.extreal import INF, margin_leq, sup_dist
from totaldp.ftheta import Theta
from totaldp.model import AtomicControl, Policy, TotalCostModel
from totaldp.modelio import trace_to_csv
from totaldp.operators import bellman_T, bellman_T_mu, h_backup, m_minimize
from totaldp.chains import evaluate_policy
from totaldp.solvers import (
    ALGORITHMS,
    CustomB,
    FullB,
    J_SNAPSHOT,
    OccupationSupportB,
    Q_SNAPSHOT,
    SolverCapError,
    SolverConfig,
    cone_multiplier,
    extract_policy_discounted,
    lp_variant_vpi,
    mixed_vpi,
    modified_policy_iteration,
    policy_iteration,
    round_robin_masks,
    run,
    value_iteration,
    verify_certificates,
)
from totaldp.fixtures import fixture, random_model, random_policy

# A one-row mask schedule: one pair and one state, as boolean masks.
ONE_ROW = [(np.array([True]), np.array([True]))]


class TestValueIteration:
    def test_constant_trace_on_stationary_start(self):
        fx = fixture("FX-P3b")
        J_mu = np.array([0.0, 1.0, 2.0])
        res = value_iteration(fx.model, J_mu,
                              SolverConfig(algorithm="vi", tol=1e-15, max_iter=10,
                                           stop_on_tol=False))
        assert np.array_equal(res.J, J_mu)
        assert all(row.residual == 0.0 for row in res.trace.rows)

    def test_cap_error_carries_bound_direction(self):
        fx = fixture("FX-P4")
        with pytest.raises(SolverCapError) as err:
            value_iteration(fx.model, np.zeros(3),
                            SolverConfig(algorithm="vi", tol=1e-30, max_iter=2))
        assert err.value.bound == "lower"
        assert err.value.trace.rows

    def test_monotone_direction_recorded(self):
        fx = fixture("FX-P4")
        res = value_iteration(fx.model, 2.0 * fx.Jstar,
                              SolverConfig(algorithm="vi", tol=1e-12, max_iter=50))
        assert res.trace.rows[0].extra["direction"] == "nonincreasing"


class TestPolicyIteration:
    def test_discounted_runs_decrease_and_reach_the_optimum(self):
        fx = fixture("FX-D")
        mu0 = Policy.deterministic(fx.model, [1, 1, 1])
        out = policy_iteration(fx.model, mu0,
                               SolverConfig(algorithm="pi", tol=1e-9,
                                            ground_truth=fx.ground_truth()))
        assert out.termination == "optimal-certified"
        for a, b in zip(out.values, out.values[1:]):
            assert np.all(b <= a + 1e-12)
        assert sup_dist(out.values[-1], fx.Jstar) <= 1e-9

    def test_convergent_scenario_with_positive_costs(self):
        # strictly positive transient costs keep every policy value
        # inside a finite multiple of the optimum, so the values converge
        for seed in (1, 2, 3):
            model, Jstar = random_model(400 + seed, regime="P",
                                        cost_range=(0.5, 2.0))
            mu0 = random_policy(seed, model, deterministic=True)
            out = policy_iteration(model, mu0,
                                   SolverConfig(algorithm="pi", tol=1e-9,
                                                ground_truth=(Jstar, None)))
            assert out.termination == "optimal-certified"
            assert cone_multiplier(out.values[0], Jstar) < INF

    def test_cap_raises_with_the_evaluated_policies(self):
        # One round evaluates mu0 and improves it, then the cap ends the
        # run: every evaluated policy has its value, and the improved
        # policy, not yet evaluated, is the last one listed.
        fx = fixture("FX-D")
        mu0 = Policy.deterministic(fx.model, [1, 1, 1])
        with pytest.raises(SolverCapError) as err:
            policy_iteration(fx.model, mu0, SolverConfig(algorithm="pi", tol=1e-9, max_iter=1))
        result = err.value.result
        assert result.termination == "cap" and not result.converged
        assert len(result.values) == len(result.trace.rows) == 1
        assert len(result.policies) == 2 and result.policies[0] is mu0
        assert result.policy is mu0 and err.value.last is result.J
        assert np.array_equal(result.J, result.values[-1])
        assert np.array_equal(result.values[0], evaluate_policy(fx.model, mu0).J)
        assert result.policies[1].descriptor() == "0:0,1:0,2:0"

    def test_cycle_detection_reports(self):
        # a 2-cycle cannot arise with exact evaluation on these suites,
        # but the detector must at least never misfire on convergent runs
        model, _ = random_model(411, regime="D")
        out = policy_iteration(model, random_policy(0, model, deterministic=True),
                               SolverConfig(algorithm="pi"))
        assert out.termination in ("stuck", "optimal-certified")


class TestModifiedPolicyIteration:
    def test_single_backup_schedule_is_value_iteration(self):
        fx = fixture("FX-D")
        mu0 = Policy.deterministic(fx.model, [0, 0, 0])
        J0 = np.zeros(3)
        out = modified_policy_iteration(
            fx.model, mu0, J0,
            SolverConfig(algorithm="mpi", nk=1, tol=1e-15, max_iter=20,
                         stop_on_tol=False))
        # after the first round the greedy values replay plain backups of
        # the evaluation sequence J_{k+1} = T(J_k) from T_mu0(0)
        J = bellman_T_mu(fx.model, mu0, J0)
        for row in out.trace.rows:
            assert sup_dist(np.array(row.extra["J_greedy"]),
                            bellman_T(fx.model, J)) <= 1e-13
            J = bellman_T(fx.model, J)

    def test_matches_policy_iteration_limit(self):
        fx = fixture("FX-D")
        mu0 = Policy.deterministic(fx.model, [1, 1, 1])
        out = modified_policy_iteration(
            fx.model, mu0, np.zeros(3),
            SolverConfig(algorithm="mpi", nk=20, tol=1e-12, max_iter=500))
        assert sup_dist(out.J, fx.Jstar) <= 1e-9


class TestMixed:
    @pytest.mark.parametrize("algorithm", ["mixed", "lp"])
    @pytest.mark.parametrize("J0, Q0, name, shape", [
        (np.zeros(1), np.zeros(3), "J0", "(1,)"),
        (np.zeros(2), np.zeros(4), "Q0", "(4,)"),
        (np.zeros(3), np.zeros(2), "J0", "(3,)")])
    def test_refuses_starts_that_do_not_fit_the_model(self, algorithm, J0, Q0, name, shape):
        # FX-P2: 2 states, 3 pairs; refused before the first row, J0 first
        model = fixture("FX-P2").model
        cfg = SolverConfig(algorithm=algorithm, J0=J0, Q0=Q0)
        with pytest.raises(ValueError, match=re.escape(f"{name} has shape {shape}")):
            run(model, cfg)

    def test_empty_b_replays_value_iteration_exactly(self):
        model, Jstar = random_model(421, regime="P")
        J0 = 1.5 * Jstar
        cfg = SolverConfig(algorithm="mixed", J0=J0, Q0=h_backup(model, J0),
                           nk=1, bstrategy=CustomB((frozenset(),)), tol=1e-15,
                           max_iter=30, stop_on_tol=False)
        out = mixed_vpi(model, cfg)
        J = J0.copy()
        for row in out.trace.rows:
            J = bellman_T(model, J)
            assert np.array_equal(np.array(row.extra["J_snapshot"]), J)

    def test_rows_keep_the_arrays_and_the_result_owns_copies(self):
        fx = fixture("FX-D")
        J0 = np.zeros(3)
        out = mixed_vpi(fx.model, SolverConfig(algorithm="mixed", J0=J0,
                                               Q0=h_backup(fx.model, J0), nk=4, tol=1e-10))
        extras = [row.extra for row in out.trace.rows]
        snapshots = [e[key] for e in extras for key in (J_SNAPSHOT, Q_SNAPSHOT)]
        assert all(type(v) is np.ndarray and v.dtype == float for v in snapshots)
        assert len({id(v) for v in snapshots}) == len(snapshots)
        last = extras[-1]
        assert np.array_equal(out.J, last[J_SNAPSHOT]) and np.array_equal(out.Q, last[Q_SNAPSHOT])
        out.J[:] = -1.0
        out.Q[:] = -1.0
        assert (last[J_SNAPSHOT] >= 0.0).all() and (last[Q_SNAPSHOT] >= 0.0).all()

    def test_custom_b_schedule_cycles(self):
        model, Jstar = random_model(431, regime="D")
        sets = (frozenset({0}), frozenset({1, 2}))
        cfg = SolverConfig(algorithm="mixed", J0=np.zeros(model.num_states),
                           Q0=np.zeros(model.num_pairs()), nk=2,
                           bstrategy=CustomB(sets), tol=1e-15, max_iter=4,
                           stop_on_tol=False)
        out = mixed_vpi(model, cfg)
        assert out.trace.rows[0].b_set == "{0}"
        assert out.trace.rows[1].b_set == "{1,2}"
        assert out.trace.rows[2].b_set == "{0}"

    @pytest.mark.parametrize("algorithm", ["mixed", "lp"])
    @pytest.mark.parametrize("B", [{-1}, {99}, {0, 2}, {-1, 1}],
                             ids=["-1", "99", "0,2", "-1,1"])
    def test_custom_b_outside_the_states_is_rejected(self, B, algorithm):
        fx = fixture("FX-P2")
        cfg = SolverConfig(algorithm=algorithm, J0=np.zeros(2), Q0=np.zeros(3), nk=2,
                           bstrategy=CustomB((frozenset(B),)))
        with pytest.raises(ValueError, match="B must lie in 0..1"):
            run(fx.model, cfg)

    @pytest.mark.parametrize("algorithm, nk", [("mixed", 3), ("mixed", "exact"),
                                               ("lp", 1)])
    def test_a_fresh_full_set_replays_full_b(self, algorithm, nk):
        model, Jstar = random_model(442, regime="P")
        J0 = 1.5 * Jstar
        outs = []
        for bstrategy in (FullB(), CustomB((frozenset(range(model.num_states)),))):
            cfg = SolverConfig(algorithm=algorithm, J0=J0, Q0=h_backup(model, J0),
                               nk=nk, bstrategy=bstrategy, tol=1e-12, max_iter=50,
                               stop_on_tol=False,
                               ground_truth=(Jstar, h_backup(model, Jstar)))
            out = run(model, cfg)
            rows = [repr(dataclasses.replace(r, wall_time=0.0)) for r in out.trace.rows]
            outs.append((out.J.tobytes(), out.Q.tobytes(), out.termination,
                         out.trace.op_count, rows))
        assert outs[0] == outs[1]

    def test_custom_b_needs_a_set(self):
        with pytest.raises(ValueError, match="at least one set"):
            CustomB(())

    def test_occupation_support_strategy_converges(self):
        model, Jstar = random_model(433, regime="D")
        cfg = SolverConfig(algorithm="mixed", J0=np.zeros(model.num_states),
                           Q0=np.zeros(model.num_pairs()), nk=5,
                           bstrategy=OccupationSupportB(beta=0.6),
                           tol=1e-11, max_iter=2000,
                           ground_truth=(Jstar, h_backup(model, Jstar)))
        out = mixed_vpi(model, cfg)
        assert sup_dist(out.J, Jstar) <= 1e-9

    def test_occupation_support_can_be_a_proper_subset(self):
        # state 0 absorbs, so from rho = e0 only state 0 passes the threshold
        model, Jstar = random_model(439, regime="D")
        rho = np.zeros(model.num_states)
        rho[0] = 1.0
        cfg = SolverConfig(algorithm="mixed", J0=np.zeros(model.num_states),
                           Q0=np.zeros(model.num_pairs()), nk=3,
                           bstrategy=OccupationSupportB(beta=0.5, rho=rho, threshold=0.9),
                           tol=1e-11, max_iter=1500,
                           ground_truth=(Jstar, h_backup(model, Jstar)))
        out = mixed_vpi(model, cfg)
        assert all(row.b_set == "{0}" for row in out.trace.rows)
        assert sup_dist(out.J, Jstar) <= 1e-9

    def test_uniform_occupation_support_is_every_state(self):
        model, _ = random_model(433, regime="P")
        mu = random_policy(5, model, deterministic=True)
        n = model.num_states
        assert OccupationSupportB().resolve(model, mu, 0) is model.state_set
        # the measure is at least (1 - beta) / n everywhere
        below = OccupationSupportB(beta=0.6, threshold=0.99 * 0.4 / n)
        assert below.resolve(model, mu, 0) == frozenset(range(n))

    def test_clamped_iterates_respect_bounds(self):
        model, Jstar = random_model(443, regime="P")
        lo = np.zeros(model.num_states)
        hi = Jstar + 0.25
        cfg = SolverConfig(algorithm="mixed", J0=1.5 * Jstar,
                           Q0=h_backup(model, 1.5 * Jstar), nk=3,
                           bstrategy=FullB(), clamp_lo=lo, clamp_hi=hi,
                           tol=1e-11, max_iter=2000)
        out = mixed_vpi(model, cfg)
        for row in out.trace.rows:
            J = np.array(row.extra["J_snapshot"])
            assert np.all(J <= hi + 1e-15) and np.all(J >= lo - 1e-15)
        assert sup_dist(out.J, Jstar) <= 1e-8

    def test_initial_policy_injection(self):
        # greedy from Q0 = H(0) would stay at state 1; the injected go
        # runs first, and greedy takes over from iteration 2
        fx = fixture("FX-P2")
        go = Policy.deterministic(fx.model, [0, 1])
        stay = Policy.deterministic(fx.model, [0, 0])
        cfg = SolverConfig(algorithm="mixed", J0=np.zeros(2),
                           Q0=h_backup(fx.model, np.zeros(2)), nk=2,
                           bstrategy=FullB(), initial_policy=go,
                           tol=1e-15, max_iter=2, stop_on_tol=False)
        out = mixed_vpi(fx.model, cfg)
        assert out.trace.rows[0].policy == go.descriptor()
        assert out.trace.rows[1].policy == stay.descriptor()

    def test_masked_run_stops_only_after_a_quiet_cycle(self):
        # State 0 is absorbing at cost 0; state 1 pays 1 and stays, so
        # J* = (0, 10).  The first masked row moves pair (0, 0) and state
        # 0, neither of which changes: a stop test on that one row
        # returned "converged" at J = (0, 0).
        model = TotalCostModel("D", 0.9, (
            (AtomicControl("stay", 0.0, np.array([1.0, 0.0])),),
            (AtomicControl("stay", 1.0, np.array([0.0, 1.0])),)))
        J0 = np.zeros(2)
        masks = round_robin_masks(model)
        out = mixed_vpi(model, SolverConfig(algorithm="mixed", nk=1, masks=masks,
                                            J0=J0, Q0=h_backup(model, J0)))
        assert out.termination == "converged"
        assert len(out.trace.rows) > len(masks)
        assert np.abs(out.J - [0.0, 10.0]).max() <= 1e-7
        rows = out.trace.rows[-len(masks):]
        assert all(max(r.residual, r.extra["residual_Q"]) <= 1e-9 for r in rows)


class TestMaskSchedules:
    """A schedule is rows of two 1-D boolean masks; SolverConfig refuses
    any other form and `mixed_vpi` a schedule that does not fit the model
    or leaves out a pair or a state."""

    @staticmethod
    def _config(model, masks):
        J0 = np.zeros(model.num_states)
        return SolverConfig(algorithm="mixed", nk=1, masks=masks, J0=J0,
                            Q0=h_backup(model, J0))

    @pytest.mark.parametrize("states, missed", [([], "pair 0:0"), ([0], "state 1")],
                             ids=["nothing", "state-0-only"])
    def test_a_schedule_that_leaves_out_a_coordinate_is_refused(self, states, missed):
        # On FX-D an empty row ended "converged" after one row at J = 0,
        # and a schedule updating only state 0 after 27 rows at
        # J = (1.82, 0, 0), where J* = (5.79, 4.86, 4.49).
        model = fixture("FX-D").model
        state_mask = np.zeros(model.num_states, dtype=bool)
        state_mask[states] = True
        pair_mask = np.full(model.num_pairs(), bool(states))
        with pytest.raises(ValueError, match=f"never updates {missed}$"):
            mixed_vpi(model, self._config(model, [(pair_mask, state_mask)]))

    def test_the_first_missed_pair_is_named_by_its_label(self):
        model = fixture("FX-D").model
        rows = round_robin_masks(model)
        with pytest.raises(ValueError, match="never updates pair 1:1$"):
            mixed_vpi(model, self._config(model, rows[:3] + rows[4:]))

    @pytest.mark.parametrize("masks", [
        [([(0, 0)], [0])], [(np.array([0]), np.array([0]))],
        [(np.ones((1, 6), dtype=bool), np.ones(3, dtype=bool))],
        [(np.ones(6, dtype=bool),)], []],
        ids=["index-lists", "int-arrays", "2-d", "one-mask", "empty"])
    def test_other_forms_are_refused_never_cast(self, masks):
        with pytest.raises(ValueError, match="mask row 0 must be two 1-D boolean|at least one row"):
            SolverConfig(algorithm="mixed", nk=1, masks=masks)

    @pytest.mark.parametrize("pairs, states, what", [(5, 3, "pair"), (6, 4, "state")],
                             ids=["short-pairs", "long-states"])
    def test_rows_of_the_wrong_length_are_refused(self, pairs, states, what):
        model = fixture("FX-D").model
        masks = [(np.ones(6, dtype=bool), np.ones(3, dtype=bool)),
                 (np.ones(pairs, dtype=bool), np.ones(states, dtype=bool))]
        with pytest.raises(ValueError, match=f"mask row 1: the {what} mask must be"):
            mixed_vpi(model, self._config(model, masks))

    def test_round_robin_rows_set_one_pair_and_one_state_and_are_frozen(self):
        model = fixture("FX-N2").model  # 3 pairs, 2 states
        rows = round_robin_masks(model)
        assert [(np.flatnonzero(p).tolist(), np.flatnonzero(s).tolist())
                for p, s in rows] == [([0], [0]), ([1], [1]), ([2], [0])]
        assert all(p.dtype == bool and s.dtype == bool for p, s in rows)
        frozen = SolverConfig(algorithm="mixed", nk=1, masks=rows).masks
        assert isinstance(frozen, tuple) and len(frozen) == len(rows)


class TestLayerCallsPerRow:
    """The public operators that perfbench traces, layer by layer, are
    called once per row: a speed-up that moved their work into private
    kernels would move it out of the traced layers, and fail here."""

    @staticmethod
    def _count(monkeypatch, *names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            def counting(*args, _real=getattr(solvers, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(solvers, name, counting)
        return counts

    @staticmethod
    def _trap():
        """State 1 pays 1 forever, so J* = (0, inf): the window rule flags
        it and an atomic-only run pins it."""
        return TotalCostModel("P", 1.0, (
            (AtomicControl("rest", 0.0, np.array([1.0, 0.0])),),
            (AtomicControl("trap", 1.0, np.array([0.0, 1.0])),)))

    @pytest.mark.parametrize("name", ["FX-D", "FX-N2", "FX-P4", "FX-P3a", "trap"])
    def test_one_bellman_T_per_value_iteration_row(self, monkeypatch, name):
        model = self._trap() if name == "trap" else fixture(name).model
        counts = self._count(monkeypatch, "bellman_T")
        res = value_iteration(model, np.zeros(model.num_states), SolverConfig(
            algorithm="vi", max_iter=150, stop_on_tol=False))
        assert counts["bellman_T"] == len(res.trace.rows) == 150
        if name in ("FX-P3a", "trap"):  # the flagged-state bookkeeping ran
            assert res.divergent and res.J[sorted(res.divergent)].tolist() == [INF]

    @pytest.mark.parametrize("name", ["FX-D", "FX-N2", "FX-P4"])
    @pytest.mark.parametrize("nk", [1, 10])
    def test_one_greedy_power_and_minimum_per_mixed_row(self, monkeypatch, name, nk):
        fx = fixture(name)
        J0 = np.zeros(fx.model.num_states)
        counts = self._count(monkeypatch, "greedy_select", "f_theta_power", "m_minimize",
                             "bellman_T")
        res = mixed_vpi(fx.model, SolverConfig(
            algorithm="mixed", J0=J0, Q0=h_backup(fx.model, J0), nk=nk, tol=1e-10,
            max_iter=500))
        rows = len(res.trace.rows)
        assert rows > 1
        envelope = 0 if fx.model.regime == "D" else rows
        assert counts == {"greedy_select": rows, "f_theta_power": rows,
                          "m_minimize": rows, "bellman_T": envelope}


class TestPowerCounts:
    """op_count and extra["powers"] count the F_theta applications that ran."""

    @staticmethod
    def _run(model, J0, nk, **kw):
        return mixed_vpi(model, SolverConfig(
            algorithm="mixed", J0=J0, Q0=h_backup(model, J0), nk=nk,
            bstrategy=FullB(), tol=1e-10, max_iter=2000, **kw))

    def test_rising_iterates_run_one_backup_per_iteration(self):
        model, _ = random_model(451, num_states=8, controls_per_state=3, regime="D")
        J0 = np.zeros(model.num_states)
        ten, one = self._run(model, J0, 10), self._run(model, J0, 1)
        rows = ten.trace.rows
        assert ten.trace.op_count == len(rows) == len(one.trace.rows)
        assert all(row.extra["powers"] == 1 for row in rows)
        for a, b in zip(rows, one.trace.rows):
            for key in ("J_snapshot", "Q_snapshot"):
                assert np.array(a.extra[key]).tobytes() == np.array(b.extra[key]).tobytes()

    def test_falling_iterates_run_every_power(self):
        model, Jstar = random_model(451, num_states=8, controls_per_state=3, regime="D")
        trace = self._run(model, 1.5 * Jstar, 10).trace
        assert trace.op_count == 10 * len(trace.rows)
        assert all(row.extra["powers"] == 10 for row in trace.rows)

    def test_masked_and_exact_rows_add_up_to_op_count(self):
        fx = fixture("FX-D")
        J0 = np.zeros(3)
        masked = self._run(fx.model, J0, 3, masks=round_robin_masks(fx.model))
        exact = self._run(fx.model, J0, "exact")
        for trace, most in ((masked.trace, 3), (exact.trace, None)):
            powers = [row.extra["powers"] for row in trace.rows]
            assert sum(powers) == trace.op_count
            assert all(p >= 1 and (most is None or p <= most) for p in powers)


@pytest.mark.parametrize("algorithm", ["vi", "mpi", "mixed", "lp"])
def test_cap_error_carries_the_capped_result(algorithm):
    fx = fixture("FX-P4")
    model = fx.model
    J0 = 1.5 * fx.Jstar + 1.0
    cfg = SolverConfig(
        algorithm=algorithm, J0=J0, tol=1e-30, max_iter=1,
        Q0=h_backup(model, J0) if algorithm in ("mixed", "lp") else None,
        initial_policy=(Policy.deterministic(model, [0] * model.num_states)
                        if algorithm == "mpi" else None))
    with pytest.raises(SolverCapError) as err:
        run(model, cfg)
    result = err.value.result
    assert result.termination == "cap" and not result.converged
    assert result.trace is err.value.trace
    assert len(result.trace.rows) == 1
    last = err.value.last if result.Q is None else err.value.last[0]
    assert last is result.J


class TestLPVariant:
    @pytest.mark.parametrize("algorithm, bound", [("lp", "lower"), ("mixed", None)])
    def test_cap_error_carries_bound_direction(self, algorithm, bound):
        fx = fixture("FX-P4")
        J0 = 1.5 * fx.Jstar + 1.0
        with pytest.raises(SolverCapError) as err:
            run(fx.model, SolverConfig(algorithm=algorithm, J0=J0,
                                       Q0=h_backup(fx.model, J0), tol=1e-30, max_iter=1))
        assert err.value.bound == bound
        assert len(err.value.trace.rows) == 1

    def test_cap_without_stop_on_tol_returns(self):
        fx = fixture("FX-P2")
        J0 = np.zeros(2)
        cfg = SolverConfig(algorithm="lp", J0=J0, Q0=h_backup(fx.model, J0),
                           max_iter=3, stop_on_tol=False)
        out = lp_variant_vpi(fx.model, cfg)
        assert out.termination == "cap" and not out.converged
        assert len(out.trace.rows) == 3

    def test_cone_margin_reads_zero_times_infinity_as_zero(self):
        # State 0 is free and absorbing, state 1 pays 1 forever: J* = (0, inf).
        # J0 = 0 lies in the cone with c = 0, and c * J* is (0, 0).
        model = TotalCostModel("P", 1.0, (
            (AtomicControl("rest", 0.0, np.array([1.0, 0.0])),),
            (AtomicControl("trap", 1.0, np.array([0.0, 1.0])),)))
        J0 = np.zeros(2)
        out = lp_variant_vpi(model, SolverConfig(
            algorithm="lp", J0=J0, Q0=h_backup(model, J0), max_iter=4,
            stop_on_tol=False, ground_truth=(np.array([0.0, INF]), None)))
        assert [row.extra["cone_margin"] for row in out.trace.rows] == [1.0, 2.0, 3.0, 4.0]
        trace_to_csv(out.trace)  # refuses a NaN


class TestGreedyCalls:
    """One greedy selection per trace row, none at k = 0 when an initial
    policy is given; from k = 1 on it reuses the M(Q) the last row took,
    which must be M(Q) bit for bit, clamped or not."""

    @staticmethod
    def _calls(monkeypatch, algorithm, name, initial_policy=None, **kw):
        calls = []
        real = solvers.greedy_select

        def counting(model, Q, *args, **kwargs):
            qmin = kwargs.get("qmin")
            if qmin is not None:
                assert qmin.tobytes() == m_minimize(model, Q).tobytes()
            calls.append(qmin is not None)
            return real(model, Q, *args, **kwargs)

        monkeypatch.setattr(solvers, "greedy_select", counting)
        fx = fixture(name)
        J0 = 1.5 * fx.Jstar + 1.0
        res = run(fx.model, SolverConfig(
            algorithm=algorithm, J0=J0, Q0=h_backup(fx.model, J0), max_iter=5,
            stop_on_tol=False, initial_policy=initial_policy, **kw))
        assert len(res.trace.rows) == 5
        return calls

    @pytest.mark.parametrize("algorithm, name", [("mixed", "FX-D"), ("lp", "FX-P2")])
    def test_one_call_per_row(self, monkeypatch, algorithm, name):
        calls = self._calls(monkeypatch, algorithm, name)
        assert calls == [False] + [True] * 4

    @pytest.mark.parametrize("algorithm, name", [("mixed", "FX-D"), ("lp", "FX-P2")])
    def test_initial_policy_skips_k0(self, monkeypatch, algorithm, name):
        model = fixture(name).model
        mu0 = Policy.deterministic(model, [0] * model.num_states)
        assert self._calls(monkeypatch, algorithm, name, mu0) == [True] * 4

    @pytest.mark.parametrize("nk", [2, "exact"])
    def test_clamped_rows_reuse_the_unclamped_minimum(self, monkeypatch, nk):
        fx = fixture("FX-D")
        calls = self._calls(monkeypatch, "mixed", "FX-D", nk=nk, epsilon=0.1,
                            clamp_lo=fx.Jstar + 0.25, clamp_hi=fx.Jstar + 0.5)
        assert calls == [False] + [True] * 4

    def test_masked_rows_take_the_minimum_again(self, monkeypatch):
        model = fixture("FX-D").model
        calls = self._calls(monkeypatch, "mixed", "FX-D", nk=2,
                            masks=round_robin_masks(model))
        assert calls == [False] * 5


class TestPolicyReuse:
    """While greedy selection picks the same pairs, the loops keep the
    policy object, and mixed and lp also its Theta: one policy and one
    Theta per run of equal rows, the same trace as building them anew."""

    @pytest.mark.parametrize("algorithm, regime", [
        ("mixed", "D"), ("mixed", "P"), ("lp", "P"), ("mpi", "D")])
    def test_one_policy_and_theta_per_distinct_choice(self, monkeypatch, algorithm,
                                                      regime):
        picked, thetas = [], []
        real = solvers.greedy_select

        def recording(*args, **kwargs):
            picked.append(real(*args, **kwargs))
            return picked[-1]

        class CountingTheta(Theta):
            def __post_init__(self):
                super().__post_init__()
                thetas.append(self)

        monkeypatch.setattr(solvers, "greedy_select", recording)
        monkeypatch.setattr(solvers, "Theta", CountingTheta)
        model, _ = random_model(8, num_states=8, controls_per_state=3, regime=regime)
        # A randomized mix, which greedy selection never keeps; the lp
        # variant needs a deterministic policy and starts from greedy.
        mu0 = None if algorithm == "lp" else random_policy(3, model)
        J0 = np.zeros(model.num_states)
        res = run(model, SolverConfig(algorithm=algorithm, J0=J0, Q0=h_backup(model, J0),
                                      initial_policy=mu0, max_iter=200, tol=1e-8))
        rows = [row.policy for row in res.trace.rows]
        if mu0 is not None:
            assert picked[0] is not mu0 and ":mix" in mu0.descriptor()
        for a, b in zip(picked, picked[1:]):
            assert (a is b) == (a.descriptor() == b.descriptor())
        assert all(p.descriptor() == ref.descriptor(p) for p in picked)
        changes = sum(a != b for a, b in zip(rows, rows[1:]))
        assert 1 <= changes < len(rows) - 2
        if algorithm != "mpi":
            assert len(thetas) == changes + 1
            assert all(t.policy.descriptor() == d for t, d in
                       zip(thetas, [r for i, r in enumerate(rows)
                                    if i == 0 or r != rows[i - 1]]))


class TestOccupationReuse:
    """`OccupationSupportB` solves one occupation measure per policy
    object, so a mixed run solves once per run of equal rows, and with a
    proper subset B the loop also keeps its Theta."""

    @pytest.mark.parametrize("concentrated", [False, True])
    def test_one_solve_per_distinct_choice(self, monkeypatch, concentrated):
        solves, thetas = [], []
        real = solvers.occupation_measure

        def counting(*args, **kwargs):
            solves.append(args[1])
            return real(*args, **kwargs)

        class CountingTheta(Theta):
            def __post_init__(self):
                super().__post_init__()
                thetas.append(self)

        monkeypatch.setattr(solvers, "occupation_measure", counting)
        monkeypatch.setattr(solvers, "Theta", CountingTheta)
        model, _ = random_model(8, num_states=8, controls_per_state=3, regime="P")
        # uniform rho gives B = S; from rho = e0 only the absorbing state 0
        rho = None
        if concentrated:
            rho = np.zeros(model.num_states)
            rho[0] = 1.0
        bstrategy = OccupationSupportB(rho=rho)
        J0 = np.zeros(model.num_states)
        res = run(model, SolverConfig(algorithm="mixed", J0=J0, Q0=h_backup(model, J0),
                                      bstrategy=bstrategy, nk=4, max_iter=200, tol=1e-8))
        rows = res.trace.rows
        changes = sum(a.policy != b.policy for a, b in zip(rows, rows[1:]))
        assert 1 <= changes < len(rows) - 2
        assert len(solves) == len(thetas) == changes + 1
        assert [p.descriptor() for p in solves] == [
            r.policy for i, r in enumerate(rows) if i == 0 or r.policy != rows[i - 1].policy]
        assert {r.b_set for r in rows} == ({"{0}"} if concentrated else {"S"})
        assert repr(bstrategy) == repr(OccupationSupportB(rho=rho))


def _direct_call(algorithm, model, cfg):
    if algorithm == "vi":
        return value_iteration(model, cfg.J0, cfg)
    if algorithm == "pi":
        return policy_iteration(model, cfg.initial_policy, cfg)
    if algorithm == "mpi":
        return modified_policy_iteration(model, cfg.initial_policy, cfg.J0, cfg)
    if algorithm == "mixed":
        return mixed_vpi(model, cfg)
    return lp_variant_vpi(model, cfg)


# The lp variant needs nonnegative costs, so it runs on FX-P2 only.
RUN_CASES = ([(a, "FX-P2", [0, 1]) for a in ALGORITHMS]
             + [(a, "FX-D", [1, 1, 1]) for a in ALGORITHMS if a != "lp"])


class TestRun:
    @pytest.mark.parametrize("algorithm, name, mu0", RUN_CASES)
    def test_matches_the_direct_call(self, algorithm, name, mu0):
        fx = fixture(name)
        J0 = 1.5 * fx.Jstar
        cfg = SolverConfig(algorithm=algorithm, J0=J0, Q0=h_backup(fx.model, J0),
                           initial_policy=Policy.deterministic(fx.model, mu0),
                           tol=1e-10, max_iter=500, ground_truth=fx.ground_truth())
        via_run = run(fx.model, cfg)
        direct = _direct_call(algorithm, fx.model, cfg)
        assert np.array_equal(via_run.J, direct.J)
        assert len(via_run.trace.rows) == len(direct.trace.rows)
        assert via_run.trace.op_count == direct.trace.op_count
        assert via_run.termination == direct.termination

    def test_rejects_incomplete_configs(self):
        fx = fixture("FX-D")
        with pytest.raises(ValueError):
            SolverConfig(algorithm="nope")
        with pytest.raises(ValueError):
            SolverConfig(algorithm="vi", max_iter=0)
        mu = Policy.deterministic(fx.model, [0, 0, 0])
        for cfg in (SolverConfig(algorithm="vi"),
                    SolverConfig(algorithm="mpi", initial_policy=mu),
                    SolverConfig(algorithm="pi", J0=np.zeros(3)),
                    SolverConfig(algorithm="mpi", J0=np.zeros(3))):
            with pytest.raises(ValueError):
                run(fx.model, cfg)

    @pytest.mark.parametrize("settings", [
        {"tol": np.nan}, {"tol": 0.0}, {"epsilon": np.nan}, {"epsilon": -1.0},
        {"clamp_lo": np.array([0.0, np.nan])}, {"clamp_hi": np.array([np.nan, 1.0])},
    ], ids=["tol-nan", "tol-zero", "epsilon-nan", "epsilon-negative",
            "clamp-lo-nan", "clamp-hi-nan"])
    def test_rejects_nan_and_out_of_range_settings(self, settings):
        with pytest.raises(ValueError):
            SolverConfig(algorithm="mixed", **settings)

    @pytest.mark.parametrize("settings", [
        {"masks": ONE_ROW}, {"epsilon": 0.5}], ids=["masks", "epsilon"])
    def test_lp_refuses_the_settings_it_ignores(self, settings):
        with pytest.raises(ValueError, match="the lp variant takes no mask schedule"):
            SolverConfig(algorithm="lp", **settings)
        SolverConfig(algorithm="mixed", **settings)

    @pytest.mark.parametrize("algorithm", ["vi", "pi", "mpi"])
    @pytest.mark.parametrize("settings, unread", [
        ({"masks": ONE_ROW}, "mask schedule"),
        ({"epsilon": 0.5}, "epsilon > 0"),
        ({"clamp_lo": np.zeros(3)}, "clamp_lo"),
        ({"clamp_hi": np.ones(3)}, "clamp_hi"),
        ({"bstrategy": CustomB((frozenset(),))}, "B strategy but FullB"),
        ({"bstrategy": OccupationSupportB()}, "B strategy but FullB"),
    ], ids=["masks", "epsilon", "clamp-lo", "clamp-hi", "custom-b", "occupation-b"])
    def test_vi_pi_mpi_refuse_the_settings_they_ignore(self, algorithm, settings, unread):
        with pytest.raises(ValueError, match=f"takes no {re.escape(unread)}"):
            SolverConfig(algorithm=algorithm, **settings)
        SolverConfig(algorithm="mixed", **settings)
        SolverConfig(algorithm=algorithm, epsilon=0.0, bstrategy=FullB())

    def test_refusal_names_every_ignored_setting(self):
        with pytest.raises(ValueError) as err:
            SolverConfig(algorithm="vi", epsilon=0.5, clamp_hi=np.ones(3))
        assert str(err.value) == "value iteration takes no epsilon > 0, no clamp_hi"

    def test_rejects_a_nan_occupation_threshold(self):
        with pytest.raises(ValueError):
            OccupationSupportB(threshold=np.nan)


class TestExtraction:
    def test_greedy_on_the_optimum_is_optimal(self):
        fx = fixture("FX-D")
        nu, bound = extract_policy_discounted(fx.model, fx.Qstar, epsilon=0.0,
                                              delta=0.0, k=0)
        J_nu = evaluate_policy(fx.model, nu).J
        assert sup_dist(J_nu, fx.Jstar) <= 1e-9
        assert bound == 0.0

    def test_bound_shape(self):
        fx = fixture("FX-D")
        _, bound = extract_policy_discounted(fx.model, fx.Qstar, epsilon=0.01,
                                             delta=2.0, k=3)
        assert bound == (2 * 0.9 ** 3 * 2.0 + 0.01) / (1.0 - 0.9)

    def test_nan_epsilon_is_refused(self):
        fx = fixture("FX-D")
        with pytest.raises(ValueError, match="epsilon"):
            extract_policy_discounted(fx.model, fx.Qstar, epsilon=np.nan)

    def test_requires_discounted_model(self):
        fx = fixture("FX-P2")
        with pytest.raises(ValueError):
            extract_policy_discounted(fx.model, fx.Qstar, 0.0)


class TestVerifyCertificates:
    def test_masked_traces_skip_the_envelope(self):
        # Round-robin rows refresh one pair and one state, so from 2 J* the
        # iterate stays above T^k(J0): the margin is recorded, not checked.
        fx = fixture("FX-P4")
        J0 = 2.0 * fx.Jstar
        cfg = SolverConfig(algorithm="mixed", J0=J0, Q0=h_backup(fx.model, J0), nk=10,
                           masks=round_robin_masks(fx.model), tol=1e-9, max_iter=100,
                           ground_truth=fx.ground_truth())
        out = mixed_vpi(fx.model, cfg)
        assert max(row.upper_margin for row in out.trace.rows) > 0.0
        report = verify_certificates(fx.model, out.trace, fx.ground_truth())
        assert report.passed
        assert "envelope-upper" not in [c.name for c in report.checks]
        unmasked = dataclasses.replace(out.trace, config={**out.trace.config, "masks": False})
        check = {c.name: c for c in verify_certificates(fx.model, unmasked).checks}
        assert not check["envelope-upper"].passed

    def test_discounted_trace_passes_rate_check(self):
        fx = fixture("FX-D")
        cfg = SolverConfig(algorithm="mixed", J0=np.zeros(3),
                           Q0=np.zeros(6), nk=5, bstrategy=FullB(),
                           tol=1e-12, max_iter=400,
                           ground_truth=fx.ground_truth())
        out = mixed_vpi(fx.model, cfg)
        report = verify_certificates(fx.model, out.trace, fx.ground_truth())
        geo = [c for c in report.checks if c.name == "geometric-rate"]
        assert geo and geo[0].passed and geo[0].margin <= 0.0

    def test_a_row_past_the_rate_fails_the_report(self):
        # One row's J distance raised 1e-3 past alpha^k * dist0 breaks the
        # geometric rate by that much (less the 1e-12 of room).
        fx = fixture("FX-D")
        cfg = SolverConfig(algorithm="mixed", J0=np.zeros(3),
                           Q0=np.zeros(6), nk=5, bstrategy=FullB(),
                           tol=1e-12, max_iter=400,
                           ground_truth=fx.ground_truth())
        trace = mixed_vpi(fx.model, cfg).trace
        rows = list(trace.rows)
        row = rows[2]
        past = fx.model.discount ** row.k * trace.dist0 + 1e-3
        rows[2] = dataclasses.replace(row, dist_J=past)
        report = verify_certificates(fx.model, dataclasses.replace(trace, rows=rows),
                                     fx.ground_truth())
        geo = {c.name: c for c in report.checks}["geometric-rate"]
        assert not geo.passed and not report.passed
        assert geo.margin == pytest.approx(1e-3, abs=1e-11)
        assert "[FAIL] geometric-rate" in report.summary()

    @pytest.mark.parametrize("name, checks", [
        ("FX-D", ["geometric-rate"]),
        ("FX-N2", ["envelope-upper", "dominance-lower"]),
        ("FX-P4", ["envelope-upper", "dominance-lower", "cone-membership",
                   "zero-set-membership"]),
    ])
    def test_mixed_envelope_only_where_it_is_a_bound(self, name, checks):
        fx = fixture(name)
        J0 = 1.5 * fx.Jstar if fx.model.regime == "P" else np.zeros(fx.model.num_states)
        cfg = SolverConfig(algorithm="mixed", J0=J0, Q0=h_backup(fx.model, J0), nk=3,
                           tol=1e-11, max_iter=500, ground_truth=fx.ground_truth())
        out = mixed_vpi(fx.model, cfg)
        uppers = [row.upper_margin for row in out.trace.rows]
        if fx.model.regime == "D":
            assert all(u is None for u in uppers)
        else:
            assert all(isinstance(u, float) for u in uppers)
        report = verify_certificates(fx.model, out.trace, fx.ground_truth())
        assert [c.name for c in report.checks] == checks
        assert report.passed

    def test_nonpositive_sandwich_passes(self):
        fx = fixture("FX-N2")
        cfg = SolverConfig(algorithm="mixed", J0=np.zeros(2),
                           Q0=np.zeros(3), nk=3, bstrategy=FullB(),
                           tol=1e-12, max_iter=100,
                           ground_truth=fx.ground_truth())
        out = mixed_vpi(fx.model, cfg)
        report = verify_certificates(fx.model, out.trace, fx.ground_truth())
        names = {c.name: c for c in report.checks}
        assert names["envelope-upper"].passed
        assert names["dominance-lower"].passed

    def test_stationary_start_fails_cone_check_with_witness(self):
        fx = fixture("FX-P3b")
        J_mu = np.array([0.0, 1.0, 2.0])
        res = value_iteration(fx.model, J_mu,
                              SolverConfig(algorithm="vi", tol=1e-12, max_iter=5,
                                           ground_truth=(fx.Jstar, None)))
        report = verify_certificates(fx.model, res.trace, (fx.Jstar, None))
        cone = [c for c in report.checks if c.name == "cone-membership"][0]
        assert not cone.passed
        assert "state 1" in cone.detail

    @pytest.mark.parametrize("J0, Jstar, margin, detail", [
        # J0/Jstar overflows at state 1, so c = +inf without a zero-set
        # violation or an infinite J0.
        ([0.0, 1e300, 2.0], [0.0, 1e-10, 2.0], INF,
         "state 1: J0=1e+300 over Jstar=1e-10 overflows c"),
        # NaN fails J0 >= 0 without being negative; its ratio leaves c at
        # 1, but a failed check reports margin inf, as zero-set-membership does.
        ([0.0, math.nan, 2.0], [0.0, 1.0, 2.0], INF, "state 1: J0 is NaN"),
        ([0.0, -1.0, 2.0], [0.0, 1.0, 2.0], INF, "J0 has negative entries"),
        ([0.0, INF, 2.0], [0.0, 1.0, 2.0], INF,
         "state 1: J0 infinite over finite Jstar"),
    ])
    def test_cone_failure_names_its_cause(self, J0, Jstar, margin, detail):
        fx = fixture("FX-P4")
        Jstar = np.array(Jstar)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                res = value_iteration(fx.model, np.array(J0), SolverConfig(
                    algorithm="vi", tol=1e-12, max_iter=3, ground_truth=(Jstar, None)))
            except SolverCapError as err:
                res = err.result
            report = verify_certificates(fx.model, res.trace, (Jstar, None))
        cone = [c for c in report.checks if c.name == "cone-membership"][0]
        assert not cone.passed
        assert cone.margin == margin
        assert cone.detail == detail

    def test_summary_renders(self):
        fx = fixture("FX-P4")
        res = value_iteration(fx.model, np.zeros(3),
                              SolverConfig(algorithm="vi", tol=1e-12, max_iter=10,
                                           ground_truth=fx.ground_truth()))
        report = verify_certificates(fx.model, res.trace, fx.ground_truth())
        text = report.summary()
        assert "cone-membership" in text

    def test_cone_checks_are_nonnegative_regime_only(self):
        fx = fixture("FX-N2")
        res = value_iteration(fx.model, np.zeros(2),
                              SolverConfig(algorithm="vi", tol=1e-12, max_iter=10,
                                           ground_truth=fx.ground_truth()))
        report = verify_certificates(fx.model, res.trace, fx.ground_truth())
        assert all(c.name != "cone-membership" for c in report.checks)


# (J, Jstar) entries: few distinct values, so that zeros of both signs,
# infinities of both signs, NaN and overflowing or invalid ratios meet often.
CONE_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, INF, -INF, math.nan, 1.0, -1.0, 2.5,
                                        1e300, 1e-300, -1e-300]),
                       st.floats(-1e6, 1e6))


class TestConeMultiplier:
    def test_finite_ratio(self):
        assert cone_multiplier(np.array([0.0, 2.0]), np.array([0.0, 1.0])) == 2.0

    def test_zero_set_violation(self):
        assert cone_multiplier(np.array([0.5, 1.0]), np.array([0.0, 1.0])) == INF

    def test_infinite_optimum_never_constrains(self):
        assert cone_multiplier(np.array([5.0, 1.0]), np.array([INF, 1.0])) == 1.0

    @given(st.lists(st.tuples(CONE_ENTRY, CONE_ENTRY), max_size=8))
    def test_equal_to_the_state_loop(self, entries):
        J = np.array([j for j, _ in entries], dtype=float)
        Jstar = np.array([s for _, s in entries], dtype=float)
        with np.errstate(all="ignore"):
            want = float(ref.cone_multiplier(J, Jstar))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = cone_multiplier(J, Jstar)
        assert type(got) is float and _bits(got) == _bits(want)
        if np.count_nonzero(J[Jstar == 0.0] != 0.0):
            assert got == INF

    def test_a_zero_set_violation_wins_over_an_earlier_warning(self):
        # The loop meets 1e300 / 1e-300 (overflow) before state 1's zero-set
        # violation, and raises there when RuntimeWarning is an error.
        J, Jstar = np.array([1e300, 1.0]), np.array([1e-300, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning):
                ref.cone_multiplier(J, Jstar)
            assert cone_multiplier(J, Jstar) == INF
            assert cone_multiplier(J[:1], Jstar[:1]) == INF  # the overflow itself


def _bits(x) -> bytes:
    return struct.pack("<d", x)


class TestDeferredGroundTruthColumns:
    """The recorder fills a row's ground-truth columns after the row is
    appended: every `solvers._BLOCK` rows and when the run ends.  Each
    mixed row's four columns are the 1-D kernels applied to its own
    snapshots, bit for bit, however the run ends."""

    STARTS = {"FX-D": lambda fx: np.zeros(3), "FX-N2": lambda fx: np.zeros(2),
              "FX-P4": lambda fx: 1.5 * fx.Jstar + 1.0}

    def _config(self, name, **kw):
        fx = fixture(name)
        J0 = self.STARTS[name](fx)
        return fx, SolverConfig(algorithm="mixed", J0=J0, Q0=h_backup(fx.model, J0), nk=2,
                                ground_truth=fx.ground_truth(), **kw)

    @staticmethod
    def _assert_columns(trace, fx):
        for row in trace.rows:
            J, Q = row.extra[J_SNAPSHOT], row.extra[Q_SNAPSHOT]
            assert _bits(row.dist_J) == _bits(sup_dist(J, fx.Jstar))
            assert _bits(row.lower_margin) == _bits(margin_leq(fx.Jstar, J))
            assert _bits(row.dist_Q) == _bits(sup_dist(Q, fx.Qstar))
            assert _bits(row.q_lower_margin) == _bits(margin_leq(fx.Qstar, Q))

    @pytest.mark.parametrize("name", ["FX-D", "FX-N2", "FX-P4"])
    def test_a_run_longer_than_a_block(self, monkeypatch, name):
        held = []  # rows pending at each fill
        fill = solvers._Recorder._fill

        def counted(rec):
            held.append(len(rec._pending))
            fill(rec)

        fx, cfg = self._config(name, max_iter=solvers._BLOCK + 44, stop_on_tol=False)
        monkeypatch.setattr(solvers._Recorder, "_fill", counted)
        out = mixed_vpi(fx.model, cfg)
        assert len(out.trace.rows) == solvers._BLOCK + 44
        assert held == [solvers._BLOCK, 44]
        self._assert_columns(out.trace, fx)

    def test_a_capped_run(self):
        # FX-N2 and FX-P4 reach a zero residual within a block; FX-D does not.
        fx, cfg = self._config("FX-D", max_iter=solvers._BLOCK + 3, tol=1e-300)
        with pytest.raises(SolverCapError) as err:
            mixed_vpi(fx.model, cfg)
        trace = err.value.result.trace
        assert len(trace.rows) == solvers._BLOCK + 3
        self._assert_columns(trace, fx)

    @pytest.mark.parametrize("algorithm", ["vi", "mixed"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_wrong_shaped_ground_truth_is_refused_before_the_first_row(
            self, monkeypatch, algorithm, which):
        fx = fixture("FX-D")
        truth = [fx.Jstar, fx.Qstar]
        truth[which] = np.append(truth[which], 0.0)
        J0 = np.zeros(3)
        cfg = SolverConfig(algorithm=algorithm, J0=J0, ground_truth=tuple(truth),
                           Q0=h_backup(fx.model, J0) if algorithm == "mixed" else None)

        def no_row(*args, **kwargs):
            raise AssertionError("a row was recorded")

        monkeypatch.setattr(solvers._Recorder, "row", no_row)
        want = [("Jstar", (4,), (3,)), ("Qstar", (7,), (6,))][which]
        with pytest.raises(ValueError, match=re.escape(
                f"ground truth {want[0]} has shape {want[1]}, the model wants {want[2]}")):
            run(fx.model, cfg)

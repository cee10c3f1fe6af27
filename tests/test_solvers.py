import dataclasses
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_ops as ref
from totaldp import operators, solvers
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
    IterationTrace,
    J_SNAPSHOT,
    OccupationSupportB,
    Q_SNAPSHOT,
    SolverCapError,
    SolverConfig,
    TraceRow,
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

    @pytest.mark.parametrize("J0, shape", [(np.zeros(3), "(3,)"), (np.zeros((4, 1)), "(4, 1)")])
    def test_refuses_a_start_that_does_not_fit_the_model(self, J0, shape):
        # as value iteration does, naming both shapes, before the first round
        model, _ = random_model(441, num_states=4, regime="P")
        mu0 = Policy.deterministic(model, [0] * 4)
        for solve in (modified_policy_iteration, value_iteration):
            args = (model, mu0, J0) if solve is modified_policy_iteration else (model, J0)
            with pytest.raises(ValueError) as err:
                solve(*args)
            assert str(err.value) == f"J has shape {shape}, want (4,)"


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

    @pytest.mark.parametrize("algorithm", ["mixed", "lp"])
    @pytest.mark.parametrize("name", ["clamp_lo", "clamp_hi"])
    @pytest.mark.parametrize("shape", [(3,), (4, 1), (1,)])
    def test_refuses_clamp_bounds_that_do_not_fit_the_model(self, monkeypatch, algorithm,
                                                            name, shape):
        # A bound of 3 entries would die mid-solve in numpy, one of (4, 1)
        # would broadcast into a matrix and one of (1,) would broadcast
        # silently; each is refused before the first row, as J0 and Q0 are.
        model, _ = random_model(441, num_states=4, regime="P")
        J0 = np.zeros(4)
        cfg = SolverConfig(algorithm=algorithm, J0=J0, Q0=h_backup(model, J0),
                           **{name: np.zeros(shape)})
        selections = []
        monkeypatch.setattr(solvers, "_greedy_select",
                            lambda *args: selections.append(args))
        with pytest.raises(ValueError) as err:
            run(model, cfg)
        assert str(err.value) == f"{name} has shape {shape}, the model wants (4,)"
        assert not selections

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
        # FX-D is discounted: the run stops on the bracket, and answers its
        # upper end T(J_k) + c max(d) for the last row's J_k and Q = H of
        # it, arrays of the result's own.
        last = extras[-1]
        J_k = last[J_SNAPSHOT]
        TJ = bellman_T(fx.model, J_k)
        c = fx.model.discount / (1.0 - fx.model.discount)
        assert out.error_bound is not None
        assert np.array_equal(out.J, TJ + c * (TJ - J_k).max())
        assert np.array_equal(out.Q, h_backup(fx.model, out.J))
        assert out.J.base is None and out.Q.base is None
        snapshot = [v.copy() for v in (last[J_SNAPSHOT], last[Q_SNAPSHOT])]
        out.J[:] = -1.0
        out.Q[:] = -1.0
        assert np.array_equal(last[J_SNAPSHOT], snapshot[0])
        assert np.array_equal(last[Q_SNAPSHOT], snapshot[1])

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
            outs.append((out.J.tobytes(), out.Q.tobytes(), out.termination,
                         out.trace.op_count, list(map(repr, out.trace.timeless().rows))))
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
    """Each row of value iteration and of the mixed loop runs its
    operators once, through the private kernels behind the public
    entries (`operators._bellman_T`, `_greedy_select`, `_segment_min`,
    `ftheta._f_theta_power`), checked or not.  The N/P envelope steps by
    `_bellman_T` too, once per row.  A D mixed row takes one backup and
    one `_segment_min` in all, its bracket's: the next row's power
    starts from the bracket's H(J) and, stopping there, finds
    M(H(J)) = T(J) made."""

    @staticmethod
    def _count(monkeypatch, *names, module=solvers):
        counts = dict.fromkeys(names, 0)
        for name in names:
            def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        return counts

    @staticmethod
    def _count_backups(monkeypatch, model):
        """Count the backups of ``model``: each applies the model's
        `_g_plus` map once, and the count replaces it on this model
        for the test alone."""
        counts = {"backups": 0}
        real = model._g_plus

        def g_plus(cont):
            counts["backups"] += 1
            return real(cont)

        monkeypatch.setitem(vars(model), "_g_plus", g_plus)
        return counts

    @staticmethod
    def _trap():
        """State 1 pays 1 forever, so J* = (0, inf): the model's graph
        says so, and an atomic-only run from zero pins it."""
        return TotalCostModel("P", 1.0, (
            (AtomicControl("rest", 0.0, np.array([1.0, 0.0])),),
            (AtomicControl("trap", 1.0, np.array([0.0, 1.0])),)))

    @pytest.mark.parametrize("name", ["FX-D", "FX-N2", "FX-P4", "FX-P3a", "trap"])
    def test_one_bellman_T_per_value_iteration_row(self, monkeypatch, name):
        model = self._trap() if name == "trap" else fixture(name).model
        counts = self._count(monkeypatch, "_bellman_T")
        public = self._count(monkeypatch, "bellman_T", module=operators)
        res = value_iteration(model, np.zeros(model.num_states), SolverConfig(
            algorithm="vi", max_iter=150, stop_on_tol=False))
        assert counts["_bellman_T"] == len(res.trace.rows) == 150
        assert public["bellman_T"] == 0
        if name in ("FX-P3a", "trap"):  # the pinned-state bookkeeping ran
            assert res.divergent and res.J[sorted(res.divergent)].tolist() == [INF]

    @pytest.mark.parametrize("name", ["FX-D", "FX-N2", "FX-P4"])
    @pytest.mark.parametrize("nk", [1, 10])
    def test_one_greedy_power_and_minimum_per_mixed_row(self, monkeypatch, name, nk):
        fx = fixture(name)
        J0 = np.zeros(fx.model.num_states)
        Q0 = h_backup(fx.model, J0)
        counts = self._count(monkeypatch, "_greedy_select", "_f_theta_power",
                             "_segment_min", "_bellman_T")
        public = self._count(monkeypatch, "bellman_T", module=operators)
        backups = self._count_backups(monkeypatch, fx.model)
        res = mixed_vpi(fx.model, SolverConfig(
            algorithm="mixed", J0=J0, Q0=Q0, nk=nk, tol=1e-10, max_iter=500))
        rows = len(res.trace.rows)
        assert rows > 1
        powers = res.trace.op_count
        if fx.model.regime == "D":
            # FX-D's iterates rise, so every power stops at its first,
            # and a row after the first takes the bracket's H(J) and T(J):
            # the first row backs up and minimizes once more, and the stop
            # backs up its answer U and selects its policy once more.
            assert res.error_bound is not None and powers == rows
            want = {"_greedy_select": rows + 1, "_f_theta_power": rows,
                    "_segment_min": rows + 1, "_bellman_T": 0, "backups": rows + 2}
        else:
            # the power's backups, one envelope step per row and T(J0)
            want = {"_greedy_select": rows, "_f_theta_power": rows,
                    "_segment_min": rows, "_bellman_T": rows,
                    "backups": powers + rows}
        assert {**counts, **backups} == want
        assert public["bellman_T"] == 0


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


class TestRecordedIterates:
    """The recorder holds the iterates a row records by reference until
    it fills their ground-truth columns, and mixed rows record theirs in
    the rows of the trace's block, so they must stay isolated: no two
    rows' iterates share memory (a mixed row's J and Q are the two halves
    of its own block row), no row is written into after it is recorded,
    a mixed row's snapshots are the iterates it recorded, and writing
    into a returned J or Q, or into `SolverCapError.last`, leaves every
    recorded row unchanged."""

    KINDS = {"vi": dict(algorithm="vi"),
             "power": dict(algorithm="mixed", nk=3),
             "masked": dict(algorithm="mixed", nk=2, masks="round-robin"),
             "exact": dict(algorithm="mixed", nk="exact"),
             "lp": dict(algorithm="lp")}

    @staticmethod
    def _solve(kind, capped):
        """The solve's outcome (its result, or the SolverCapError it
        raised) and every (J, Q) it recorded, by reference, with the
        bytes each held when recorded."""
        # State 1 pays 1 per step and leaves for the free state 0 with
        # probability 1e-3: every kind rises by about 1 per row, so no
        # run of 12 rows converges, and J* = (0, 1000).
        model = TotalCostModel("P", 1.0, (
            (AtomicControl("rest", 0.0, np.array([1.0, 0.0])),),
            (AtomicControl("stay", 1.0, np.array([1e-3, 1.0 - 1e-3])),
             AtomicControl("wait", 2.0, np.array([0.0, 1.0])))))
        Jstar = np.array([0.0, 1000.0])
        J0 = np.zeros(model.num_states)
        kw = dict(TestRecordedIterates.KINDS[kind])
        if kw.pop("masks", None):
            kw["masks"] = round_robin_masks(model)
        if kw["algorithm"] != "vi":
            kw.update(J0=J0, Q0=h_backup(model, J0))
        cfg = SolverConfig(**kw, max_iter=12, tol=1e-300, stop_on_tol=capped,
                           ground_truth=(Jstar, h_backup(model, Jstar)))
        recorded = []
        real = solvers._Recorder.row

        def row(self, k, residual, J, Q=None, **fields):
            recorded.append([(v, v.tobytes()) for v in (J, Q) if v is not None])
            return real(self, k, residual, J, Q, **fields)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers._Recorder, "row", row)
            try:
                out = value_iteration(model, J0, cfg) if kind == "vi" else run(model, cfg)
            except SolverCapError as err:
                out = err
        return out, recorded

    @pytest.mark.parametrize("capped", [False, True], ids=["returned", "raised"])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_rows_share_no_memory_and_outlive_writes_into_the_answer(self, kind, capped):
        out, recorded = self._solve(kind, capped)
        assert isinstance(out, SolverCapError) == capped
        result = out.result if capped else out
        assert len(recorded) == len(result.trace.rows) == 12
        arrays = [(k, v) for k, row in enumerate(recorded) for v, _ in row]
        for i, (k, a) in enumerate(arrays):
            for j, b in arrays[i + 1:]:
                assert not np.shares_memory(a, b), (k, j)
        if kind in ("power", "masked", "exact"):
            for row, ((_, J_bits), (_, Q_bits)) in zip(result.trace.rows, recorded):
                assert row.extra[J_SNAPSHOT].tobytes() == J_bits
                assert row.extra[Q_SNAPSHOT].tobytes() == Q_bits
        answers = (out.last if isinstance(out.last, tuple) else (out.last,)) if capped \
            else (result.J,) if result.Q is None else (result.J, result.Q)
        for v in answers:
            assert not any(np.shares_memory(v, a) for _, a in arrays)
            v[...] = -7.0
        assert all(v.tobytes() == bits for row in recorded for v, bits in row)
        assert all(row.dist_J is not None for row in result.trace.rows)


# Start entries of a solve, for J0 and Q0: small finite values with zeros
# of both signs, values with infinities, values with NaN, or values near
# the largest float against costs up to 1e308, so that an iterate
# overflows part way.
BIG = 1.5e308
SOLVE_STARTS = {"finite": st.sampled_from([-0.0, 0.0, 0.5, -1.0, 3.0]),
                "infinite": st.sampled_from([INF, -INF, 0.0, 2.0]),
                "nan": st.sampled_from([math.nan, 0.0, 0.0, 1.0]),
                "big": st.sampled_from([BIG, -BIG, 1e308, 0.0])}


@st.composite
def finite_path_cases(draw):
    """An atomic D, N or P model with sparse rows, now and then an
    infinite cost of the regime's sign, and starts J0, Q0 of one kind of
    SOLVE_STARTS."""
    n = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    regime = draw(st.sampled_from(["D", "N", "P"]))
    kind = draw(st.sampled_from(sorted(SOLVE_STARTS)))
    sign = -1.0 if regime == "N" else 1.0
    scale = 5e307 if kind == "big" else 1.0
    cost = st.sampled_from([0.0, 0.5, 1.0, 2.0]).map(lambda c: sign * scale * c)
    alpha = 1.0
    if regime == "D":
        alpha = draw(st.sampled_from([0.5, 0.95]))
        cost = st.one_of(cost, cost.map(lambda c: -c))
    if draw(st.integers(0, 3)) == 0:
        cost = st.one_of(cost, cost, st.just(sign * INF))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    controls = []
    for m in counts:
        row = []
        for i in range(m):
            raw = rng.random(n) * (rng.random(n) < 0.5)
            raw[rng.integers(n)] += 0.1
            row.append(AtomicControl(f"c{i}", draw(cost), raw / raw.sum()))
        controls.append(tuple(row))
    model = TotalCostModel(regime, alpha, tuple(controls))
    start = SOLVE_STARTS[kind]
    return (model, np.array(draw(st.lists(start, min_size=n, max_size=n))),
            np.array(draw(st.lists(start, min_size=model.num_pairs(),
                                   max_size=model.num_pairs()))))


def _array_bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _quietly(call):
    """What ``call`` returns with RuntimeWarning ignored (the result a
    SolverCapError carries too), or the text of the ValueError it
    raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return call()
        except SolverCapError as err:
            return err.result
        except ValueError as err:
            return str(err)


def _recorded_rows(solve):
    """The J and Q of every row that a solve records, and `_quietly`'s
    outcome of the solve."""
    rows = []
    real = solvers._Recorder.row

    def row(self, k, residual, J, Q=None, **fields):
        rows.append((J.copy(), None if Q is None else Q.copy()))
        return real(self, k, residual, J, Q, **fields)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers._Recorder, "row", row)
        return rows, _quietly(solve)


def _trap_model(regime: str) -> TotalCostModel:
    """State 0 is free and absorbing; state 1 pays c forever ("trap") or
    2c once to reach 0 ("exit"); state 2 moves to 1 free ("wait") or
    pays c to reach 0 ("leave"), with c = -1 in N and 1 in P.  The
    policy that traps and waits is priced at c * inf on states 1 and 2."""
    c = -1.0 if regime == "N" else 1.0
    return TotalCostModel(regime, 1.0, (
        (AtomicControl("rest", 0.0, np.array([1.0, 0.0, 0.0])),),
        (AtomicControl("trap", c, np.array([0.0, 1.0, 0.0])),
         AtomicControl("exit", 2 * c, np.array([1.0, 0.0, 0.0]))),
        (AtomicControl("wait", 0.0, np.array([0.0, 1.0, 0.0])),
         AtomicControl("leave", c, np.array([1.0, 0.0, 0.0])))))


class TestFiniteRows:
    """Value iteration, the mixed loop and optimistic policy iteration
    decide finiteness once per solve and carry it in their residuals,
    running finite rows on unchecked kernels, and policy iteration reads
    T, T_mu and its greedy policy off one backup per iteration.  Every
    row must be the row of a loop over the public checked entries
    (`reference_ops.value_iteration_rows`, `mixed_rows`,
    `policy_iteration_rows`, `optimistic_rows`), bit for bit, or both
    must raise the same ValueError: from finite starts, from starts with
    infinities or NaN, from policies priced at an infinity, and from
    starts near the largest float, whose iterates overflow part way and
    move the run to the checked path.  A discounted run on the finite
    path stops on the oracles' own bracket stop
    (`reference_ops.bracket_answer`): on the same row, with the same
    answer bit for bit and the same error bound up to the order of its
    sums; any other run has no error bound."""

    @staticmethod
    def _check_answer(result, answer, Q=False):
        """The result of a run that the oracle stops on the bracket with
        ``answer`` (J, [Q, policy,] bound), or of one it does not (None)."""
        if answer is None:
            assert result.error_bound is None
            return
        assert result.termination == "converged"
        assert _array_bits(result.J) == _array_bits(answer[0])
        if Q:
            assert _array_bits(result.Q) == _array_bits(answer[1])
            assert result.policy.descriptor() == answer[2].descriptor()
        assert result.error_bound == pytest.approx(answer[-1], rel=1e-12, abs=0.0)

    def _check_value_iteration(self, model, J0, max_iter, stop_on_tol=True):
        cfg = SolverConfig(algorithm="vi", max_iter=max_iter, tol=1e-9,
                           stop_on_tol=stop_on_tol)
        rows, result = _recorded_rows(lambda: value_iteration(model, J0, cfg))
        want, answer = _quietly(lambda: ref.value_iteration_rows(model, J0, max_iter, 1e-9,
                                                                 stop_on_tol))
        assert len(rows) == len(result.trace.rows) == len(want)
        for (J, _), row, (J_ref, res_ref, div_ref) in zip(rows, result.trace.rows, want):
            assert _array_bits(J) == _array_bits(J_ref)
            assert _array_bits(row.residual) == _array_bits(res_ref)
            assert row.extra["divergent"] == div_ref
        assert result.divergent == frozenset(want[-1][2])
        self._check_answer(result, answer)
        return result

    @settings(max_examples=300)
    @given(finite_path_cases(), st.sampled_from([5, 40, 120]))
    def test_value_iteration_rows(self, case, max_iter):
        model, J0, _ = case
        self._check_value_iteration(model, J0, max_iter)

    @pytest.mark.parametrize("regime", ["N", "P"])
    def test_value_iteration_rows_past_a_pin(self, regime):
        # State 1 pays -1 or 1 forever; the run pins it (in N with state
        # 2, which can reach it) to the regime's infinity from row 1 and
        # takes the checked path on, while state 3 still moves (it leaves
        # with probability 0.01).
        c = -1.0 if regime == "N" else 1.0
        model = TotalCostModel(regime, 1.0, (
            (AtomicControl("rest", 0.0, np.array([1.0, 0.0, 0.0, 0.0])),),
            (AtomicControl("trap", c, np.array([0.0, 1.0, 0.0, 0.0])),),
            (AtomicControl("on", 0.0, np.array([0.0, 0.5, 0.5, 0.0])),
             AtomicControl("off", c, np.array([1.0, 0.0, 0.0, 0.0]))),
            (AtomicControl("slow", c, np.array([0.01, 0.0, 0.0, 0.99])),)))
        assert self._check_value_iteration(model, np.zeros(4), 150).divergent

    @pytest.mark.parametrize("stop_on_tol", [True, False])
    @pytest.mark.parametrize("start", ["zero", "above"])
    @pytest.mark.parametrize("name", ["FX-P3a", "FX-P3b"])
    def test_value_iteration_rows_with_families(self, name, start, stop_on_tol):
        # Affine families: no pin in the iterate and no finite rows.  From
        # 1.5 J* the start bounds J* (FX-P3a's carries J(1) = inf), so
        # nothing is pinned; from zero FX-P3a reports state 1 pinned from
        # row 1 and the run iterates its finite values on.
        fx = fixture(name)
        J0 = np.zeros(3) if start == "zero" else 1.5 * fx.Jstar
        result = self._check_value_iteration(fx.model, J0, 130, stop_on_tol)
        assert result.divergent == (frozenset({1}) if (name, start) == ("FX-P3a", "zero")
                                    else frozenset())

    @settings(max_examples=300)
    @given(finite_path_cases(), st.data())
    def test_mixed_rows(self, case, data):
        model, J0, Q0 = case
        n = model.num_states
        draw = data.draw
        masks = draw(st.sampled_from([None, "round-robin", "halves"]))
        if masks == "round-robin":
            masks = round_robin_masks(model)
        elif masks == "halves":
            pairs, states = model.pair_ids % 2 == 0, np.arange(n) % 2 == 0
            masks = [(pairs, states), (~pairs, ~states)]
        clamp_lo = clamp_hi = None
        if draw(st.booleans()):
            clamp_lo = np.array(draw(st.lists(st.sampled_from([-INF, -1.0, 0.0]),
                                              min_size=n, max_size=n)))
        if draw(st.booleans()):
            clamp_hi = np.array(draw(st.lists(st.sampled_from([0.5, 4.0, INF]),
                                              min_size=n, max_size=n)))
        subsets = st.frozensets(st.integers(0, n - 1))
        cfg = SolverConfig(
            algorithm="mixed", J0=J0, Q0=Q0,
            nk=draw(st.sampled_from([1, 10, (1, 3, 10)])),
            epsilon=draw(st.sampled_from([0.0, 0.5])),
            bstrategy=draw(st.one_of(st.just(FullB()), st.lists(
                subsets, min_size=1, max_size=2).map(lambda b: CustomB(tuple(b))))),
            clamp_lo=clamp_lo, clamp_hi=clamp_hi, masks=masks,
            initial_policy=draw(st.sampled_from([None, Policy.uniform(model)])),
            max_iter=30, tol=1e-9)
        rows, result = _recorded_rows(lambda: mixed_vpi(model, cfg))
        want = _quietly(lambda: ref.mixed_rows(model, cfg))
        if isinstance(want, str):  # greedy selection met a NaN
            assert result == want and "NaN" in want
            return
        want, answer = want
        self._check_answer(result, answer, Q=True)
        assert len(rows) == len(result.trace.rows) == len(want)
        for (J, Q), row, w in zip(rows, result.trace.rows, want):
            assert _array_bits(J) == _array_bits(w["J"]) == _array_bits(row.extra[J_SNAPSHOT])
            assert _array_bits(Q) == _array_bits(w["Q"]) == _array_bits(row.extra[Q_SNAPSHOT])
            assert _array_bits(row.residual) == _array_bits(w["residual"])
            assert _array_bits(row.extra["residual_Q"]) == _array_bits(w["residual_Q"])
            assert row.extra["powers"] == w["powers"]
            assert row.policy == w["policy"]

    def _check_policy_rows(self, solve, oracle, extras):
        """The rows of ``solve`` against the oracle's (rows, termination,
        op count[, bracket answer]): J, residual, policy and the
        ``extra`` entries named by ``extras`` bit for bit, or the same
        ValueError text."""
        rows, result = _recorded_rows(solve)
        want = _quietly(oracle)
        if isinstance(want, str):
            assert result == want
            return None
        want_rows, termination, op_count, *answer = want
        if answer:
            self._check_answer(result, answer[0])
        assert len(rows) == len(result.trace.rows) == len(want_rows)
        for (J, _), row, w in zip(rows, result.trace.rows, want_rows):
            assert _array_bits(J) == _array_bits(w["J"])
            assert _array_bits(row.residual) == _array_bits(w["residual"])
            assert row.policy == w["policy"]
            for key in extras:
                assert _array_bits(row.extra[key]) == _array_bits(w[key])
        assert result.termination == termination
        assert result.trace.op_count == op_count
        return result

    def _check_policy_iteration(self, model, mu0, max_iter=20):
        cfg = SolverConfig(algorithm="pi", max_iter=max_iter)
        return self._check_policy_rows(
            lambda: policy_iteration(model, mu0, cfg),
            lambda: ref.policy_iteration_rows(model, mu0, max_iter), ["improvement_gap"])

    @staticmethod
    def _draw_policy(model, draw):
        if draw(st.booleans()):
            return Policy.uniform(model)
        return Policy.deterministic(model, [draw(st.integers(0, c - 1))
                                            for c in model.pair_counts().tolist()])

    @settings(max_examples=300)
    @given(finite_path_cases(), st.data())
    def test_policy_iteration_rows(self, case, data):
        model = case[0]
        self._check_policy_iteration(model, self._draw_policy(model, data.draw))

    @pytest.mark.parametrize("regime", ["N", "P"])
    def test_policy_iteration_rows_from_an_infinite_price(self, regime):
        model = _trap_model(regime)
        result = self._check_policy_iteration(model, Policy.deterministic(model, [0, 0, 0]))
        assert np.isinf(result.values[0]).tolist() == [False, True, True]
        self._check_policy_iteration(model, Policy.uniform(model))
        for name in ("FX-N2", "FX-P2", "FX-P4"):
            fx = fixture(name)
            self._check_policy_iteration(fx.model, Policy.uniform(fx.model))

    def _check_optimistic(self, model, mu0, J0, nk, stop_on_tol=True):
        cfg = SolverConfig(algorithm="mpi", nk=nk, max_iter=30, tol=1e-9,
                           stop_on_tol=stop_on_tol)
        return self._check_policy_rows(
            lambda: modified_policy_iteration(model, mu0, J0, cfg),
            lambda: ref.optimistic_rows(model, mu0, J0, cfg), ["J_eval", "J_greedy"])

    @settings(max_examples=300)
    @given(finite_path_cases(), st.data())
    def test_optimistic_rows(self, case, data):
        model, J0, _ = case
        draw = data.draw
        self._check_optimistic(model, self._draw_policy(model, draw), J0,
                               draw(st.sampled_from([1, 3, (1, 3, 10)])),
                               stop_on_tol=draw(st.booleans()))

    @pytest.mark.parametrize("regime", ["N", "P"])
    def test_optimistic_rows_from_an_infinite_price(self, regime):
        model = _trap_model(regime)
        sign = -1.0 if regime == "N" else 1.0
        for mu0 in (Policy.deterministic(model, [0, 0, 0]), Policy.uniform(model)):
            for J0 in (np.zeros(3), np.array([0.0, sign * INF, sign * INF])):
                self._check_optimistic(model, mu0, J0, 3)


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
    """One greedy selection per trace row (the loop calls the kernel
    `operators._greedy_select`), none at k = 0 when an initial policy is
    given; from k = 1 on it reuses the M(Q) the last row took, which must
    be M(Q) bit for bit, clamped or not."""

    @staticmethod
    def _calls(monkeypatch, algorithm, name, initial_policy=None, **kw):
        calls = []
        real = solvers._greedy_select

        def counting(model, Q, epsilon, qmin, keep, finite=False):
            if qmin is not None:
                assert qmin.tobytes() == m_minimize(model, Q).tobytes()
            calls.append(qmin is not None)
            return real(model, Q, epsilon, qmin, keep, finite)

        monkeypatch.setattr(solvers, "_greedy_select", counting)
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

        def recording(real):
            def call(*args, **kwargs):
                picked.append(real(*args, **kwargs))
                return picked[-1]
            return call

        class CountingTheta(Theta):
            def __post_init__(self):
                super().__post_init__()
                thetas.append(self)

        # mpi calls the public entry, mixed and lp its kernel.
        for name in ("greedy_select", "_greedy_select"):
            monkeypatch.setattr(solvers, name, recording(getattr(solvers, name)))
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
    proper subset B the loop also keeps its Theta.  With the default rho
    the measure's own bound (1 - beta) rho clears the threshold, and no
    measure is solved at all."""

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
        assert len(thetas) == changes + 1
        if concentrated:
            assert [p.descriptor() for p in solves] == [
                r.policy for i, r in enumerate(rows)
                if i == 0 or r.policy != rows[i - 1].policy]
        else:
            assert solves == []
        assert {r.b_set for r in rows} == ({"{0}"} if concentrated else {"S"})
        assert repr(bstrategy) == repr(OccupationSupportB(rho=rho))

    @pytest.mark.parametrize("beta, threshold, rho, solved", [
        (0.5, 1e-12, None, False),            # the default: 0.5 / 8 clears 1e-12
        (0.9, 0.0124, None, False),           # 0.1 / 8 = 0.0125 > 0.0124
        (0.9, 0.0125, None, True),            # the bound does not clear it: solve
        (0.5, 1e-12, "e0", True),             # min(rho) = 0
        (0.5, 1e-12, "positive", False),      # a nonuniform rho with every entry > 0
    ])
    def test_the_bound_spares_the_solve(self, monkeypatch, beta, threshold, rho, solved):
        solves = []
        real = solvers.occupation_measure

        def counting(*args, **kwargs):
            solves.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, "occupation_measure", counting)
        model, _ = random_model(8, num_states=8, controls_per_state=3, regime="P")
        if rho == "e0":
            rho = np.eye(model.num_states)[0]
        elif rho == "positive":
            rho = np.arange(1.0, model.num_states + 1) / 36.0
        policy = Policy.deterministic(model, [0] * model.num_states)
        strategy = OccupationSupportB(beta=beta, threshold=threshold, rho=rho)
        B = strategy.resolve(model, policy, 0)
        assert len(solves) == int(solved)
        measure = real(model, policy, strategy.rho if rho is not None
                       else np.full(model.num_states, 1.0 / model.num_states), beta)
        assert B == frozenset(np.flatnonzero(measure > threshold).tolist())
        if not solved:
            assert B is model.state_set

    def test_a_rho_of_another_length_is_refused(self):
        model, _ = random_model(8, num_states=8, controls_per_state=3, regime="P")
        policy = Policy.deterministic(model, [0] * model.num_states)
        with pytest.raises(ValueError, match=r"rho has shape \(3,\), the model wants \(8,\)"):
            OccupationSupportB(rho=np.full(3, 1 / 3)).resolve(model, policy, 0)


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

    # Each entry refuses a config made for another algorithm, naming
    # both: it would ignore that algorithm's settings and echo them into
    # its trace.
    @pytest.mark.parametrize("algorithm, other, names", [
        ("vi", "mixed", "value iteration was given a config for mixed iteration"),
        ("pi", "mpi", "policy iteration was given a config for modified policy iteration"),
        ("mpi", "pi", "modified policy iteration was given a config for policy iteration"),
        ("mixed", "lp", "mixed iteration was given a config for constraint-program"),
        ("lp", "mixed", "constraint-program iteration was given a config for mixed"),
    ])
    def test_refuses_a_config_for_another_algorithm(self, algorithm, other, names):
        fx = fixture("FX-P2")
        J0 = 1.5 * fx.Jstar
        cfg = SolverConfig(algorithm=other, J0=J0, Q0=h_backup(fx.model, J0),
                           initial_policy=Policy.deterministic(fx.model, [0, 1]),
                           epsilon=0.5 if other == "mixed" else 0.0)
        with pytest.raises(ValueError, match=f"{names} .*'{other}'"):
            _direct_call(algorithm, fx.model, cfg)

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
        with pytest.raises(ValueError, match="config must provide J0 and Q0"):
            mixed_vpi(fx.model, SolverConfig(algorithm="mixed", J0=np.zeros(3)))

    # Each refusal names the setting it refuses: the first key of its case.
    @pytest.mark.parametrize("settings", [
        {"tol": np.nan}, {"tol": 0.0}, {"epsilon": np.nan}, {"epsilon": -1.0},
        {"clamp_lo": np.array([0.0, np.nan])}, {"clamp_hi": np.array([np.nan, 1.0])},
        {"clamp_lo": np.array([0.0, 2.0]), "clamp_hi": np.array([1.0, 1.0])},
        {"nk": ()}, {"nk": 2.0}, {"nk": True}, {"nk": "fast"}, {"nk": (3, 0)}, {"nk": 0},
        {"nk": np.array(5)}, {"max_iter": 2.5}, {"max_iter": True}, {"max_iter": 0},
    ], ids=["tol-nan", "tol-zero", "epsilon-nan", "epsilon-negative",
            "clamp-lo-nan", "clamp-hi-nan", "clamp-lo-above-hi",
            "nk-empty", "nk-float", "nk-bool", "nk-word", "nk-zero-entry", "nk-zero",
            "nk-0d-array", "max-iter-float", "max-iter-bool", "max-iter-zero"])
    def test_rejects_nan_and_out_of_range_settings(self, settings):
        with pytest.raises(ValueError, match=next(iter(settings))):
            SolverConfig(algorithm="mixed", **settings)

    def test_numpy_integer_counts_run(self):
        # A numpy integer nk or max_iter is read as the Python int it
        # holds: the run and its trace (config echo included) are those of
        # the plain int.
        fx = fixture("FX-D")
        J0 = 1.5 * fx.Jstar
        runs = [mixed_vpi(fx.model, SolverConfig(algorithm="mixed", J0=J0,
                                                 Q0=h_backup(fx.model, J0), nk=nk,
                                                 max_iter=max_iter, tol=1e-10))
                for nk, max_iter in ((np.int64(5), np.int32(500)), (5, 500))]
        assert runs[0].converged
        assert type(runs[0].trace.config["nk"]) is int
        assert np.array_equal(runs[0].J, runs[1].J)
        assert runs[0].trace.config == runs[1].trace.config

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

    def test_a_row_at_the_rate_bound_passes_bit_for_bit(self):
        # Every row's distance is alpha^k dist0 + 1e-12 by Python's pow, so
        # every margin is 0.0.  numpy's vector power puts 0.9^12 one ulp
        # off Python's here, which would fail row 12 by 5.6e-17.
        fx = fixture("FX-D")
        alpha = fx.model.discount
        assert alpha == 0.9
        trace = IterationTrace(algorithm="mixed", regime="D", discount=alpha, config={},
                               dist0=1.0)
        for k in range(1, 13):
            trace.append(TraceRow(k=k, residual=0.0, dist_J=alpha ** k + 1e-12))
        report = verify_certificates(fx.model, trace)
        geo = {c.name: c for c in report.checks}["geometric-rate"]
        assert geo.passed and np.float64(geo.margin).tobytes() == np.float64(0.0).tobytes()
        assert report == ref.verify_certificates(fx.model, trace)

    def test_a_row_past_the_rate_fails_the_report(self):
        # One row's J distance raised 1e-3 past alpha^k * dist0 breaks the
        # geometric rate by that much (less the 1e-12 of room).
        fx = fixture("FX-D")
        cfg = SolverConfig(algorithm="mixed", J0=np.zeros(3),
                           Q0=np.zeros(6), nk=5, bstrategy=FullB(),
                           tol=1e-12, max_iter=400,
                           ground_truth=fx.ground_truth())
        trace = mixed_vpi(fx.model, cfg).trace
        past = fx.model.discount ** trace.rows[2].k * trace.dist0 + 1e-3
        trace.columns.lists["dist_J"][2] = past
        report = verify_certificates(fx.model, trace, fx.ground_truth())
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
    """The recorder fills a row's ground-truth columns, and the upper
    margin against the N/P envelope, after the row is appended: every
    `solvers._BLOCK` rows and when the run ends.  Each mixed row's
    columns are the 1-D kernels applied to its own snapshots, bit for
    bit, however the run ends."""

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
            held.append(len(rec._held_J))
            fill(rec)

        fx, cfg = self._config(name, max_iter=solvers._BLOCK + 44, stop_on_tol=False)
        monkeypatch.setattr(solvers._Recorder, "_fill", counted)
        out = mixed_vpi(fx.model, cfg)
        assert len(out.trace.rows) == solvers._BLOCK + 44
        assert held == [solvers._BLOCK, 44]
        self._assert_columns(out.trace, fx)

    @pytest.mark.parametrize("clamped", [False, True])
    def test_upper_margins_of_a_run_longer_than_two_blocks(self, clamped):
        # The slow exit at p = 1e-3 from above, J(1) = 1/p, with no ground
        # truth: 600 rows of nk = 10 leave J(1) about 1.2 above 1/p, at or
        # below the envelope.  Clamped at 1.35/p, J(1) stays above the
        # envelope once the envelope falls below it (row 357), so the margins
        # vary.  Each row's upper_margin is the oracle's margin of its
        # J_k against T^k(J0), the envelope stepped by the oracle's T.
        p = 1e-3
        model = TotalCostModel("P", 1.0, (
            (AtomicControl("rest", 0.0, np.array([1.0, 0.0])),),
            (AtomicControl("go", 1.0, np.array([p, 1.0 - p])),)))
        J0 = np.array([0.0, 1.5 / p])
        out = mixed_vpi(model, SolverConfig(
            algorithm="mixed", J0=J0, Q0=h_backup(model, J0), nk=10, max_iter=600,
            stop_on_tol=False, clamp_lo=np.array([0.0, 1.35 / p]) if clamped else None))
        columns = out.trace.columns
        assert len(columns) == 600 > 2 * solvers._BLOCK
        envelope, want = J0, []
        for J in columns.iterates(J_SNAPSHOT):
            envelope = ref.bellman_T(model, envelope)
            want.append(ref.margin_masked(J, envelope))
        assert _array_bits(columns.column("upper_margin")) == _array_bits(want)
        if clamped:
            assert len(set(want)) > 200 and max(want) > 50.0
        else:
            assert 1.0 / p < out.J[1] < 1.0 / p + 2.0 and max(want) == 0.0

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


class TestEmptyModel:
    """A model with no state is refused with a message by every solver,
    value iteration included."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_refuses_it(self, algorithm):
        model = TotalCostModel("P", 1.0, ())
        cfg = SolverConfig(algorithm=algorithm, J0=np.zeros(0), Q0=np.zeros(0),
                           initial_policy=Policy.deterministic(model, []))
        with pytest.raises(ValueError, match="^the model has no state$"):
            run(model, cfg)
        with pytest.raises(ValueError, match="^the model has no state$"):
            _direct_call(algorithm, model, cfg)

    def test_vi_and_mixed_refuse_it_in_d(self):
        model = TotalCostModel("D", 0.5, ())
        with pytest.raises(ValueError, match="^the model has no state$"):
            value_iteration(model, np.zeros(0))
        with pytest.raises(ValueError, match="^the model has no state$"):
            mixed_vpi(model, SolverConfig(algorithm="mixed", J0=np.zeros(0), Q0=np.zeros(0)))

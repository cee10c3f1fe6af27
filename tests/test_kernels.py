"""Pair-axis kernels against the loop references in reference_ops.

Models, value vectors and policies are drawn with infinities of both
signs (also on zero-weight controls and zero-probability successors),
infinite costs, exact ties and randomized mixes.  Minima, argmins and
every infinity must match the reference exactly; finite sums may differ
only by summation order (rtol = atol = 1e-12); no NaN may appear.

The fast paths of a choice-backed policy (its label-table descriptor,
the unchecked greedy constructor, the index read of the F_theta floor)
and the direct model writer are checked against the general path or
the old rendering: same strings, same bytes, or the same floats up to
the sign of a zero.  The mixed iteration's fast paths (the gathered
floor, the pair-cost flag of the Q backup, greedy selection from a
supplied minimum or by row argmin) must give the same bytes as the
forms they replaced, NaN and signed zeros included.
"""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference_ops as ref
from totaldp.chains import (
    _pair_kernel,
    evaluate_policy,
    occupation_measure,
    state_marginal,
)
from totaldp.extreal import INF, expect, expect_segments, xadd, xadd_vec
from totaldp.fixtures import fixture, fixture_names
from totaldp.ftheta import (
    Theta,
    _f_floor,
    _floor,
    applications_run,
    f_theta_apply,
    f_theta_power,
    q_fixed_point,
)
from totaldp.model import (
    AffineFamily,
    AtomicControl,
    AtomicMix,
    FamilyChoice,
    Policy,
    TotalCostModel,
    induced_complement,
    induced_kernel,
    validate_policy,
)
from totaldp.modelio import model_hash, render_model
from totaldp.operators import (
    bellman_T,
    bellman_T_mu,
    greedy_select,
    h_backup,
    m_minimize,
    pair_backup,
)
from totaldp.stopping import (
    StoppingProblem,
    build_stopping,
    lp_upper_bound,
    reconstruct_q,
    solve_stopping,
    t_o_apply,
)

# Few distinct values, so that exact ties are common.
EXT = st.one_of(st.sampled_from([-INF, INF, -1.0, 0.0, 0.5, 2.0]),
                st.floats(-10.0, 10.0))
COST = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, 1.0, INF, -INF]))
MIX = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 3.0])


def assert_matches(new, old, exact=False):
    new = np.asarray(new, dtype=float)
    old = np.asarray(old, dtype=float)
    assert new.shape == old.shape
    assert not np.isnan(new).any() and not np.isnan(old).any()
    assert np.array_equal(new == INF, old == INF)
    assert np.array_equal(new == -INF, old == -INF)
    fin = np.isfinite(old)
    if exact:
        assert np.array_equal(new[fin], old[fin])
    else:
        np.testing.assert_allclose(new[fin], old[fin], rtol=1e-12, atol=1e-12)


@st.composite
def atomic_models(draw, max_states=5, max_controls=3, uniform=False):
    """Unvalidated atomic model: sparse rows, any costs, any discount;
    with ``uniform``, every state has the same number of controls."""
    n = draw(st.integers(1, max_states))
    alpha = draw(st.sampled_from([0.0, 0.5, 0.95, 1.0]))
    if uniform:
        counts = [draw(st.integers(1, max_controls))] * n
    else:
        counts = draw(st.lists(st.integers(1, max_controls), min_size=n, max_size=n))
    costs = iter(draw(st.lists(COST, min_size=sum(counts), max_size=sum(counts))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    controls = []
    for k in counts:
        row = []
        for i in range(k):
            raw = rng.random(n) * (rng.random(n) < 0.5)
            raw[rng.integers(n)] += 0.1
            row.append(AtomicControl(f"c{i}", next(costs), raw / raw.sum()))
        controls.append(tuple(row))
    return TotalCostModel(regime="D" if alpha < 1.0 else "P", discount=alpha,
                          controls=tuple(controls))


def vectors(size):
    return st.lists(EXT, min_size=size, max_size=size).map(np.array)


@st.composite
def policies(draw, model):
    """A choice-backed deterministic policy or a mix with zero weights."""
    if draw(st.booleans()):
        return Policy.deterministic(model, [draw(st.integers(0, len(cs) - 1))
                                            for cs in model.controls])
    acts = []
    for cs in model.controls:
        w = np.array(draw(st.lists(MIX, min_size=len(cs), max_size=len(cs))))
        if w.sum() == 0.0:
            w[draw(st.integers(0, len(cs) - 1))] = 1.0
        acts.append(AtomicMix(w / w.sum()))
    return Policy(tuple(acts))


@st.composite
def cases(draw):
    """A model with a policy, J, a pair vector and a state set B."""
    model = draw(atomic_models())
    return SimpleNamespace(
        model=model, policy=draw(policies(model)), J=draw(vectors(model.num_states)),
        Q=draw(vectors(model.num_pairs())),
        B=frozenset(x for x in range(model.num_states) if draw(st.booleans())),
        eps=draw(st.sampled_from([0.0, 0.5, 1.0, 1e9, INF])))


class TestExtendedRealVectors:
    @given(st.lists(st.tuples(EXT, EXT), min_size=1, max_size=8))
    def test_xadd_vec_matches_scalar(self, pairs):
        a, b = (np.array(v) for v in zip(*pairs))
        assert_matches(xadd_vec(a, b), [xadd(x, y) for x, y in pairs], exact=True)

    def test_opposite_infinities_give_plus_inf(self):
        assert np.array_equal(xadd_vec(np.array([INF, -INF]), np.array([-INF, INF])),
                              [INF, INF])

    def test_nan_input_stays_visible(self):
        out = xadd_vec(np.array([np.nan, 1.0]), np.array([1.0, 2.0]))
        assert np.isnan(out[0]) and out[1] == 3.0

    @given(st.lists(st.lists(st.tuples(MIX, EXT), min_size=1, max_size=4),
                    min_size=1, max_size=4))
    def test_expect_segments_matches_expect(self, segments):
        weights = np.array([w for seg in segments for w, _ in seg])
        values = np.array([v for seg in segments for _, v in seg])
        starts = np.cumsum([0] + [len(seg) for seg in segments[:-1]])
        old = [expect(np.array([w for w, _ in seg]), np.array([v for _, v in seg]))
               for seg in segments]
        assert_matches(expect_segments(weights, values, starts), old)

    def test_zero_weight_infinity_contributes_nothing(self):
        out = expect_segments(np.array([0.0, 1.0, 0.5, 0.5]),
                              np.array([-INF, 2.0, INF, -INF]), np.array([0, 2]))
        assert np.array_equal(out, [2.0, INF])


class TestOperators:
    @given(cases())
    def test_operators_match_reference(self, c):
        model, J, Q = c.model, c.J, c.Q
        assert_matches(h_backup(model, J), ref.h_backup(model, J), exact=True)
        assert_matches(bellman_T(model, J), ref.bellman_T(model, J), exact=True)
        assert_matches(bellman_T_mu(model, c.policy, J), ref.bellman_T_mu(model, c.policy, J))
        assert_matches(m_minimize(model, Q), ref.m_minimize(model, Q), exact=True)
        new = greedy_select(model, Q, epsilon=c.eps)
        old = ref.greedy_select(model, Q, epsilon=c.eps)
        assert new.descriptor() == old.descriptor()

    def test_minus_inf_cost_meets_plus_inf_successor(self):
        model = TotalCostModel("P", 1.0, ((AtomicControl("a", -INF, np.array([0.0, 1.0])),),
                                          (AtomicControl("b", 0.0, np.array([0.0, 1.0])),)))
        J = np.array([0.0, INF])
        assert h_backup(model, J)[0] == INF
        assert bellman_T_mu(model, Policy.deterministic(model, [0, 0]), J)[0] == INF

    def test_greedy_tie_and_slack_take_lowest_index(self):
        model = TotalCostModel("D", 0.5, (tuple(AtomicControl(f"c{i}", 0.0, np.ones(1))
                                                for i in range(3)),))
        assert greedy_select(model, np.array([2.0, 1.0, 1.0])).action_index(0) == 1
        assert greedy_select(model, np.array([1.5, 1.0, 0.0]), 0.5).action_index(0) == 2
        assert greedy_select(model, np.array([0.5, 1.0, 0.0]), 0.5).action_index(0) == 0
        # -inf + inf slack is +inf: every control qualifies.
        assert greedy_select(model, np.array([1.0, -INF, 0.0]), INF).action_index(0) == 0


class TestAffineFamilies:
    """Models with families take the scalar path: results are the reference's."""

    @given(st.sampled_from(["FX-P3a", "FX-P3b"]), st.data())
    def test_backups_match_reference(self, name, data):
        model = fixture(name).model
        J = data.draw(vectors(model.num_states).filter(
            lambda v: not ((v == INF).any() and (v == -INF).any())))
        assert_matches(bellman_T(model, J), ref.bellman_T(model, J), exact=True)
        u = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        policy = Policy(tuple(FamilyChoice(0, u) if model.families[x]
                              else AtomicMix(np.full(len(cs), 1.0 / len(cs)))
                              for x, cs in enumerate(model.controls)))
        assert_matches(bellman_T_mu(model, policy, J), ref.bellman_T_mu(model, policy, J),
                       exact=True)


    @pytest.mark.parametrize("J", [[0.0, INF, 3.0], [0.0, 2.0, INF], [INF, INF, INF]])
    @pytest.mark.parametrize("mix", [[0.25, 0.75], [1.0, 0.0]])
    def test_mixed_atomic_and_family_policy(self, J, mix):
        # State 1 mixes two atomic controls (with a zero weight on one
        # that sees J(1) in the second mix), state 2 picks its family.
        fam = AffineFamily(lo=0.0, hi=1.0, lo_closed=True, hi_closed=False,
                           c0=0.0, c1=1.0, p0=np.array([0.0, 0.0, 1.0]),
                           p1=np.array([1.0, 0.0, -1.0]))
        model = TotalCostModel("P", 1.0, (
            (AtomicControl("rest", 0.0, np.array([1.0, 0.0, 0.0])),),
            (AtomicControl("a", 1.0, np.array([0.5, 0.0, 0.5])),
             AtomicControl("b", 0.0, np.array([0.0, 1.0, 0.0]))),
            (AtomicControl("c", 2.0, np.array([1.0, 0.0, 0.0])),),
        ), families=((), (), (fam,)))
        policy = Policy((AtomicMix(np.array([1.0])), AtomicMix(np.array(mix)),
                         FamilyChoice(0, 0.5)))
        J = np.array(J)
        assert_matches(bellman_T_mu(model, policy, J), ref.bellman_T_mu(model, policy, J))


class TestParametrizedOperators:
    @given(cases())
    def test_f_operators_and_stopping_match_reference(self, c):
        model, J, Q = c.model, c.J, c.Q
        theta = Theta(c.policy, c.B)
        assert_matches(f_theta_apply(model, theta, Q, J), ref._f_apply(model, theta, Q, J))
        prob = StoppingProblem(model=model, theta=theta, J=J)
        G = ref._continuation_values(prob, Q)
        assert_matches(reconstruct_q(prob, Q), G)
        stop = J[model.pair_state]
        assert_matches(t_o_apply(prob, Q), np.where(prob.b_pairs, np.minimum(stop, G), stop))

    @given(cases())
    def test_induced_kernel_is_the_weighted_row_sum(self, c):
        model, policy = c.model, c.policy
        P, g = induced_kernel(model, policy)
        A, g2 = induced_complement(model, policy)
        for x, a in enumerate(policy.actions):
            rows = np.stack([ctl.probs for ctl in model.controls[x]])
            costs = np.array([ctl.cost for ctl in model.controls[x]])
            if policy.is_deterministic():
                assert np.array_equal(P[x], rows[policy.action_index(x)])
            np.testing.assert_allclose(P[x], a.weights @ rows, rtol=1e-12, atol=1e-12)
            assert_matches([g[x]], [expect(a.weights, costs)])
        assert np.array_equal(A, np.eye(model.num_states) - P)
        assert np.array_equal(g, g2)


class TestPowerStop:
    """`f_theta_power` stops once a power repeats; the result must be the
    full composition, bit for bit."""

    @given(cases(), st.integers(1, 6))
    def test_stop_is_exact(self, c, n):
        model, theta = c.model, Theta(c.policy, c.B)
        before = applications_run()
        got = f_theta_power(model, theta, c.Q, c.J, n)
        assert 1 <= applications_run() - before <= n
        Q, old = c.Q, c.Q
        for _ in range(n):
            Q = f_theta_apply(model, theta, Q, c.J)
            old = ref._f_apply(model, theta, old, c.J)
        assert got.tobytes() == Q.tobytes()
        # the loop oracle sums policy mixes in another order
        assert_matches(got, old)

    def test_empty_b_runs_one_backup(self):
        model = fixture("FX-D").model
        J = np.array([0.0, -0.0, 1.0])
        theta = Theta(Policy.deterministic(model, [0] * model.num_states), frozenset())
        before = applications_run()
        got = f_theta_power(model, theta, np.full(model.num_pairs(), INF), J, 6)
        assert applications_run() - before == 1
        assert got.tobytes() == h_backup(model, J).tobytes()


def same_up_to_zero_sign(a, b):
    """Equal as floats, NaN-free, and bitwise equal once -0.0 is read as
    +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert not np.isnan(a).any()
    assert np.array_equal(a, b)
    assert (a + 0.0).tobytes() == (b + 0.0).tobytes()


@st.composite
def deterministic_cases(draw):
    """A choice-backed policy with J, a pair vector and an empty, full or
    partial B."""
    model = draw(atomic_models())
    n = model.num_states
    kind = draw(st.sampled_from(["empty", "full", "partial"]))
    B = (frozenset() if kind == "empty" else frozenset(range(n)) if kind == "full"
         else frozenset(x for x in range(n) if draw(st.booleans())))
    return SimpleNamespace(
        model=model, B=B, J=draw(vectors(n)), Q=draw(vectors(model.num_pairs())),
        policy=Policy.deterministic(model, [draw(st.integers(0, len(cs) - 1))
                                            for cs in model.controls]))


class TestChoiceFastPaths:
    @given(cases())
    def test_descriptor_matches_f_string_rendering(self, c):
        assert c.policy.descriptor() == ref.descriptor(c.policy)
        greedy = greedy_select(c.model, c.Q, epsilon=c.eps)
        assert greedy.descriptor() == ref.descriptor(greedy)

    @given(cases())
    def test_trusted_greedy_policy_equals_checked_one(self, c):
        new = greedy_select(c.model, c.Q, epsilon=c.eps)
        old = ref.greedy_select(c.model, c.Q, epsilon=c.eps)  # Policy.deterministic
        assert np.array_equal(new.chosen_pairs, old.chosen_pairs)
        assert np.array_equal(new.pair_weights, old.pair_weights)
        assert [new.action_index(x) for x in range(c.model.num_states)] == \
            [old.action_index(x) for x in range(c.model.num_states)]
        assert validate_policy(c.model, new) == []
        assert not new.chosen_pairs.flags.writeable

    @given(deterministic_cases(), st.integers(1, 4))
    def test_index_floor_matches_one_hot_mix(self, c, n):
        model, J, Q = c.model, c.J, c.Q
        det = c.policy
        mix = Policy(det.actions)  # the same policy on the segment-sum path
        assert mix.chosen_pairs is None
        same_up_to_zero_sign(_floor(model, Theta(det, c.B), Q, J),
                             _floor(model, Theta(mix, c.B), Q, J))
        same_up_to_zero_sign(f_theta_power(model, Theta(det, c.B), Q, J, n),
                             f_theta_power(model, Theta(mix, c.B), Q, J, n))
        outcomes = []
        for policy in (det, mix):
            try:
                outcomes.append(q_fixed_point(model, Theta(policy, c.B), J))
            except (ValueError, RuntimeError) as err:
                outcomes.append(repr(err))
        if isinstance(outcomes[0], str):
            assert outcomes[0] == outcomes[1]
        else:
            (Qd, cert_d), (Qm, cert_m) = outcomes
            same_up_to_zero_sign(Qd, Qm)
            assert repr(cert_d) == repr(cert_m)


# Extended reals with zeros of both signs, for the policy reads.
ZEXT = st.one_of(st.sampled_from([-INF, INF, -0.0, 0.0, -1.0, 0.5]),
                 st.floats(-10.0, 10.0))


def zvectors(size):
    return st.lists(ZEXT, min_size=size, max_size=size).map(np.array)


@st.composite
def regime_cases(draw):
    """A valid-sign D, N or P model with -0.0, +0.0 and infinite costs,
    a choice-backed policy and the same policy as one-hot `AtomicMix`
    actions, J and a pair vector V with both infinities and both zeros,
    and an empty, partial or full B."""
    model = draw(atomic_models())
    regime = draw(st.sampled_from(["D", "N", "P"]))
    if regime == "D":
        costs = st.sampled_from([-0.0, 0.0, 1.0, -2.5])
        alpha = draw(st.sampled_from([0.0, 0.5, 0.95]))
    else:
        sign = -1.0 if regime == "N" else 1.0
        costs = st.sampled_from([0.0, 0.5, 2.0, INF]).map(lambda c: sign * c)
        alpha = 1.0
    controls = tuple(tuple(dataclasses.replace(c, cost=draw(costs)) for c in cs)
                     for cs in model.controls)
    model = TotalCostModel(regime=regime, discount=alpha, controls=controls)
    n = model.num_states
    det = Policy.deterministic(model, [draw(st.integers(0, len(cs) - 1))
                                       for cs in model.controls])
    return SimpleNamespace(
        model=model, det=det, mix=Policy(det.actions), J=draw(zvectors(n)),
        V=draw(zvectors(model.num_pairs())),
        B=draw(st.sampled_from([frozenset(), frozenset(range(n)),
                                frozenset(range(0, n, 2))])))


def same_outcome(run, *policies):
    """Run ``run`` for each policy; all raise the same error, or all
    return results that are the same up to the sign of a zero (arrays)
    or equal (anything else)."""
    outcomes = []
    for policy in policies:
        try:
            outcomes.append(run(policy))
        except (ValueError, RuntimeError) as err:
            outcomes.append(repr(err))
    first, *rest = outcomes
    for other in rest:
        if isinstance(first, str) or isinstance(other, str):
            assert first == other
            continue
        for a, b in zip(first, other):
            if isinstance(a, np.ndarray):
                same_up_to_zero_sign(a, b)
            else:
                assert repr(a) == repr(b)


class TestGatheredPolicyReads:
    """A policy built from choices is read by gathering at its chosen
    pairs; the one-hot segment sums it replaced (reference_ops) and the
    same policy given as one-hot mixes give the same floats, bitwise up
    to the sign of a zero."""

    @given(regime_cases())
    def test_t_mu_and_continuation_values(self, c):
        model, J, V = c.model, c.J, c.V
        got = bellman_T_mu(model, c.det, J)
        same_up_to_zero_sign(got, ref.bellman_T_mu_segments(model, c.det, J))
        same_up_to_zero_sign(got, bellman_T_mu(model, c.mix, J))
        det = StoppingProblem(model=model, theta=Theta(c.det, c.B), J=J)
        mix = StoppingProblem(model=model, theta=Theta(c.mix, c.B), J=J)
        got = reconstruct_q(det, V)
        same_up_to_zero_sign(got, ref.continuation_segments(det, V))
        same_up_to_zero_sign(got, reconstruct_q(mix, V))
        same_up_to_zero_sign(t_o_apply(det, V), t_o_apply(mix, V))

    @given(regime_cases())
    def test_pair_kernel_places_the_chosen_columns(self, c):
        got = _pair_kernel(c.model, c.det)
        same_up_to_zero_sign(got, _pair_kernel(c.model, c.mix))
        same_up_to_zero_sign(got, ref.pair_kernel_one_hot(c.model, c.det))

    @given(regime_cases())
    def test_induced_chain_and_evaluation(self, c):
        model = c.model
        P, g = induced_kernel(model, c.det)
        for want in (ref.atomic_rows_segments(model, c.det), induced_kernel(model, c.mix)):
            same_up_to_zero_sign(P, want[0])
            same_up_to_zero_sign(g, want[1])
        A, _ = induced_complement(model, c.det)
        assert A.tobytes() == induced_complement(model, c.mix)[0].tobytes()

        def evaluation(mu):
            out = evaluate_policy(model, mu)
            return out.J, out.divergent

        same_outcome(evaluation, c.det, c.mix)
        rho = np.full(model.num_states, 1.0 / model.num_states)
        same_outcome(lambda mu: (occupation_measure(model, mu, rho, 0.5),
                                 state_marginal(model, mu, rho, 3)), c.det, c.mix)

    @given(regime_cases())
    def test_stop_rule_engine(self, c):
        model, J = c.model, c.J

        def stopping(mu):
            sol = solve_stopping(build_stopping(model, Theta(mu, c.B), J))
            return sol.V, sol.fstar, repr(sol.stop_rule), sol.certificate

        def lp(mu):
            out = lp_upper_bound(model, Theta(mu, c.B), J)
            return out.W, out.Qbar, out.B_order, out.certificate

        same_outcome(lambda mu: q_fixed_point(model, Theta(mu, c.B), J), c.det, c.mix)
        same_outcome(stopping, c.det, c.mix)
        same_outcome(lp, c.det, c.mix)

    def test_a_choice_policy_of_another_layout_is_refused(self):
        small, big = fixture("FX-P2").model, fixture("FX-D").model
        policy = Policy.deterministic(small, [0, 0])
        with pytest.raises(ValueError, match="do not match the model's pairs"):
            bellman_T_mu(big, policy, np.zeros(big.num_states))
        with pytest.raises(ValueError, match="do not match the model's pairs"):
            induced_kernel(big, policy)
        with pytest.raises(ValueError, match="do not match the model's pairs"):
            _pair_kernel(big, policy)


# Values for the fast-path checks: both infinities, and zeros and NaNs of
# either sign, where the operand order of a minimum shows; mostly drawn
# from the short list, so that those meet often.
SPECIAL = st.sampled_from([-INF, INF, -0.0, 0.0, np.nan, -np.nan, -1.0, 0.5])
RAW = st.one_of(SPECIAL, SPECIAL, SPECIAL, st.floats(-10.0, 10.0))


def raw_vectors(size):
    return st.lists(RAW, min_size=size, max_size=size).map(np.array)


@st.composite
def signed_models(draw):
    """Undiscounted N or P model whose costs keep the regime's sign, with
    infinite costs among them."""
    model = draw(atomic_models())
    regime = draw(st.sampled_from(["N", "P"]))
    sign = -1.0 if regime == "N" else 1.0
    costs = st.sampled_from([0.0, 0.5, 2.0, INF])
    controls = tuple(tuple(dataclasses.replace(c, cost=sign * draw(costs)) for c in cs)
                     for cs in model.controls)
    return TotalCostModel(regime=regime, discount=1.0, controls=controls)


class TestMixedLoopFastPaths:
    """The mixed iteration's fast paths against the forms they replaced,
    bit for bit."""

    @given(deterministic_cases(), st.data())
    def test_gathered_floor_is_min_then_gather(self, c, data):
        model = c.model
        J = data.draw(raw_vectors(model.num_states))
        Q = data.draw(raw_vectors(model.num_pairs()))
        theta = Theta(c.policy, c.B)
        got = _f_floor(model, theta, Q, J)
        assert got.tobytes() == ref.f_floor_min_then_gather(model, theta, Q, J).tobytes()

    @given(st.one_of(atomic_models(), signed_models()), st.data())
    def test_pair_backup_with_cost_flag_is_scanned_form(self, model, data):
        w = data.draw(vectors(model.num_states))
        assert pair_backup(model, w).tobytes() == ref.pair_backup_scanned(model, w).tobytes()

    @given(cases(), st.data())
    def test_greedy_with_supplied_minimum(self, c, data):
        Q = data.draw(st.one_of(vectors(c.model.num_pairs()),
                                raw_vectors(c.model.num_pairs())))
        outcomes = []
        for kw in ({}, {"qmin": m_minimize(c.model, Q)}):
            try:
                outcomes.append(greedy_select(c.model, Q, c.eps, **kw).chosen_pairs)
            except ValueError as err:
                outcomes.append(str(err))
        if isinstance(outcomes[0], str):
            assert outcomes[0] == outcomes[1]
        else:
            assert np.array_equal(*outcomes)

    @given(atomic_models(uniform=True), st.data())
    def test_row_argmin_is_the_first_qualifying_pair(self, model, data):
        # The same model with its control width hidden takes the
        # segment-reduction path.
        general = dataclasses.replace(model)
        object.__setattr__(general, "control_width", 0)
        assert model.control_width >= 1
        Q = data.draw(raw_vectors(model.num_pairs()))
        qmin = m_minimize(model, Q)
        outcomes = []
        for m, kw in ((model, {}), (model, {"qmin": qmin}), (general, {})):
            try:
                outcomes.append(greedy_select(m, Q, **kw).chosen_pairs.tobytes())
            except ValueError as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_greedy_refuses_a_minimum_of_the_wrong_shape(self):
        model = fixture("FX-D").model
        Q = np.zeros(model.num_pairs())
        with pytest.raises(ValueError, match="qmin has shape"):
            greedy_select(model, Q, qmin=np.zeros(model.num_pairs()))


# model_hash of every fixture before render_model wrote its text directly.
FIXTURE_HASHES = {
    "FX-D": "9ed6cc971a25ba66",
    "FX-N2": "68a2c6a87840662d",
    "FX-P2": "546414e7323ef7ca",
    "FX-P3a": "df59e72312d571bc",
    "FX-P3b": "fff0fff145cfef9d",
    "FX-P4": "7fa8dc1e70c628f8",
}

# Quotes, backslashes, control characters and non-ASCII text.
NAME = st.text(st.one_of(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                                          "é", "☃", "\U0001f600", "a"]),
                         st.characters()), max_size=5)


def json_text(model, gt=None):
    return json.dumps(ref.model_document(model, gt), indent=2, allow_nan=False)


class TestModelWriter:
    def test_every_fixture_is_pinned(self):
        assert set(FIXTURE_HASHES) == set(fixture_names())

    @pytest.mark.parametrize("name", sorted(FIXTURE_HASHES))
    def test_fixture_text_is_json_dumps(self, name):
        fx = fixture(name)
        for gt in (None, (fx.Jstar, fx.Qstar), (fx.Jstar, None)):
            assert render_model(fx.model, gt) == json_text(fx.model, gt)
        assert model_hash(fx.model) == FIXTURE_HASHES[name]

    @given(atomic_models(), st.data())
    def test_escaped_names_and_infinities(self, model, data):
        n = model.num_states
        names = data.draw(st.lists(NAME, min_size=n, max_size=n))
        controls = tuple(tuple(dataclasses.replace(c, name=data.draw(NAME)) for c in cs)
                         for cs in model.controls)
        model = dataclasses.replace(model, controls=controls, state_names=tuple(names),
                                    cost_bound=data.draw(st.sampled_from([None, 5.0, 2])))
        gt = data.draw(st.sampled_from([None, "J", "JQ"]))
        if gt is not None:
            gt = (data.draw(vectors(n)),
                  data.draw(vectors(model.num_pairs())) if gt == "JQ" else None)
        assert render_model(model, gt) == json_text(model, gt)

    @pytest.mark.parametrize("where", ["prob-nan", "prob-inf", "cost-nan", "jstar-nan"])
    def test_nan_and_infinite_floats_are_refused(self, where):
        probs = np.array([np.nan if where == "prob-nan" else INF if where == "prob-inf"
                          else 1.0])
        cost = np.nan if where == "cost-nan" else 0.0
        model = TotalCostModel("P", 1.0, ((AtomicControl("a", cost, probs),),))
        gt = (np.array([np.nan]), None) if where == "jstar-nan" else None
        with pytest.raises(ValueError):
            json_text(model, gt)
        with pytest.raises(ValueError):
            render_model(model, gt)

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
forms they replaced, NaN and signed zeros included.  Operator powers,
which choose their finite path once from the start, must give the bytes
of n single applications, past an overflow and from infinite starts too,
and raise no RuntimeWarning that the single applications do not.
"""

import dataclasses
import hashlib
import json
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_ops as ref
from totaldp.chains import (
    evaluate_policy,
    occupation_measure,
    state_marginal,
)
from totaldp.extreal import INF, expect, expect_segments, xadd, xadd_vec
from totaldp.fixtures import fixture, fixture_names
from totaldp.ftheta import (
    Theta,
    _f_floor_map,
    _f_theta_power,
    _floor,
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
    _atomic_rows,
    induced_complement,
    induced_kernel,
    validate_policy,
)
from totaldp.modelio import model_hash, render_model
from totaldp.operators import (
    _backup_power,
    _finite,
    _greedy_select,
    _segment_min,
    bellman_T,
    bellman_T_mu,
    family_infimum,
    t_mu_power_and_h,
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


def unchecked_problem(model, theta, J):
    """A StoppingProblem over any (theta, J), without the constructor's
    admission checks: the continuation values are defined for every J,
    also for stop costs or models that `solve_stopping` may not price and
    the constructor therefore refuses."""
    prob = object.__new__(StoppingProblem)
    for name, value in (("model", model), ("theta", theta),
                        ("J", np.array(J, dtype=float))):
        object.__setattr__(prob, name, value)
    return prob


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
    """Models with families take the scalar path: results are the
    reference's, whose family arms are evaluated pointwise (the
    infinities exactly, finite values up to round-off)."""

    @given(st.sampled_from(["FX-P3a", "FX-P3b"]), st.data())
    def test_backups_match_reference(self, name, data):
        model = fixture(name).model
        J = data.draw(vectors(model.num_states).filter(
            lambda v: not ((v == INF).any() and (v == -INF).any())))
        assert_matches(bellman_T(model, J), ref.bellman_T(model, J))
        u = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        policy = Policy(tuple(FamilyChoice(0, u) if model.families[x]
                              else AtomicMix(np.full(len(cs), 1.0 / len(cs)))
                              for x, cs in enumerate(model.controls)))
        assert_matches(bellman_T_mu(model, policy, J), ref.bellman_T_mu(model, policy, J))

    # A family on [0, 1] whose interior reaches state 2 (J = +inf), while
    # one endpoint moves to state 1 (J = 3) for sure: "low" is safe at
    # t = 0 with cost 1, "high" at t = 1 with cost 0.5.
    SAFE_END = {"low": (1.0, 1.0, [0.0, 1.0, 0.0], [0.0, -1.0, 1.0]),
                "high": (1.0, -0.5, [0.0, 0.0, 1.0], [0.0, 1.0, -1.0])}

    @pytest.mark.parametrize("safe", ["low", "high"])
    @pytest.mark.parametrize("lo_closed, hi_closed",
                             [(True, True), (True, False), (False, True), (False, False)])
    def test_closed_endpoint_escapes_a_plus_inf_successor(self, safe, lo_closed, hi_closed):
        c0, c1, p0, p1 = self.SAFE_END[safe]
        fam = AffineFamily(lo=0.0, hi=1.0, lo_closed=lo_closed, hi_closed=hi_closed,
                           c0=c0, c1=c1, p0=np.array(p0), p1=np.array(p1))
        stay = AtomicControl("stay", 0.0, np.array([0.0, 1.0, 0.0]))
        model = TotalCostModel("P", 1.0, ((), (stay,), (stay,)), families=((fam,), (), ()))
        J = np.array([0.0, 3.0, INF])
        closed = lo_closed if safe == "low" else hi_closed
        want = (4.0 if safe == "low" else 3.5) if closed else INF
        assert family_infimum(model, fam, J) == want
        assert ref.family_infimum(model, fam, J) == want
        assert bellman_T(model, J)[0] == want


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
        prob = unchecked_problem(model, theta, J)
        G = ref._continuation_values(prob, Q)
        assert_matches(reconstruct_q(prob, Q), G)

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
        got, applied = f_theta_power(model, theta, c.Q, c.J, n)
        assert 1 <= applied <= n
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
        got, applied = f_theta_power(model, theta, np.full(model.num_pairs(), INF), J, 6)
        assert applied == 1
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
        assert c.policy.descriptor() is c.policy.descriptor()  # rendered once
        greedy = greedy_select(c.model, c.Q, epsilon=c.eps)
        assert greedy.descriptor() == ref.descriptor(greedy)

    @given(cases())
    def test_greedy_keeps_exactly_a_policy_with_the_same_choices(self, c):
        model, Q, eps = c.model, c.Q, c.eps
        fresh = greedy_select(model, Q, epsilon=eps)
        same = Policy.deterministic(model, [fresh.action_index(x)
                                            for x in range(model.num_states)])
        assert greedy_select(model, Q, epsilon=eps, keep=same) is same
        text = c.policy.descriptor()  # cached before the selection
        got = greedy_select(model, Q, epsilon=eps, keep=c.policy)
        kept = (c.policy.chosen_pairs is not None
                and np.array_equal(c.policy.chosen_pairs, fresh.chosen_pairs))
        assert (got is c.policy) == kept
        if not kept:
            assert np.array_equal(got.chosen_pairs, fresh.chosen_pairs)
            assert got.descriptor() == ref.descriptor(got) == fresh.descriptor()
            if c.policy.chosen_pairs is not None:  # other choices, other text
                assert got.descriptor() != text

    @given(cases())
    def test_greedy_never_keeps_a_mix(self, c):
        model = c.model
        fresh = greedy_select(model, c.Q, epsilon=c.eps)
        one_hot = Policy(tuple(AtomicMix(np.eye(len(cs))[fresh.action_index(x)])
                               for x, cs in enumerate(model.controls)))
        assert one_hot.descriptor() == fresh.descriptor()
        assert greedy_select(model, c.Q, epsilon=c.eps, keep=one_hot) is not one_hot

    def test_greedy_never_keeps_a_policy_of_another_layout(self):
        # Pairs 0, 2, 3 are one control per state under both layouts.
        def model(counts):
            return TotalCostModel("D", 0.5, tuple(
                tuple(AtomicControl(f"c{i}", 0.0, np.eye(3)[x]) for i in range(k))
                for x, k in enumerate(counts)))
        a, b = model((1, 2, 1)), model((2, 1, 1))
        other = Policy.deterministic(a, [0, 1, 0])
        Q = np.array([0.0, 1.0, 0.0, 0.0])
        got = greedy_select(b, Q, keep=other)
        assert got.chosen_pairs.tolist() == other.chosen_pairs.tolist() == [0, 2, 3]
        assert got is not other
        assert (got.descriptor(), other.descriptor()) == ("0:0,1:0,2:0", "0:0,1:1,2:0")

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
        same_up_to_zero_sign(f_theta_power(model, Theta(det, c.B), Q, J, n)[0],
                             f_theta_power(model, Theta(mix, c.B), Q, J, n)[0])
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
        det = unchecked_problem(model, Theta(c.det, c.B), J)
        mix = unchecked_problem(model, Theta(c.mix, c.B), J)
        got = reconstruct_q(det, V)
        same_up_to_zero_sign(got, ref.continuation_segments(det, V))
        same_up_to_zero_sign(got, reconstruct_q(mix, V))

    @given(regime_cases(), st.data())
    def test_stop_rule_rows_gather_the_chosen_pairs(self, c, data):
        # The stop-rule engine's chain: the rows of the pairs that
        # continue, and the stop costs J(x) in place of the others' costs.
        model = c.model
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=model.num_pairs(),
                                           max_size=model.num_pairs())), dtype=bool)
        costs = np.where(keep, model.pair_costs, c.J[model.pair_state])
        P, g = _atomic_rows(model, c.det, costs, keep)
        want = _atomic_rows(model, c.mix, costs, keep)
        same_up_to_zero_sign(P, want[0])
        same_up_to_zero_sign(g, want[1])
        full = induced_kernel(model, c.det)[0]
        chosen = np.flatnonzero(c.det.pair_weights)
        same_up_to_zero_sign(P, np.where(keep[chosen][:, None], full, 0.0))

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
            prob = build_stopping(model, Theta(mu, c.B), J)
            sol = solve_stopping(prob)
            return sol.V, reconstruct_q(prob, sol.V), sol.certificate

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
            q_fixed_point(big, Theta(policy, big.state_set), np.zeros(big.num_states))


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
        got = _f_floor_map(model, theta, J)[0](Q)
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
        general = TotalCostModel(model.regime, model.discount, model.controls,
                                 model.families, model.state_names, model.cost_bound)
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

    @given(atomic_models(uniform=True), st.data())
    def test_finite_greedy_keeps_exactly_a_policy_with_the_same_controls(self, model, data):
        # On a finite Q the mixed loop's selection knows a kept policy by
        # its control indices; it must keep exactly the policy that the
        # checked selection keeps, and otherwise build the same pairs.
        Q = data.draw(st.lists(st.sampled_from([-0.0, 0.0, 0.5, -1.0, 3.0]),
                               min_size=model.num_pairs(),
                               max_size=model.num_pairs()).map(np.array))
        fresh = greedy_select(model, Q)
        width = model.control_width
        other = Policy.deterministic(model, [data.draw(st.integers(0, width - 1))
                                            for _ in range(model.num_states)])
        same = Policy.deterministic(model, [fresh.action_index(x)
                                            for x in range(model.num_states)])
        for keep in (same, other, Policy.uniform(model)):
            got = _greedy_select(model, Q, 0.0, None, keep, True)
            assert (got is keep) == (greedy_select(model, Q, keep=keep) is keep)
            assert got.chosen_pairs.tobytes() == fresh.chosen_pairs.tobytes()
        assert _greedy_select(model, Q, 0.0, None, same, True) is same

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


# Start entries of a power, for J and for Q: small finite values with
# zeros of both signs, some infinities, or values near the largest float.
# Near-largest starts meet costs of about 1e308, so that a value
# overflows to +-inf part way through the powers and the powers' plain
# products meet it; there J may be +inf, so that the F_theta floor
# min{J, Q} passes the overflowed Q on.
BIG = 1.5e308
START_ENTRIES = {"finite": (st.sampled_from([-0.0, 0.0, 0.5, -1.0, 3.0]),) * 2,
                 "infinite": (st.sampled_from([INF, -INF, 0.0, 2.0]),) * 2,
                 "big": (st.sampled_from([BIG, -BIG, 1e308, 0.0, INF]),
                         st.sampled_from([BIG, -BIG, 1e308, 0.0]))}


@st.composite
def power_cases(draw):
    """A D (alpha = 0 or in (0, 1)), N or P model, a choice-backed or a
    mixed policy, a full or partial B, starts of one kind of
    START_ENTRIES (J and Q for F_theta, a state vector V for T_mu), and a
    power count."""
    model = draw(atomic_models())
    kind = draw(st.sampled_from(sorted(START_ENTRIES)))
    regime = draw(st.sampled_from(["D0", "D", "N", "P"]))
    sign = -1.0 if regime == "N" else 1.0
    scale = 5e307 if kind == "big" else 1.0
    costs = st.sampled_from([0.0, 0.5, 1.0, 2.0]).map(lambda c: sign * scale * c)
    if regime.startswith("D"):
        alpha = 0.0 if regime == "D0" else draw(st.sampled_from([0.5, 0.95]))
        costs = st.one_of(costs, costs.map(lambda c: -c))
    else:
        alpha = 1.0
    if draw(st.integers(0, 3)) == 0:  # now and then an infinite cost of the regime's sign
        costs = st.one_of(costs, costs, costs, st.just(sign * INF))
    controls = tuple(tuple(dataclasses.replace(c, cost=draw(costs)) for c in cs)
                     for cs in model.controls)
    model = TotalCostModel(regime=regime[0], discount=alpha, controls=controls)
    n = model.num_states
    J_entry, Q_entry = START_ENTRIES[kind]
    return SimpleNamespace(
        model=model, kind=kind, policy=draw(policies(model)),
        B=draw(st.sampled_from([frozenset(range(n)), frozenset(range(0, n, 2))])),
        J=np.array(draw(st.lists(J_entry, min_size=n, max_size=n))),
        Q=np.array(draw(st.lists(Q_entry, min_size=model.num_pairs(),
                                 max_size=model.num_pairs()))),
        V=np.array(draw(st.lists(Q_entry, min_size=n, max_size=n))),
        n=draw(st.integers(1, 6)))


def outcome(call, warning_filter):
    """The result of ``call`` under a RuntimeWarning filter, or the text
    of the warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter(warning_filter, RuntimeWarning)
        try:
            return call()
        except RuntimeWarning as err:
            return str(err)


def f_power_per_backup(model, theta, Q, J, n):
    """`f_theta_power` as n single applications, each deciding its own
    finite path: the backup count stops where the read state vector
    repeats."""
    applied, last = 0, None
    for _ in range(n):
        w = _f_floor_map(model, theta, J)[0](Q)
        if w.tobytes() == last:
            break
        Q, applied, last = pair_backup(model, w), applied + 1, w.tobytes()
    return Q, applied


def n_fold(apply, start, n):
    for _ in range(n):
        start = apply(start)
    return start


class TestPowers:
    """`f_theta_power` and `t_mu_power_and_h` (T_mu^n, then H) decide the
    finite path once, from their start, and must give the result of
    single applications, bit for bit, also where a value overflows part
    way and where the start holds an infinity.  Only near-largest starts
    may warn (the overflow itself); an error-mode run then stops at the
    same warning.  A policy built from choices runs its plain powers in
    `operators._gather_power`'s loop, which both entries reach, and the
    kernel `_f_theta_power` may start from a handed-in H(J)."""

    @settings(max_examples=300)
    @given(power_cases())
    def test_f_theta_power_is_n_applications(self, c):
        model, theta, J = c.model, Theta(c.policy, c.B), c.J
        calls = (lambda: f_theta_power(model, theta, c.Q, J, c.n),
                 lambda: f_power_per_backup(model, theta, c.Q, J, c.n),
                 lambda: (n_fold(lambda Q: ref._f_apply(model, theta, Q, J), c.Q, c.n),))
        if c.kind == "big":
            got, per_backup = (outcome(call, "error") for call in calls[:2])
            assert type(got) is type(per_backup)
            if isinstance(got, str):
                assert got == per_backup
        got, per_backup, oracle = (outcome(call, "ignore" if c.kind == "big" else "error")
                                   for call in calls)
        assert got[1] == per_backup[1]
        assert got[0].tobytes() == per_backup[0].tobytes()
        # The loop oracle reads a choice-backed policy as a one-hot mix,
        # which differs only in the sign of a zero; it sums a mix in
        # another order.
        if c.policy.chosen_pairs is not None:
            same_up_to_zero_sign(got[0], oracle[0])
        else:
            assert_matches(got[0], oracle[0])

    @settings(max_examples=300)
    @given(power_cases())
    def test_t_mu_power_and_h_is_n_applications(self, c):
        model, policy, J = c.model, c.policy, c.V

        def then_h(T, H):
            V = n_fold(lambda x: T(model, policy, x), J, c.n)
            return V, H(model, V)

        calls = (lambda: t_mu_power_and_h(model, policy, J, c.n),
                 lambda: then_h(bellman_T_mu, h_backup),
                 lambda: then_h(ref.bellman_T_mu, ref.h_backup))
        if c.kind == "big":
            got, per_backup = (outcome(call, "error") for call in calls[:2])
            assert type(got) is type(per_backup)
            if isinstance(got, str):
                assert got == per_backup
        got, per_backup, oracle = (outcome(call, "ignore" if c.kind == "big" else "error")
                                   for call in calls)
        for got_part, per_backup_part, oracle_part in zip(got, per_backup, oracle):
            assert got_part.tobytes() == per_backup_part.tobytes()
            # The loop oracle takes each expectation as its own dot product.
            assert_matches(got_part, oracle_part)

    @settings(max_examples=300)
    @given(power_cases(), st.booleans())
    def test_buffer_powers_are_the_fresh_ones(self, c, stop):
        # `_backup_power` writing into a pair-length buffer (the Q half of
        # a mixed row's [J | Q]) against the same power into fresh arrays:
        # every read form (a function, a gather with and without a floor),
        # with and without stop, on the path `_f_theta_power` picks and on
        # the per-backup one.  The J half is never written.
        model, chosen = c.model, c.policy.chosen_pairs
        reads = [_f_floor_map(model, Theta(c.policy, c.B), c.J)]
        if chosen is not None:  # F_theta's read with B = S, and T_mu's
            reads += [((chosen, c.J), True), ((chosen, None), True)]
        filt = "ignore" if c.kind == "big" else "error"
        for read, gathers in reads:
            floor = read[1] if isinstance(read, tuple) else None
            w = (read(c.Q) if not isinstance(read, tuple) else c.Q[chosen] if floor is None
                 else np.minimum(floor, c.Q[chosen]))
            for plain in {False, gathers and _finite(model, w)}:
                buf = np.full(model.num_states + model.num_pairs(), 12345.0)
                out = buf[model.num_states:]

                def into_buffer():
                    return _backup_power(model, w, read, c.n, plain, stop, out)

                def fresh():
                    return _backup_power(model, w, read, c.n, plain, stop)

                if c.kind == "big":
                    got, want = outcome(into_buffer, "error"), outcome(fresh, "error")
                    assert type(got) is type(want)
                    if isinstance(got, str):
                        assert got == want
                got, want = outcome(into_buffer, filt), outcome(fresh, filt)
                assert got[1] is out
                assert got[1].tobytes() == want[1].tobytes()
                assert got[0].tobytes() == want[0].tobytes() and got[2] == want[2]
                assert (buf[:model.num_states] == 12345.0).all()

    @settings(max_examples=300)
    @given(power_cases(), st.booleans(), st.booleans())
    def test_buffer_power_from_a_handed_first_backup(self, c, handed, lift):
        # `_f_theta_power` into the Q half of a mixed row's buffer, with
        # and without H(J) handed in, in that memory under another view
        # (the mixed loop's bracket), against single applications.  With
        # ``lift`` Q is raised to J on its pairs, so that the first w is
        # J, and the handed H is the first power, more often.
        model, theta, J = c.model, Theta(c.policy, c.B), c.J
        n = model.num_states
        Q = np.maximum(c.Q, J[model.pair_state]) if lift else c.Q
        filt = "ignore" if c.kind == "big" else "error"
        buf = np.full(n + model.num_pairs(), 12345.0)
        out = buf[n:]

        def into_buffer():
            first = None
            if handed:
                first = buf[n:]
                first[...] = outcome(lambda: pair_backup(model, J), "ignore")
            return _f_theta_power(model, theta, Q, J, c.n, out=out, first=first), first

        if c.kind == "big" and not handed:  # a handed H warned where it was made
            got = outcome(lambda: into_buffer()[0], "error")
            want = outcome(lambda: f_power_per_backup(model, theta, Q, J, c.n), "error")
            assert type(got) is type(want)
            if isinstance(got, str):
                assert got == want
        (got, applied), first = outcome(into_buffer, filt)
        want = outcome(lambda: f_power_per_backup(model, theta, Q, J, c.n), filt)
        assert applied == want[1]
        assert got.tobytes() == want[0].tobytes() == out.tobytes()
        assert np.shares_memory(got, buf) and (buf[:n] == 12345.0).all()
        w = _f_floor_map(model, theta, J)[0](Q)
        # the handed H is the result itself exactly when the power stopped at it
        assert (got is first) == (handed and w.tobytes() == J.tobytes() and applied == 1)

    @pytest.mark.parametrize("shape", [(6, 2), (90, 30), (96, 32), (400, 200)])
    def test_dot_and_matmul_agree_on_the_kernels_layouts(self, shape):
        # The plain backups take P.dot (np.dot's product), the checked
        # ones `expect_rows`' P @ w: from a finite w they must be the same
        # floats.  The kernels pass a contiguous vector (a gather, a
        # minimum) or a row's J half in the mixed loop's block, and write
        # into a row's Q half or a fresh array.
        m, n = shape
        rng = np.random.default_rng(m)
        P = rng.random((m, n)) * (rng.random((m, n)) < 0.4)
        P[np.arange(m), rng.integers(n, size=m)] += 0.1
        P /= P.sum(axis=1, keepdims=True)
        P.setflags(write=False)
        block = np.empty((3, n + m))
        for scale in (1.0, 1e-300, 1e300):
            block[:, :n] = rng.standard_normal((3, n)) * scale
            vectors = (np.ascontiguousarray(block[1, :n]), block[1, :n])
            for w in vectors:
                want = (P @ w).tobytes()
                assert np.dot(P, w).tobytes() == P.dot(w).tobytes() == want
                assert P.dot(w, out=block[2, n:]).tobytes() == want

    def test_a_buffer_power_that_overflows_part_way_is_run_again_into_the_buffer(self):
        # State 0 pays 1e308 and stays, state 1 is free and stays.  From
        # Q = (1e308, 0) the first backup overflows to (inf, 0); the plain
        # product of the second meets inf with state 1's zero weight and
        # leaves a NaN, so the power runs again backup by backup, now
        # writing into the buffer, and stops when the read repeats.
        model = TotalCostModel("P", 1.0, (
            (AtomicControl("up", 1e308, np.array([1.0, 0.0])),),
            (AtomicControl("rest", 0.0, np.array([0.0, 1.0])),)))
        theta = Theta(Policy.deterministic(model, [0, 0]), model.state_set)
        J, Q = np.full(2, INF), np.array([1e308, 0.0])
        buf = np.full(4, 12345.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plain = model.pair_probs @ np.array([INF, 0.0])  # the second backup's product
            got, applied = _f_theta_power(model, theta, Q, J, 3, out=buf[2:])
            want = f_power_per_backup(model, theta, Q, J, 3)
        assert np.isnan(plain).any()
        assert np.shares_memory(got, buf) and applied == want[1] == 2
        assert got.tobytes() == want[0].tobytes() == np.array([INF, 0.0]).tobytes()
        assert buf[2:].tobytes() == got.tobytes() and (buf[:2] == 12345.0).all()

    @given(st.one_of(atomic_models(), signed_models()), st.data())
    def test_buffer_segment_minimum_is_the_fresh_one(self, model, data):
        Q = data.draw(raw_vectors(model.num_pairs()))  # NaN and signed zeros too
        buf = np.full(model.num_states + 2, 12345.0)
        got = _segment_min(model, Q, buf[1:-1])
        assert np.shares_memory(got, buf)
        assert got.tobytes() == _segment_min(model, Q).tobytes() == buf[1:-1].tobytes()
        assert buf[0] == buf[-1] == 12345.0

    def test_buffer_segment_minimum_with_a_state_without_pairs(self):
        # FX-P3b's state 1 has an affine family and no atomic pair: +inf there
        model = fixture("FX-P3b").model
        Q = np.array([2.0, -0.0])
        buf = np.full(5, 12345.0)
        got = _segment_min(model, Q, buf[1:4])
        assert got.tobytes() == _segment_min(model, Q).tobytes() == \
            np.array([2.0, INF, -0.0]).tobytes()
        assert np.shares_memory(got, buf) and buf[0] == buf[4] == 12345.0


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
        model = TotalCostModel(model.regime, model.discount, controls, model.families,
                               state_names=tuple(names),
                               cost_bound=data.draw(st.sampled_from([None, 5.0, 2])))
        gt = data.draw(st.sampled_from([None, "J", "JQ"]))
        if gt is not None:
            gt = (data.draw(vectors(n)),
                  data.draw(vectors(model.num_pairs())) if gt == "JQ" else None)
        assert render_model(model, gt) == json_text(model, gt)
        # model_hash feeds the text to the hash one piece at a time
        assert model_hash(model) == hashlib.sha256(json_text(model).encode()).hexdigest()[:16]

    def test_model_without_states(self):
        model = TotalCostModel("P", 1.0, ())
        assert render_model(model) == json_text(model)
        assert model_hash(model) == hashlib.sha256(json_text(model).encode()).hexdigest()[:16]

    def test_a_large_model_is_hashed_a_few_states_at_a_time(self):
        # Its transitions span many render blocks; model_hash holds one
        # block's text at a time, not the whole file.
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 4, size=300)
        m = int(counts.sum())
        probs = rng.random((m, 300)) * (rng.random((m, 300)) < 0.5)
        model = TotalCostModel.from_arrays("P", 1.0, counts, rng.random(m), probs,
                                           [f"u{k}" for k in range(m)])
        text = json_text(model)
        assert render_model(model) == text
        tracemalloc.start()
        try:
            digest = model_hash(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(text.encode()).hexdigest()[:16]
        assert peak < len(text) / 5

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
